"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison below is equality; the only
stated tolerances are the runtime bounds, which are asserted.
"""

import functools
import random
import time
import warnings

import pytest

import cases
from chroma.datum import BraidingMatrix, Datum
from chroma.dynkin import colored_diagram, generalized_diagram, isomorphic
from chroma.extensions import (ExtAutomorphism, FiniteGroup, FiniteRing,
                               GroupAut, MatchedPair, SigmaCocycle, TauCocycle,
                               ZMap, aut_ext_solve, build_bicrossed,
                               check_color_matched_pair,
                               check_split_color_extension, is_color,
                               kac_condition, ring_family, support,
                               validate_matched_pair)
from chroma.groups import Bicharacter, FinAbGroup
from chroma.hopfcheck import (ActionError, MonomialMatrix, check_axioms,
                              grade_by_action, solve_antipode)
from chroma.scalars import (Cyclo, R01_HALF, R01_ZERO, Rational01, Scalar,
                            order_of, solve_power)
from chroma.triangular import reduce_commutation_factor
from chroma.weyl import cartan_entry, reflect_datum, reflectable_vertices, weyl_orbit

from test_triangular import check_pipeline, commutation_factors, invariant_factor_groups
from test_weyl import brute_cartan_entry


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:02d} [{label}]: FAIL")
                raise
            print(f"criterion {number:02d} [{label}]: PASS")
        return run
    return wrap


# ---------------------------------------------------------------------------
# 1. the rank-4 family over C2 x C2 reproduces all six reference rows
# ---------------------------------------------------------------------------


@criterion(1, "rank-4 family table")
def test_criterion_01_rank4_family_table():
    start = time.monotonic()
    E = cases.rank4_klein_datum()
    orbit = weyl_orbit(E)
    assert not orbit.truncated
    pairs = [(generalized_diagram(n.q), colored_diagram(n)) for n in orbit.nodes]
    table = cases.rank4_reference_table()
    for g_exp, c_exp in table:
        assert any(isomorphic(g_exp, g) and isomorphic(c_exp, c)
                   for g, c in pairs), "missing reference row"
    elapsed = time.monotonic() - start
    # the reference data includes unlabeled edges and the (1,1) degree
    assert any(l is None for _, c in table for _, _, l in c.edges)
    sn = cases.klein_group().element((1, 1))
    assert any(d == sn for _, c in table for _, d in c.vertices)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. the rank-2 family over C3: exactly two diagrams, exact reflected data
# ---------------------------------------------------------------------------


@criterion(2, "rank-2 family")
def test_criterion_02_rank2_family():
    E = cases.rank2_c3_datum()
    orbit = weyl_orbit(E)
    assert not orbit.truncated
    classes = []
    for node in orbit.nodes:
        d = generalized_diagram(node.q)
        if not any(isomorphic(d, c) for c in classes):
            classes.append(d)
    assert len(classes) == 2
    E1 = reflect_datum(E, 0)
    w = Scalar.zeta(3, 1)
    q = Scalar.variable("q")
    gen = generalized_diagram(E1.q)
    assert [v[0] for v in gen.vertices] == [w, q.inverse() * w]
    assert gen.edges == ((0, 1, q * w * w),)
    col = colored_diagram(E1)
    s2 = E.group.element((2,))
    assert [v for v in col.vertices] == [(Scalar.one(), s2), (q.inverse(), s2)]
    assert col.edges == ((0, 1, q),)
    assert [x.residues for x in E1.t] == [(2,), (2,)]


# ---------------------------------------------------------------------------
# 3. double reflection is the identity; the twisted transformation rule holds
# ---------------------------------------------------------------------------


@criterion(3, "reflection involution")
def test_criterion_03_involution():
    # reflect_datum re-derives the twisted transformation identity on every
    # call, so each invocation below also certifies that rule
    checked = 0
    for E0 in (cases.rank4_klein_datum(), cases.rank2_c3_datum()):
        orbit = weyl_orbit(E0)
        for node in orbit.nodes:
            for p in reflectable_vertices(node):
                assert reflect_datum(reflect_datum(node, p), p) == node
                checked += 1
    rng = random.Random(20260808)
    produced = 0
    while produced < 50:
        E = cases.random_small_datum(rng)
        produced += 1
        for p in reflectable_vertices(E):
            assert reflect_datum(reflect_datum(E, p), p) == E
            checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# 4. single-copy checks and retraction counting
# ---------------------------------------------------------------------------


@criterion(4, "double quotient predicates")
def test_criterion_04_double_predicates():
    from chroma.doubles import color_retraction_count, single_copy_color_check
    report = single_copy_color_check(cases.rank2_c3_symmetric_datum())
    assert report["symmetric"] is True
    assert report["retraction_exists"] is True
    assert report["witness"] == [[2], [0]]  # images sigma^{-1}, identity
    assert report["color"] is False
    total, colored = color_retraction_count(cases.rank2_c3_datum())
    assert (total, colored) == (9, 1)


# ---------------------------------------------------------------------------
# 5. group-algebra and extension supports
# ---------------------------------------------------------------------------


@criterion(5, "graded supports")
def test_criterion_05_supports():
    from chroma.extensions import action_from_generator_images
    G, beta, H, gens = cases.c4_color_group_case()
    action = action_from_generator_images(G, gens)
    assert sorted(g.residues for g in support(H, action, G)) == [(0,), (2,)]
    assert is_color(H, action, G, beta)

    G2, beta2, H2, gens2 = cases.c2c4_color_group_case()
    action2 = action_from_generator_images(G2, gens2)
    assert sorted(g.residues for g in support(H2, action2, G2)) == [(0, 0), (1, 2)]
    assert is_color(H2, action2, G2, beta2)

    mp, G3, beta3, action3, _ = cases.c12_extension_color_case()
    H3 = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    assert sorted(g.residues for g in support(H3, action3, G3)) == [(0, 0), (1, 1)]
    assert is_color(H3, action3, G3, beta3)


# ---------------------------------------------------------------------------
# 6. the extension-automorphism solver
# ---------------------------------------------------------------------------


@criterion(6, "automorphism solver")
def test_criterion_06_solver():
    mp = cases.squaring_matched_pair()
    g = GroupAut.by_power(mp.L, -1)
    h = GroupAut.identity(mp.Gamma)
    sols = aut_ext_solve(mp, g, h, 7)  # certification runs inside
    assert len(sols) == 7
    for k in range(1, 7):
        expected = cases.inversion_automorphism_table(k)
        match = [a for a in sols if list(map(list, a.ftilde)) ==
                 list(map(list, expected))]
        assert len(match) == 1
        # the induced map: basis (l^i, gamma^c) -> xi^{-ic'} (l^{-i}, gamma^c)
        m = match[0].matrix(mp)
        for i in range(7):
            for c, mult in ((0, 0), (1, 1), (2, 3)):
                src = cases.basis_index_of(mp, i, c)
                assert m.perm[src] == cases.basis_index_of(mp, (-i) % 7, c)
                assert m.scal[src] == Rational01(-k * i * mult, 7)

    mp2 = cases.mixed_c12_matched_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sols2 = aut_ext_solve(mp2, GroupAut.by_power(mp2.L, 7),
                              GroupAut.identity(mp2.Gamma), 3)
    displayed = cases.c12_displayed_automorphism(1)
    assert any(a.ftilde == displayed.ftilde for a in sols2)


# ---------------------------------------------------------------------------
# 7. exhaustive axiom suite with antipodes, plus mutation sensitivity
# ---------------------------------------------------------------------------


@criterion(7, "axiom oracle suite")
def test_criterion_07_axiom_suite():
    for mp in (cases.squaring_matched_pair(), cases.mixed_c12_matched_pair()):
        sigma, tau = SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)
        start = time.monotonic()
        H = build_bicrossed(mp, sigma, tau)
        report = check_axioms(H, "plain")
        assert report["all_ok"], report
        S = solve_antipode(H)
        assert S is not None
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        # single-entry mutations violating the compatibility break an axiom
        for mutant in (build_bicrossed(mp, sigma.mutated(1, 1, 1, R01_HALF), tau),
                       build_bicrossed(mp, sigma, tau.mutated(1, 1, 2, R01_HALF))):
            assert not check_axioms(mutant, "plain")["all_ok"]
        assert not kac_condition(mp, sigma.mutated(1, 1, 1, R01_HALF), tau)
        assert not kac_condition(mp, sigma, tau.mutated(1, 1, 2, R01_HALF))


# ---------------------------------------------------------------------------
# 8. equivalence of the definitional checks with direct verification
# ---------------------------------------------------------------------------


def split_instances():
    """(mp, sigma, tau, ztilde, group, beta) with a trivial right action."""
    out = []

    def with_tau_variants(fam, taus):
        zt = [[fam.z.degree(l, g) for l in range(fam.mp.L.n)]
              for g in range(fam.mp.Gamma.n)]
        for tau in taus:
            out.append((fam.mp, fam.sigma, tau, zt, fam.group, fam.beta))

    # fully trivial data over L = C2, Gamma = C2
    L, Gamma = FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    mp0 = MatchedPair.trivial(L, Gamma)
    G0 = FinAbGroup.of(2)
    beta0 = Bicharacter.trivial(G0)
    zt0 = [[G0.identity()] * 2 for _ in range(2)]
    out.append((mp0, SigmaCocycle.trivial(mp0), TauCocycle.trivial(mp0),
                zt0, G0, beta0))
    # ... and with a nontrivial constant-on-gamma tau valued in mu_2
    half_plane = [[R01_ZERO, R01_ZERO], [R01_ZERO, R01_HALF]]
    zero_plane = [[R01_ZERO] * 2 for _ in range(2)]
    out.append((mp0, SigmaCocycle.trivial(mp0),
                TauCocycle([zero_plane, half_plane]), zt0, G0, beta0))

    fam3 = cases.mod3_ring_family()
    taus3 = [TauCocycle.trivial(fam3.mp)]
    # valid nontrivial: tau_gamma = coboundary of (0, 1/2, 1/2)
    f = [R01_ZERO, R01_HALF, R01_HALF]
    good = [[f[l] + f[t] - f[(l + t) % 3] for t in range(3)] for l in range(3)]
    zero3 = [[R01_ZERO] * 3 for _ in range(3)]
    taus3.append(TauCocycle([zero3, good]))
    # broken gamma-cocycle law, still pointwise 2-cocycles
    fb = [R01_ZERO, Rational01(1, 3), R01_ZERO]
    bad = [[fb[l] + fb[t] - fb[(l + t) % 3] for t in range(3)] for l in range(3)]
    taus3.append(TauCocycle([zero3, bad]))
    # broken pointwise cocycle
    taus3.append(TauCocycle.trivial(fam3.mp).mutated(1, 1, 1, Rational01(1, 3)))
    with_tau_variants(fam3, taus3)

    # same family with the other nonzero psi value
    R3 = FiniteRing.integers_mod(3)
    C2 = FiniteGroup.cyclic(2)
    fam3b = ring_family(R3, C2, [1, 2], [0, 2], [[0, 0], [0, 0]],
                        [R01_ZERO] * 3,
                        [R01_ZERO, Rational01(2, 3), Rational01(4, 3)])
    with_tau_variants(fam3b, [TauCocycle.trivial(fam3b.mp)])

    fam5 = cases.mod5_ring_family()
    taus5 = [TauCocycle.trivial(fam5.mp)]
    fb5 = [R01_ZERO, Rational01(1, 5)] + [R01_ZERO] * 3
    bad5 = [[fb5[l] + fb5[t] - fb5[(l + t) % 5] for t in range(5)]
            for l in range(5)]
    zero5 = [[R01_ZERO] * 5 for _ in range(5)]
    taus5.append(TauCocycle([zero5, bad5, zero5, zero5]))
    with_tau_variants(fam5, taus5)

    # Z/4 with nu(gamma) = 3 and theta = zeta4^x
    R4 = FiniteRing.integers_mod(4)
    fam4 = ring_family(R4, C2, [1, 3], [0, 2], [[0, 0], [0, 0]],
                       [R01_ZERO] * 4,
                       [Rational01(x, 4) for x in range(4)])
    taus4 = [TauCocycle.trivial(fam4.mp),
             TauCocycle.trivial(fam4.mp).mutated(1, 1, 1, R01_HALF)]
    with_tau_variants(fam4, taus4)

    # Z/2 with a nontrivial 2-cocycle phi and character eta
    R2 = FiniteRing.integers_mod(2)
    C3 = FiniteGroup.cyclic(3)
    phi = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]  # coboundary of f(gamma^i)=[0,1,1]
    fam2 = ring_family(R2, C3, [1, 1, 1], [0, 0, 0], phi,
                       [R01_ZERO, R01_HALF], [R01_ZERO, Rational01(1, 4)])
    with_tau_variants(fam2, [TauCocycle.trivial(fam2.mp)])

    # values outside mu_2 break the gamma-cocycle law over C2
    quarter_plane = [[R01_ZERO, R01_ZERO], [R01_ZERO, Rational01(1, 4)]]
    out.append((mp0, SigmaCocycle.trivial(mp0),
                TauCocycle([zero_plane, quarter_plane]), zt0, G0, beta0))

    # Z/6 with nu = -1 and theta = zeta3^x
    R6 = FiniteRing.integers_mod(6)
    fam6 = ring_family(R6, C2, [1, 5], [0, 3], [[0, 0], [0, 0]],
                       [R01_ZERO] * 6,
                       [Rational01(2 * x, 6) for x in range(6)])
    with_tau_variants(fam6, [TauCocycle.trivial(fam6.mp)])

    # Z/7 with Gamma = C3 acting by doubling and theta = zeta7^{4x}
    R7 = FiniteRing.integers_mod(7)
    fam7 = ring_family(R7, C3, [1, 2, 4], [0, 1, 3], [[0] * 3 for _ in range(3)],
                       [R01_ZERO] * 7,
                       [Rational01(4 * x, 7) for x in range(7)])
    with_tau_variants(fam7, [TauCocycle.trivial(fam7.mp)])

    # second Z/3 family with a broken pointwise tau
    with_tau_variants(fam3b, [TauCocycle.trivial(fam3b.mp).mutated(
        1, 1, 1, Rational01(1, 3))])
    return out


def action_instances():
    """(mp, rho, group, beta, rho_is_genuine) for the support criteria."""
    out = []
    # group algebras as extensions with trivial L
    L1 = FiniteGroup.cyclic(1)
    klein = FiniteGroup.from_fin_ab(FinAbGroup.of(2, 2))
    mpk = MatchedPair.trivial(L1, klein)
    swap = GroupAut(klein, (0, 1, 3, 2))
    triv_f = [[R01_ZERO] for _ in range(4)]

    def rho_from_h(mp, G, h_for_generators):
        """Extend generator automorphisms multiplicatively over the dual."""
        dual = FinAbGroup(G.orders)
        table = {}
        for a in dual.elements():
            h = GroupAut.identity(mp.Gamma)
            for img, r in zip(h_for_generators, a.residues):
                for _ in range(r):
                    h = img.compose(h)
            table[a] = ExtAutomorphism(GroupAut.identity(mp.L), h,
                                       [[R01_ZERO] * mp.L.n
                                        for _ in range(mp.Gamma.n)])
        return table

    G4 = FinAbGroup.of(4)
    out.append((mpk, rho_from_h(mpk, G4, [swap]), G4,
                Bicharacter(G4, [[R01_HALF]]), True))
    G24 = FinAbGroup.of(2, 4)
    beta24 = Bicharacter(G24, [[R01_ZERO, R01_HALF], [R01_HALF, R01_ZERO]])
    out.append((mpk, rho_from_h(mpk, G24, [swap, swap]), G24, beta24, True))
    # C5 rotated by an order-4 automorphism over C4: not color
    c5 = FiniteGroup.cyclic(5)
    mp5 = MatchedPair.trivial(L1, c5)
    sq = GroupAut(c5, tuple((2 * x) % 5 for x in range(5)))
    G4i = FinAbGroup.of(4)
    beta_i = Bicharacter(G4i, [[Rational01(1, 4)]])
    out.append((mp5, rho_from_h(mp5, G4i, [sq]), G4i, beta_i, True))

    # the C7/C3 pair acted on by its inversion automorphism over C2
    mp7 = cases.squaring_matched_pair()
    f7 = ExtAutomorphism(GroupAut.by_power(mp7.L, -1),
                         GroupAut.identity(mp7.Gamma),
                         cases.inversion_automorphism_table(1))
    C2 = FinAbGroup.of(2)
    dual2 = FinAbGroup(C2.orders)
    rho7 = {dual2.element((0,)): ExtAutomorphism.identity(mp7),
            dual2.element((1,)): f7}
    out.append((mp7, rho7, C2, Bicharacter(C2, [[R01_HALF]]), True))
    out.append((mp7, rho7, C2, Bicharacter.trivial(C2), True))
    # trivial rho over the Klein braiding
    mp12 = cases.mixed_c12_matched_pair()
    GK = FinAbGroup.of(2, 2)
    betaK = Bicharacter(GK, [[R01_ZERO, R01_HALF], [R01_HALF, R01_ZERO]])
    dualK = FinAbGroup(GK.orders)
    rho_triv = {a: ExtAutomorphism.identity(mp12) for a in dualK.elements()}
    out.append((mp12, rho_triv, GK, betaK, True))
    # the twisted order-6 map assigned to order-2 characters: not an action
    mpX, GX, betaX, _, rhoX = cases.c12_extension_color_case()
    out.append((mpX, rhoX, GX, betaX, False))
    return out


@criterion(8, "definitional checks match direct verification")
def test_criterion_08_equivalences():
    generated = 0
    # split extensions: the report conjunction must predict the color suite
    for mp, sigma, tau, zt, group, beta in split_instances():
        report = check_split_color_extension(mp, sigma, tau, zt, group, beta)
        z = ZMap.from_cocycle(mp, group, zt)
        H = build_bicrossed(mp, sigma, tau, z=z, group=group, beta=beta)
        axioms = check_axioms(H, "color")
        direct = axioms["all_ok"]
        if direct:
            direct = solve_antipode(H, "color") is not None
        assert report["ok"] == direct, (report, {
            k: v for k, v in axioms.items() if k != "all_ok"})
        generated += 1

    # dual-group actions: the matched-pair conditions, the support
    # criterion, and the graded axiom suite must agree
    for mp, rho, group, beta, genuine in action_instances():
        H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
        action = {a: rho[a].matrix(mp) for a in rho}
        predicted = is_color(H, action, group, beta)
        report = check_color_matched_pair(mp, rho, group, beta)
        assert report["all"] == predicted
        assert report["rho_is_homomorphism"] == genuine
        if genuine:
            graded = grade_by_action(H, action, group, beta)
            direct = check_axioms(graded, "color")["all_ok"]
            if direct:
                direct = solve_antipode(graded, "color") is not None
            assert direct == predicted
        generated += 1

    # paper-derived instances live in cases.*; everything else is generated
    assert generated >= 20 + 3


# ---------------------------------------------------------------------------
# 9. the full reduction pipeline on every commutation factor up to order 16
# ---------------------------------------------------------------------------


@criterion(9, "triangular pipeline exhaustive")
def test_criterion_09_triangular():
    count = 0
    for G in invariant_factor_groups(16):
        for beta in commutation_factors(G):
            check_pipeline(beta)
            count += 1
    assert count > 1000  # the sweep is genuinely exhaustive


# ---------------------------------------------------------------------------
# 10. scalar solvers against brute force
# ---------------------------------------------------------------------------


@criterion(10, "solver oracles")
def test_criterion_10_solver_oracles():
    rng = random.Random(1234)
    roots = [Rational01(0, 1), R01_HALF, Rational01(1, 3), Rational01(1, 4),
             Rational01(2, 3), Rational01(1, 6), Rational01(5, 12)]

    def rand_monomial():
        return Scalar(rng.choice(roots), {"q": rng.randrange(-3, 4),
                                          "r": rng.randrange(-2, 3)})

    def brute_solve(a, b, bound=200):
        acc = Scalar.one()
        for n in range(bound + 1):
            if acc == b:
                return n
            acc = acc * a
        return None

    for _ in range(500):
        a = rand_monomial()
        b = a ** rng.randrange(0, 60) if rng.random() < 0.5 else rand_monomial()
        expected = brute_solve(a, b)
        got = solve_power(a, b)
        if expected is not None:
            assert got == expected
        else:
            assert got is None or got > 200

    for _ in range(500):
        entries = [[rand_monomial() for _ in range(2)] for _ in range(2)]
        for i in range(2):
            if entries[i][i].is_one():
                entries[i][i] = Scalar.minus_one()
        q = BraidingMatrix(entries)
        for p, j in ((0, 1), (1, 0)):
            assert cartan_entry(q, p, j) == brute_cartan_entry(q, p, j)
            assert cartan_entry(q, p, p) == 2
            if (q[p, j] * q[j, p]).is_one():
                assert cartan_entry(q, p, j) == 0
