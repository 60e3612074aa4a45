import hashlib
import json
import random
import warnings

import pytest

import cases
from chroma.extensions import (BoundTooSmall, ExtAutomorphism, FiniteGroup,
                               FiniteRing, GroupAut, MatchedPair, RactNotTrivial,
                               SigmaCocycle, TauCocycle, ZMap,
                               action_from_generator_images, aut_ext_solve,
                               build_bicrossed, check_color_matched_pair,
                               check_split_color_extension, color_compatibility,
                               is_color, kac_condition, ring_family, support,
                               validate_matched_pair, validate_z)
from chroma.groups import Bicharacter, FinAbGroup
from chroma.hopfcheck import (MonomialMatrix, check_axioms, grade_by_action,
                              solve_antipode)
from chroma.scalars import Cyclo, R01_HALF, R01_ZERO, Rational01


def test_finite_group_validation():
    F = FiniteGroup.cyclic(6)
    assert F.identity == 0 and F.inv[2] == 4
    assert F.exponent == 6 and F.is_abelian()
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # not a group law


def test_matched_pair_examples():
    L, Gamma = FiniteGroup.cyclic(4), FiniteGroup.cyclic(3)
    assert validate_matched_pair(MatchedPair.trivial(L, Gamma))
    assert validate_matched_pair(cases.squaring_matched_pair())
    assert validate_matched_pair(cases.mixed_c12_matched_pair())
    # breaking one cell invalidates the pair
    mp = cases.squaring_matched_pair()
    lact = [list(r) for r in mp.lact]
    lact[1][1] = (lact[1][1] + 1) % 7
    assert not validate_matched_pair(MatchedPair(mp.L, mp.Gamma, lact, mp.ract))


# the laws of validate_matched_pair, in its order, written out independently
MATCHED_PAIR_LAWS = [
    lambda mp, L, G: all(mp.la(l, G.identity) == l and mp.ra(l, G.identity) == G.identity
                         for l in range(L.n)),
    lambda mp, L, G: all(mp.la(L.identity, g) == L.identity and mp.ra(L.identity, g) == g
                         for g in range(G.n)),
    lambda mp, L, G: all(mp.la(mp.la(l, g), h) == mp.la(l, G.mul(g, h))
                         for l in range(L.n) for g in range(G.n) for h in range(G.n)),
    lambda mp, L, G: all(mp.ra(l, G.mul(g, h)) == G.mul(mp.ra(l, g), mp.ra(mp.la(l, g), h))
                         for l in range(L.n) for g in range(G.n) for h in range(G.n)),
    lambda mp, L, G: all(mp.ra(L.mul(l, t), g) == mp.ra(l, mp.ra(t, g))
                         for l in range(L.n) for t in range(L.n) for g in range(G.n)),
    lambda mp, L, G: all(mp.la(L.mul(l, t), g) == L.mul(mp.la(l, mp.ra(t, g)), mp.la(t, g))
                         for l in range(L.n) for t in range(L.n) for g in range(G.n)),
]


@pytest.mark.parametrize("index, name", enumerate(cases.BROKEN_MATCHED_PAIRS))
def test_each_matched_pair_law_is_checked(index, name):
    """Each pair breaks exactly one law, so each return False of
    validate_matched_pair is the only one that can reject it."""
    mp = cases.broken_matched_pair(name)
    assert [law(mp, mp.L, mp.Gamma) for law in MATCHED_PAIR_LAWS] == [
        i != index for i in range(len(MATCHED_PAIR_LAWS))]
    assert not validate_matched_pair(mp)


def test_cocycle_validation_and_mutation():
    mp = cases.squaring_matched_pair()
    sigma, tau = SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)
    assert sigma.validate(mp) and tau.validate(mp)
    assert not sigma.mutated(1, 1, 1, R01_HALF).validate(mp)
    assert not tau.mutated(1, 1, 1, R01_HALF).validate(mp)


def test_kac_condition():
    mp = cases.squaring_matched_pair()
    sigma, tau = SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)
    assert kac_condition(mp, sigma, tau)
    assert validate_matched_pair(cases.mixed_c12_matched_pair())
    assert not kac_condition(mp, sigma.mutated(2, 1, 2, R01_HALF), tau)


def test_bicrossed_dimensions_and_axioms():
    mp = cases.mixed_c12_matched_pair()
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    assert H.dim == 36
    assert check_axioms(H, "plain")["all_ok"]
    assert solve_antipode(H) is not None


def test_small_corpus_pairs_full_hopf_suite():
    # every corpus matched pair with |L|, |Gamma| <= 8 and trivial cocycles
    # must verify as an ordinary Hopf algebra with an invertible antipode
    pairs = [cases.squaring_matched_pair(),
             MatchedPair.trivial(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)),
             MatchedPair.trivial(FiniteGroup.cyclic(1),
                                 FiniteGroup.from_fin_ab(FinAbGroup.of(2, 2))),
             MatchedPair.trivial(FiniteGroup.cyclic(1), FiniteGroup.cyclic(5)),
             cases.mod3_ring_family().mp,
             cases.mod5_ring_family().mp]
    from chroma.hopfcheck import antipode_matrix_invertible
    for mp in pairs:
        assert mp.L.n <= 8 and mp.Gamma.n <= 8
        sigma, tau = SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)
        assert kac_condition(mp, sigma, tau)
        H = build_bicrossed(mp, sigma, tau)
        assert check_axioms(H, "plain")["all_ok"]
        S = solve_antipode(H)
        assert S is not None and antipode_matrix_invertible(H, S)


def test_nontrivial_cocycles_with_compatibility():
    # trivial actions on C2/C2; sigma_l(g,g) = (-1)^l and tau_g(l,l) = (-1)^g
    # are valid cocycles satisfying the compatibility, so the twisted
    # product/coproduct still verify as a Hopf algebra
    L, Gam = FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    mp = MatchedPair.trivial(L, Gam)
    s_table = [[[R01_ZERO] * 2 for _ in range(2)] for _ in range(2)]
    s_table[1][1][1] = R01_HALF
    sigma = SigmaCocycle(s_table)
    t_table = [[[R01_ZERO] * 2 for _ in range(2)] for _ in range(2)]
    t_table[1][1][1] = R01_HALF
    tau = TauCocycle(t_table)
    assert sigma.validate(mp) and tau.validate(mp)
    assert kac_condition(mp, sigma, tau)
    H = build_bicrossed(mp, sigma, tau)
    assert check_axioms(H, "plain")["all_ok"]
    assert solve_antipode(H) is not None


def test_build_bicrossed_holds_one_cyclo_per_root():
    """Each cell holds the embedding of its own sigma or tau root, and the
    cells of one root share one object."""
    mp = cases.squaring_matched_pair()
    L, Gamma = mp.L, mp.Gamma
    sigma = (SigmaCocycle.trivial(mp).mutated(1, 1, 2, Rational01(1, 7))
             .mutated(3, 2, 1, Rational01(2, 3)))
    tau = (TauCocycle.trivial(mp).mutated(1, 2, 5, Rational01(3, 7))
           .mutated(2, 4, 4, Rational01(1, 3)))
    H = build_bicrossed(mp, sigma, tau)
    N = H.conductor
    assert N == 21
    for l in L.elements():
        for g in Gamma.elements():
            row = H.mult[cases.basis_index_of(mp, l, g)]
            for h in Gamma.elements():
                ((_, c),) = row[cases.basis_index_of(mp, mp.la(l, g), h)]
                assert c == Cyclo.embed(sigma.value(l, g, h), N)
            entry = H.comult[cases.basis_index_of(mp, l, g)]
            for u, (*_, c) in zip(L.elements(), entry):
                assert c == Cyclo.embed(tau.value(g, u, L.mul(L.inv[u], l)), N)
    coeffs = cases.coefficients(H)
    # roots 0, 1/7, 2/3, 3/7 and 1/3, and the counit's zero
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) == 6


def test_valid_cocycle_failing_compatibility_breaks_coproduct():
    # sigma_l(g,g) = i^l is a perfectly valid 2-cocycle, but i*i != 1 breaks
    # the compatibility; the failure lands exactly on the coproduct axiom
    L, Gam = FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    mp = MatchedPair.trivial(L, Gam)
    s_table = [[[R01_ZERO] * 2 for _ in range(2)] for _ in range(2)]
    s_table[1][1][1] = Rational01(1, 4)
    sigma = SigmaCocycle(s_table)
    assert sigma.validate(mp)
    assert not kac_condition(mp, sigma, TauCocycle.trivial(mp))
    H = build_bicrossed(mp, sigma, TauCocycle.trivial(mp))
    report = check_axioms(H, "plain")
    assert not report["coproduct_multiplicative"]["ok"]
    assert report["associativity"]["ok"] and report["coassociativity"]["ok"]


def test_trivial_pair_gives_one_dimensional_hopf():
    L, Gamma = FiniteGroup.cyclic(1), FiniteGroup.cyclic(1)
    mp = MatchedPair.trivial(L, Gamma)
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    assert H.dim == 1
    assert check_axioms(H, "plain")["all_ok"]


# ---------------------------------------------------------------------------
# the automorphism solver
# ---------------------------------------------------------------------------


def test_aut_ext_identity_pair_contains_trivial():
    L, Gamma = FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    mp = MatchedPair.trivial(L, Gamma)
    sols = aut_ext_solve(mp, GroupAut.identity(L), GroupAut.identity(Gamma), 2)
    # ftilde ranges over Hom(Gamma, Hom(L, mu_2)): 2 solutions, one trivial
    assert len(sols) == 2
    assert any(all(v.is_zero() for row in a.ftilde for v in row) for a in sols)


def test_aut_ext_squaring_pair_solutions():
    mp = cases.squaring_matched_pair()
    g = GroupAut.by_power(mp.L, -1)
    h = GroupAut.identity(mp.Gamma)
    sols = aut_ext_solve(mp, g, h, 7)
    assert len(sols) == 7
    for k in range(1, 7):
        expected = cases.inversion_automorphism_table(k)
        assert any(a.ftilde == ExtAutomorphism(g, h, expected).ftilde
                   for a in sols)
    # displayed matrix form: basis (l^i, gamma) -> xi^{-i} (l^{-i}, gamma)
    target = next(a for a in sols
                  if a.ftilde == ExtAutomorphism(
                      g, h, cases.inversion_automorphism_table(1)).ftilde)
    m = target.matrix(mp)
    src = cases.basis_index_of(mp, 2, 1)  # delta_{l^2} e_gamma
    assert m.perm[src] == cases.basis_index_of(mp, 5, 1)
    assert m.scal[src] == Rational01(-2, 7)


def test_aut_ext_builds_its_equations_once(monkeypatch):
    import chroma.extensions as ext
    build, calls = ext._ftilde_equations, []
    monkeypatch.setattr(ext, "_ftilde_equations",
                        lambda *args: calls.append(args) or build(*args))
    mp = cases.squaring_matched_pair()
    sols = aut_ext_solve(mp, GroupAut.by_power(mp.L, -1), GroupAut.identity(mp.Gamma), 7)
    assert len(sols) == 7 and len(calls) == 1


def test_aut_ext_rejects_a_solution_off_its_equations(monkeypatch):
    # ftilde_gamma(1) = 1 fails for the all-ones exponent vector
    import chroma.extensions as ext
    solve = ext.solve_homogeneous_mod
    monkeypatch.setattr(ext, "solve_homogeneous_mod",
                        lambda rows, N: solve(rows, N) + [(1,) * len(rows[0])])
    mp = cases.squaring_matched_pair()
    with pytest.raises(AssertionError, match="solver produced an invalid automorphism"):
        aut_ext_solve(mp, GroupAut.by_power(mp.L, -1), GroupAut.identity(mp.Gamma), 7)


@pytest.mark.parametrize("pair,k,hk,N", [("squaring", -1, 1, 7), ("mixed_c12", 7, 1, 3),
                                          ("mixed_c12", 11, 2, 3)])
def test_aut_ext_solves_distinct_rows(pair, k, hk, N, monkeypatch):
    """The Smith form gets each equation row once, and the solutions are
    those of the full system."""
    import chroma.extensions as ext
    from chroma.zlinalg import solve_homogeneous_mod
    mp = getattr(cases, f"{pair}_matched_pair")()
    g, h = GroupAut.by_power(mp.L, k), GroupAut.by_power(mp.Gamma, hk)
    full = []
    for eq in ext._ftilde_equations(mp, g, h):
        row = [0] * (mp.Gamma.n * mp.L.n)
        for v, c in eq:
            row[v] += c
        if any(row):
            full.append(row)
    seen = []
    monkeypatch.setattr(ext, "solve_homogeneous_mod",
                        lambda rows, N: seen.append(rows) or solve_homogeneous_mod(rows, N))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sols = aut_ext_solve(mp, g, h, N)
    (rows,) = seen
    assert len(set(map(tuple, rows))) == len(rows) < len(full)
    assert set(map(tuple, rows)) == set(map(tuple, full))
    n = mp.L.n
    assert sols and [a.ftilde for a in sols] == [
        tuple(tuple(Rational01(x[gam * n + l], N) for l in range(n))
              for gam in range(mp.Gamma.n))
        for x in sorted(solve_homogeneous_mod(full, N))]


def test_all_automorphisms_and_default_bound():
    from chroma.extensions import all_automorphisms, default_root_bound
    c7 = FiniteGroup.cyclic(7)
    assert len(all_automorphisms(c7)) == 6
    klein = FiniteGroup.from_fin_ab(FinAbGroup.of(2, 2))
    assert len(all_automorphisms(klein)) == 6  # GL(2, F2)
    with pytest.raises(ValueError):
        all_automorphisms(FiniteGroup.cyclic(13))
    mp = cases.squaring_matched_pair()
    assert default_root_bound(mp) == 21


def test_aut_ext_incompatible_pair_returns_empty():
    mp = cases.mixed_c12_matched_pair()
    # l -> l^5 breaks the left-action compatibility on the odd elements
    g = GroupAut.by_power(mp.L, 5)
    h = GroupAut.identity(mp.Gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert aut_ext_solve(mp, g, h, 3) == []


def test_aut_ext_bound_warning():
    mp = cases.squaring_matched_pair()
    g = GroupAut.by_power(mp.L, -1)
    h = GroupAut.identity(mp.Gamma)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sols = aut_ext_solve(mp, g, h, 2)
        assert any(issubclass(w.category, BoundTooSmall) for w in caught)
    # only the trivial map survives in mu_2
    assert len(sols) == 1


def test_aut_ext_c12_pair():
    mp = cases.mixed_c12_matched_pair()
    g = GroupAut.by_power(mp.L, 7)
    h = GroupAut.identity(mp.Gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sols = aut_ext_solve(mp, g, h, 3)
    displayed = cases.c12_displayed_automorphism(1)
    assert any(a.ftilde == displayed.ftilde for a in sols)


# ---------------------------------------------------------------------------
# supports, color criteria
# ---------------------------------------------------------------------------


def test_support_trivial_action():
    G = FinAbGroup.of(4)
    H = cases.klein_group_algebra()
    ident = MonomialMatrix.identity(4)
    action = action_from_generator_images(G, [ident])
    sup = support(H, action, G)
    assert sorted(g.residues for g in sup) == [(0,)]


def test_support_color_group_cases():
    G, beta, H, gens = cases.c4_color_group_case()
    action = action_from_generator_images(G, gens)
    sup = support(H, action, G)
    assert sorted(g.residues for g in sup) == [(0,), (2,)]
    assert is_color(H, action, G, beta)

    G2, beta2, H2, gens2 = cases.c2c4_color_group_case()
    action2 = action_from_generator_images(G2, gens2)
    sup2 = support(H2, action2, G2)
    assert sorted(g.residues for g in sup2) == [(0, 0), (1, 2)]
    assert is_color(H2, action2, G2, beta2)


def test_support_extension_case():
    mp, G, beta, action, rho = cases.c12_extension_color_case()
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    sup = support(H, action, G)
    assert sorted(g.residues for g in sup) == [(0, 0), (1, 1)]
    assert is_color(H, action, G, beta)
    report = check_color_matched_pair(mp, rho, G, beta)
    assert report["all"] is True
    assert report["rho_is_homomorphism"] is False  # the table is not an action


def test_color_matched_pair_negative_case():
    # C7/C3 pair with the involution acting over G = C2, beta(g,g) = -1:
    # the support contains g, so the extension is not color
    mp = cases.squaring_matched_pair()
    G = FinAbGroup.of(2)
    beta = Bicharacter(G, [[R01_HALF]])
    g_aut = GroupAut.by_power(mp.L, -1)
    h_aut = GroupAut.identity(mp.Gamma)
    f = ExtAutomorphism(g_aut, h_aut, cases.inversion_automorphism_table(1))
    dual = FinAbGroup(G.orders)
    rho = {dual.element((0,)): ExtAutomorphism.identity(mp),
           dual.element((1,)): f}
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    action = {a: rho[a].matrix(mp) for a in rho}
    sup = support(H, action, G)
    assert sorted(x.residues for x in sup) == [(0,), (1,)]
    assert not is_color(H, action, G, beta)
    report = check_color_matched_pair(mp, rho, G, beta)
    assert report["all"] is False
    assert report["rho_is_homomorphism"] is True


# sha256 of the check_color_matched_pair reports, witnesses included, on
# 24 seeded rho tables over G = C3 with beta(g, g) = zeta_3, drawn from the
# aut_ext_solve solutions of the mixed C12/C3 pair
COLOR_MATCHED_PAIR_DIGEST = "1c79ac7d57276aa9479389a651e37e53ee2709e8d16546d9d1358deb2a34aab3"


def test_color_matched_pair_reports_pinned():
    mp = cases.mixed_c12_matched_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pool = [aut for k in (1, 5, 7, 11) for hk in (1, 2)
                for aut in aut_ext_solve(mp, GroupAut.by_power(mp.L, k),
                                         GroupAut.by_power(mp.Gamma, hk), 3)]
    G = FinAbGroup.of(3)
    beta = Bicharacter(G, [[Rational01(1, 3)]])
    dual = FinAbGroup(G.orders)
    rng = random.Random("color-matched-pair")
    reports = [check_color_matched_pair(
        mp, {dual.element((0,)): ExtAutomorphism.identity(mp),
             dual.element((1,)): rng.choice(pool),
             dual.element((2,)): rng.choice(pool)}, G, beta)
        for _ in range(24)]
    # every witness branch is reached, and some table passes
    for cond in ("i", "ii", "iii"):
        failing = [r for r in reports if not r[f"condition_{cond}"]]
        assert failing and all(r["witness"][cond] is not None for r in failing)
    assert any(r["all"] for r in reports)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == COLOR_MATCHED_PAIR_DIGEST


def test_check_color_matched_pair_agrees_with_is_color_trivial_rho():
    mp = cases.squaring_matched_pair()
    G = FinAbGroup.of(2)
    beta = Bicharacter(G, [[R01_HALF]])
    dual = FinAbGroup(G.orders)
    rho = {a: ExtAutomorphism.identity(mp) for a in dual.elements()}
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    action = {a: rho[a].matrix(mp) for a in rho}
    assert is_color(H, action, G, beta)
    assert check_color_matched_pair(mp, rho, G, beta)["all"] is True


# ---------------------------------------------------------------------------
# grading maps and braided compatibility
# ---------------------------------------------------------------------------


def test_validate_z_examples():
    fam = cases.mod3_ring_family()
    assert validate_z(fam.z)
    trivial = ZMap.trivial(fam.mp, fam.group)
    assert validate_z(trivial)
    # corrupting one cell breaks an identity
    table = [list(row) for row in fam.z.table]
    table[1][1] = table[1][1] * fam.group.generator(0)
    assert not validate_z(ZMap(fam.mp, fam.group, table))


def test_color_compatibility_trivial_data():
    L, Gamma = FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)
    mp = MatchedPair.trivial(L, Gamma)
    G = FinAbGroup.of(2)
    beta = Bicharacter.trivial(G)
    z = ZMap.trivial(mp, G)
    assert color_compatibility(mp, SigmaCocycle.trivial(mp),
                               TauCocycle.trivial(mp), z, beta)


def test_ring_family_mod3():
    fam = cases.mod3_ring_family()
    assert fam.sigma.value(1, 1, 1) == Rational01(1, 3)  # genuinely nontrivial
    tau = TauCocycle.trivial(fam.mp)
    assert color_compatibility(fam.mp, fam.sigma, tau, fam.z, fam.beta)
    # not an ordinary Hopf algebra, but a color one
    assert not kac_condition(fam.mp, fam.sigma, tau)
    H = build_bicrossed(fam.mp, fam.sigma, tau, z=fam.z, group=fam.group,
                        beta=fam.beta)
    assert not check_axioms(H, "plain")["all_ok"]
    assert check_axioms(H, "color")["all_ok"]
    assert solve_antipode(H, "color") is not None


def test_ring_family_rejects_non_bimultiplicative_theta():
    R = FiniteRing.integers_mod(3)
    Gamma = FiniteGroup.cyclic(2)
    theta_quadratic = [R01_ZERO, Rational01(1, 3), Rational01(1, 3)]  # x^2 table
    with pytest.raises(ValueError):
        ring_family(R, Gamma, [1, 2], [0, 1], [[0, 0], [0, 0]],
                    [R01_ZERO] * 3, theta_quadratic)


def test_split_check_requires_trivial_ract():
    mp = cases.mixed_c12_matched_pair()
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter.trivial(G)
    zt = [[G.identity()] * 12 for _ in range(3)]
    with pytest.raises(RactNotTrivial):
        check_split_color_extension(mp, SigmaCocycle.trivial(mp),
                                    TauCocycle.trivial(mp), zt, G, beta)


def test_split_check_ring_family():
    fam = cases.mod3_ring_family()
    tau = TauCocycle.trivial(fam.mp)
    ztilde = [[fam.z.degree(l, g) for l in range(3)] for g in range(2)]
    report = check_split_color_extension(fam.mp, fam.sigma, tau, ztilde,
                                         fam.group, fam.beta)
    assert report["ok"], report


@pytest.mark.parametrize("make", [cases.mod3_ring_family, cases.mod5_ring_family],
                         ids=["mod3", "mod5"])
def test_ring_family_keeps_its_split_report(make):
    fam = make()
    mp = fam.mp
    ztilde = [[fam.z.degree(l, g) for l in range(mp.L.n)] for g in range(mp.Gamma.n)]
    assert fam.split == check_split_color_extension(
        mp, fam.sigma, TauCocycle.trivial(mp), ztilde, fam.group, fam.beta)


def test_split_check_detects_broken_tau():
    fam = cases.mod3_ring_family()
    # a coboundary-valued tau on gamma that violates the 1-cocycle law
    # while staying a pointwise 2-cocycle of L
    a = Rational01(1, 3)
    def delta_f(vals):
        return [[vals[l] + vals[t] - vals[(l + t) % 3] for t in range(3)]
                for l in range(3)]
    tau_plane = delta_f([R01_ZERO, a, R01_ZERO])
    zero_plane = [[R01_ZERO] * 3 for _ in range(3)]
    tau = TauCocycle([zero_plane, tau_plane])
    ztilde = [[fam.z.degree(l, g) for l in range(3)] for g in range(2)]
    report = check_split_color_extension(fam.mp, fam.sigma, tau, ztilde,
                                         fam.group, fam.beta)
    assert report["tau_pointwise_cocycle"]
    assert not report["tau_gamma_cocycle"]
    assert not report["ok"]
    # the graded object then fails the color suite, as the theorem predicts
    H = build_bicrossed(fam.mp, fam.sigma, tau, z=fam.z, group=fam.group,
                        beta=fam.beta)
    assert not check_axioms(H, "color")["all_ok"]
