import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import cases
from chroma import hopfcheck
from chroma.extensions import (FiniteGroup, GroupAut, MatchedPair, SigmaCocycle,
                               TauCocycle, action_from_generator_images,
                               aut_ext_solve, build_bicrossed, kac_condition)
from chroma.groups import Bicharacter, FinAbGroup
from chroma.hopfcheck import (ActionError, Echelon, MonomialMatrix, StructBialgebra,
                              antipode_matrix_invertible, bosonize,
                              bosonization_antipode_formula, check_axioms,
                              check_flip, grade_by_action, is_bialgebra_morphism,
                              lc_add_scaled, lift_cyclo, matrix_rank, solve_antipode,
                              verify_color_antipode, _combo_terms, _nonzero_keys, _terms)
from chroma.scalars import (Cyclo, R01_HALF, R01_ZERO, Rational01,
                            cyclotomic_polynomial)


def cyclic_group_algebra(n):
    F = FiniteGroup.cyclic(n)
    return StructBialgebra.group_algebra(F.table, F.identity)


def test_monomial_matrix_algebra():
    m = MonomialMatrix((1, 0), (Rational01(1, 4), R01_ZERO))
    assert (m * m.inverse()) == MonomialMatrix.identity(2)
    sq = m * m
    assert sq.perm == (0, 1)
    assert sq.scal == (Rational01(1, 4), Rational01(1, 4))
    assert (m ** 4).scal == (Rational01(1, 2), Rational01(1, 2))


def test_group_algebra_axioms_and_antipode():
    H = cyclic_group_algebra(3)
    report = check_axioms(H, "plain")
    assert report["all_ok"]
    S = solve_antipode(H)
    assert S is not None
    # antipode of a group algebra is the inversion permutation
    for j in range(3):
        assert set(S[j]) == {(-j) % 3}
    assert antipode_matrix_invertible(H, S)


def test_bicrossed_21_dim_full_suite():
    mp = cases.squaring_matched_pair()
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    assert kac_condition(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    report = check_axioms(H, "plain")
    assert report["all_ok"], report
    S = solve_antipode(H)
    assert S is not None
    assert antipode_matrix_invertible(H, S)


def test_kac_violation_breaks_an_axiom():
    mp = cases.squaring_matched_pair()
    sigma = SigmaCocycle.trivial(mp).mutated(1, 1, 1, R01_HALF)
    # the mutation breaks the sigma cocycle law itself here; find one that
    # keeps sigma a cocycle is harder, so check the axiom failure directly
    H = build_bicrossed(mp, sigma, TauCocycle.trivial(mp))
    report = check_axioms(H, "plain")
    assert not report["all_ok"]


def _idempotent_bialgebra():
    # a bialgebra-like table without convolution inverse: the 2-dim algebra
    # k[x]/(x^2 - x) with x grouplike has no antipode (x is idempotent)
    N = 1
    one = Cyclo.one(N)
    mult = [[((0, one),), ((1, one),)], [((1, one),), ((1, one),)]]
    comult = [((0, 0, one),), ((1, 1, one),)]
    return StructBialgebra(dim=2, conductor=N, mult=mult, comult=comult,
                           unit={0: one}, counit=[one, one])


def test_no_antipode_detected():
    H = _idempotent_bialgebra()
    assert check_axioms(H, "plain")["all_ok"]
    assert solve_antipode(H) is None
    # with a zero counit there is no convolution unit eta epsilon to invert to
    zero = [Cyclo.zero(1)] * 4
    assert solve_antipode(dataclasses.replace(cases.klein_group_algebra(), counit=zero)) is None


def _nonassociative_loop_algebra():
    # basis 1, a, b with a.a = b, a.b = -1, b.a = 1, b.b = -a, all grouplike:
    # the left-nested powers give id^{*3} = eta epsilon, so C = id^{*2}
    # (C(a) = b, C(b) = -a) satisfies C * id = eta epsilon, but
    # a C(a) = a.b = -1, so id * C does not
    one = Cyclo.one(1)
    mult = [[((0, one),), ((1, one),), ((2, one),)],
            [((1, one),), ((2, one),), ((0, -one),)],
            [((2, one),), ((0, one),), ((1, -one),)]]
    return StructBialgebra(dim=3, conductor=1, mult=mult,
                           comult=[((i, i, one),) for i in range(3)],
                           unit={0: one}, counit=[one] * 3)


def test_a_right_convolution_inverse_alone_is_no_antipode(monkeypatch):
    H = _nonassociative_loop_algebra()
    assert not check_axioms(H)["associativity"]["ok"]
    krylov = _spy(monkeypatch, hopfcheck, "_krylov_inverse")
    assert solve_antipode(H) is None
    assert krylov           # the squared candidate id^{*2} failed id * C
    monkeypatch.setattr(hopfcheck, "_inverse_by_squaring", lambda *args: None)
    assert solve_antipode(H) is None


def swap_graded_group_algebra(beta):
    """The Klein group algebra graded by C2 through the order-2 swap."""
    G = FinAbGroup.of(2)
    H = cases.klein_group_algebra()
    action = action_from_generator_images(G, [cases.swap_last_two()])
    return grade_by_action(H, action, G, beta)


def test_color_mode_trivial_braiding_matches_plain():
    G = FinAbGroup.of(2)
    Hg = swap_graded_group_algebra(Bicharacter.trivial(G))
    plain = check_axioms(Hg, "plain")
    color = check_axioms(Hg, "color")
    for key in plain:
        if key in color and key != "all_ok":
            assert plain[key]["ok"] == color[key]["ok"]
    assert color["all_ok"]


def test_color_group_algebra_with_super_braiding_fails():
    # support {1, g} with beta(g,g) = -1: the coproduct is not a morphism
    # for the twisted product, so the color suite must fail
    G = FinAbGroup.of(2)
    beta = Bicharacter(G, [[R01_HALF]])
    Hg = swap_graded_group_algebra(beta)
    assert check_axioms(Hg, "plain")["all_ok"]
    report = check_axioms(Hg, "color")
    assert not report["coproduct_multiplicative"]["ok"]
    assert not check_flip(Hg)


def test_grade_by_action_and_flip():
    G, beta, H, gens = cases.c4_color_group_case()
    action = action_from_generator_images(G, gens)
    Hg = grade_by_action(H, action, G, beta)
    assert check_axioms(Hg, "color")["all_ok"]
    assert check_flip(Hg)
    degrees = sorted({g.residues for g in Hg.grading})
    assert degrees == [(0,), (2,)]


def test_grade_by_action_rejects_non_action():
    # an order-6 monomial matrix assigned to an order-2 character is not
    # an action; the projector images cannot be simultaneous eigenvectors
    mp, G, beta, action, _ = cases.c12_extension_color_case()
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    with pytest.raises(ActionError):
        grade_by_action(H, action, G, beta)


def test_flip_agrees_with_support_criterion():
    from chroma.extensions import is_color
    for G, beta, H, gens in (cases.c4_color_group_case(),
                             cases.c2c4_color_group_case()):
        action = action_from_generator_images(G, gens)
        graded = grade_by_action(H, action, G, beta)
        assert check_flip(graded) == is_color(H, action, G, beta)
    # a negative pairing: same grading, braiding -1 on the support
    G = FinAbGroup.of(2)
    beta = Bicharacter(G, [[R01_HALF]])
    H = cases.klein_group_algebra()
    action = action_from_generator_images(G, [cases.swap_last_two()])
    graded = grade_by_action(H, action, G, beta)
    assert check_flip(graded) == is_color(H, action, G, beta) == False


def test_flip_trivial_grading():
    G = FinAbGroup.of(4)
    beta = Bicharacter(G, [[Rational01(1, 4)]])
    F = FiniteGroup.cyclic(2)
    H = dataclasses.replace(StructBialgebra.group_algebra(F.table, F.identity, conductor=4),
                            grading=(G.identity(), G.identity()), group=G, beta=beta)
    assert check_flip(H)


def test_bosonize_color_group_algebra():
    G, beta, H, gens = cases.c4_color_group_case()
    action = action_from_generator_images(G, gens)
    Hg = grade_by_action(H, action, G, beta)
    S = solve_antipode(Hg, "color")
    assert S is not None
    assert verify_color_antipode(Hg, S)
    HB = bosonize(Hg)
    assert HB.dim == 16
    assert check_axioms(HB, "plain")["all_ok"]
    SB = solve_antipode(HB)
    assert SB is not None
    formula = bosonization_antipode_formula(Hg, S)
    assert all(SB[j] == formula[j] for j in range(HB.dim))


def _trivially_graded_c3():
    G = FinAbGroup.of(2)
    F = FiniteGroup.cyclic(3)
    return dataclasses.replace(StructBialgebra.group_algebra(F.table, F.identity, conductor=2),
                               grading=(G.identity(),) * 3, group=G,
                               beta=Bicharacter(G, [[R01_HALF]]))


def test_bosonize_trivial_grading_is_tensor_product():
    # trivial grading: the twist never fires, so the smash multiplication
    # is componentwise with the group algebra
    HB = bosonize(_trivially_graded_c3())
    assert HB.dim == 6
    assert check_axioms(HB, "plain")["all_ok"]
    for i in range(3):
        for j in range(3):
            for gi in range(2):
                for gj in range(2):
                    cell = HB.mult[i * 2 + gi][j * 2 + gj]
                    assert cell == ((((i + j) % 3) * 2 + (gi + gj) % 2,
                                     HB.one()),)


def test_antipode_unique_both_sides():
    mp = cases.squaring_matched_pair()
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    S = solve_antipode(H)
    # solve_antipode verifies both one-sided laws internally; re-verify one:
    # (S * id)(e_i) == epsilon(e_i) 1
    from chroma.hopfcheck import _as_cyclo, _combo_terms, _convolve, _term_tables
    N = H.conductor
    mult, comult, *_ = _term_tables(H)
    cols = [_combo_terms(col.items(), N) for col in S]
    identity = [((i, 0, 1),) for i in range(H.dim)]
    left = _convolve(cols, identity, mult, comult, N)
    assert all(_as_cyclo(left[i], N) == combination((H.unit, H.counit[i]))
               for i in range(H.dim))


def test_term_tables_built_once_per_structure():
    from chroma.hopfcheck import _term_tables
    H = cases.klein_group_algebra()
    tables = _term_tables(H)
    assert check_axioms(H)["all_ok"] and solve_antipode(H) is not None
    assert _term_tables(H) is tables
    # a copy with a changed field builds its own
    mutant = dataclasses.replace(H, counit=[c + c for c in H.counit])
    assert _term_tables(mutant) is not tables
    assert not check_axioms(mutant)["all_ok"]


def test_is_bialgebra_morphism_detects_failure():
    H = cyclic_group_algebra(3)
    good = (0, 2, 1)  # inversion automorphism of C3
    assert is_bialgebra_morphism(H, [{good[j]: Cyclo.one(1)} for j in range(3)])
    bad = (1, 0, 2)  # not a group automorphism
    assert not is_bialgebra_morphism(H, [{bad[j]: Cyclo.one(1)} for j in range(3)])


def test_term_column_is_the_embedded_root_as_one_term():
    # at N = 14, deg Phi_14 = 6: zeta^10 and zeta^7 have several power-basis terms
    m = MonomialMatrix((2, 0, 1), (Rational01(5, 7), R01_ZERO, Rational01(1, 2)))
    for j in range(3):
        column = [(m.perm[j], Cyclo.embed(m.scal[j], 14))]
        assert m.term_column(j, 14) == _combo_terms(column, 14)
    assert m.term_column(0, 14) == ((2, 10, 1),)


def test_lift_cyclo():
    c = Cyclo.embed(Rational01(1, 3), 3)
    lifted = lift_cyclo(c, 12)
    assert lifted == Cyclo.embed(Rational01(1, 3), 12)
    with pytest.raises(ValueError):
        lift_cyclo(c, 4)


def test_lifted_lifts_each_coefficient_object_once(monkeypatch):
    """One ``lift_cyclo`` call per distinct coefficient object, and the
    tables of lifting every coefficient on its own."""
    mp = cases.squaring_matched_pair()
    sigma = SigmaCocycle.trivial(mp).mutated(1, 1, 2, Rational01(1, 7))
    H = build_bicrossed(mp, sigma, TauCocycle.trivial(mp))
    objects = {id(c) for c in cases.coefficients(H)}
    calls = []
    monkeypatch.setattr(hopfcheck, "lift_cyclo",
                        lambda c, M: calls.append(id(c)) or lift_cyclo(c, M))
    Hc = H.lifted(21)
    assert sorted(calls) == sorted(objects) and len(calls) == 3
    lift = functools.partial(lift_cyclo, M=21)
    assert Hc.conductor == 21
    assert Hc.mult == [[tuple((k, lift(c)) for k, c in cell) for cell in row] for row in H.mult]
    assert Hc.comult == [tuple((j, k, lift(c)) for j, k, c in entry) for entry in H.comult]
    assert Hc.unit == {k: lift(c) for k, c in H.unit.items()}
    assert Hc.counit == [lift(c) for c in H.counit]


def test_struct_bialgebra_json_round_trip():
    G, beta, H, gens = cases.c4_color_group_case()
    action = action_from_generator_images(G, gens)
    Hg = grade_by_action(H, action, G, beta)
    data = Hg.to_json()
    back = StructBialgebra.from_json(data)
    assert back.dim == Hg.dim and back.conductor == Hg.conductor
    assert check_axioms(back, "color")["all_ok"]


def _remainder_mod_phi(coeffs: list, N: int) -> list:
    """Long division by Phi_N over Fraction: the remainder's coefficients,
    padded to deg Phi_N (an oracle that shares no code with ``Cyclo``)."""
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    rem = [Fraction(c) for c in coeffs] + [Fraction(0)] * max(0, deg - len(coeffs))
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        for j, pj in enumerate(phi):
            rem[i - deg + j] -= c * pj
    return rem[:deg]


def _with_counit(N: int, vectors: list) -> dict:
    """The JSON of C_n's group algebra at conductor N, n = len(vectors),
    with ``vectors`` as its counit."""
    F = FiniteGroup.cyclic(len(vectors))
    data = StructBialgebra.group_algebra(F.table, F.identity, conductor=N).to_json()
    data["counit"] = vectors
    return data


@pytest.mark.parametrize("N", [1, 3, 12, 21])
def test_from_json_coefficients_match_fraction_oracle(N):
    """Every coefficient vector parses to the element that Fraction long
    division by Phi_N gives, and to the Cyclo of the same Fractions."""
    rng = random.Random(f"from_json:{N}")
    deg = len(cyclotomic_polynomial(N)) - 1

    def text(f: Fraction) -> str:
        # "p/q" scaled by k = 1..3, so non-reduced forms such as "2/4" and
        # "-3/6" occur, or a bare integer
        if f.denominator == 1 and rng.random() < 0.5:
            return str(f.numerator)
        k = rng.randrange(1, 4)
        return f"{f.numerator * k}/{f.denominator * k}"

    vectors = [[], ["2/4"], ["-3/6", "0", "7"], ["0"] * (deg + 3), ["1"] * (2 * deg + 1)]
    for length in (1, deg - 1, deg, deg + 1, 2 * deg + 5, N + 3):
        vectors.append([text(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)))
                        for _ in range(max(length, 0))])
    vectors += vectors  # repeats reach the per-call memo
    H = StructBialgebra.from_json(_with_counit(N, vectors))
    for vec, c in zip(vectors, H.counit):
        fracs = [Fraction(s) for s in vec]
        assert c == Cyclo(N, fracs)
        assert c.N == N and list(c.coeffs) == _remainder_mod_phi(fracs, N)
        assert c.den > 0 and math.gcd(c.den, *c.nums) == 1


def test_from_json_calls_share_no_coefficient():
    """The same strings parse afresh under each conductor: deg Phi_N is 2
    for N = 3, 4 and 6, so a shared entry would carry the wrong N."""
    vectors = [["1", "1"], ["1/2", "-1"], ["0", "0", "1"]]
    for N in (3, 4, 6, 3):
        H = StructBialgebra.from_json(_with_counit(N, vectors))
        for vec, c in zip(vectors, H.counit):
            assert c.N == N
            assert list(c.coeffs) == _remainder_mod_phi(vec, N)


# ---------------------------------------------------------------------------
# exact outputs of paths no benchmark job reaches
# ---------------------------------------------------------------------------

def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _graded(G, beta, H, gens):
    return grade_by_action(H, action_from_generator_images(G, gens), G, beta)


# sha256 of grade_by_action(...).to_json() and of the sorted color-antipode
# columns (None: the braided antipode laws fail and solve_antipode raises).
# Any change to a coefficient, a basis order or a table order shows here.
GRADED_DIGESTS = {
    "c4": ("113444afaa7f3e9d7e383f6c010b66504a66c77d5a2067fba9d6c054ab17558d",
           "e20eca06942c3ffa19182d9a728f52ec1ad3834ee169c4887f34e36686bce858"),
    "c2c4": ("9f20eb772165f6ae8bb13c67b18b09c5ecf2de86d05fa1943238bc8ceb76a933",
             "e20eca06942c3ffa19182d9a728f52ec1ad3834ee169c4887f34e36686bce858"),
    "klein-trivial": ("d435ffbc403e033c029d213b6ea57fc78056405d9e0ddc04952d5bbf3c74d6b8",
                      "5fd067328f77d75908ccaed4419f98a479fefc4919e6522973ffe3a4eba9ee4c"),
    "klein-super": ("20ba72d3797fa729249e76cbbbeff6128ccfd1cc858ad6ea89657e6337ac4aa5",
                    None),
}


@pytest.mark.parametrize("name, build", [
    ("c4", lambda: _graded(*cases.c4_color_group_case())),
    ("c2c4", lambda: _graded(*cases.c2c4_color_group_case())),
    ("klein-trivial", lambda: swap_graded_group_algebra(Bicharacter.trivial(FinAbGroup.of(2)))),
    ("klein-super", lambda: swap_graded_group_algebra(Bicharacter(FinAbGroup.of(2), [[R01_HALF]]))),
])
def test_graded_structure_and_color_antipode_digests(name, build):
    Hg = build()
    graded, antipode = GRADED_DIGESTS[name]
    assert _sha256(Hg.to_json()) == graded
    if antipode is None:
        with pytest.raises(AssertionError):
            solve_antipode(Hg, "color")
        return
    S = solve_antipode(Hg, "color")
    columns = [[[k, [str(f) for f in c.coeffs]] for k, c in sorted(col.items())]
               for col in S]
    assert _sha256(columns) == antipode


# ---------------------------------------------------------------------------
# the elimination kernel on seeded sparse matrices over Q(zeta_N)
# ---------------------------------------------------------------------------

def random_columns(rng: random.Random, N: int, rows: int, cols: int) -> list[dict]:
    deg = len(cyclotomic_polynomial(N)) - 1
    out = []
    for _ in range(cols):
        col = {}
        for i in range(rows):
            if rng.random() < 0.6:
                c = Cyclo(N, [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
                              for _ in range(deg)])
                if not c.is_zero():
                    col[i] = c
        out.append(col)
    return out


def combination(*scaled) -> dict:
    """sum of factor * column over the (column, factor) pairs."""
    acc: dict = {}
    for col, factor in scaled:
        lc_add_scaled(acc, col.items(), factor)
    return acc


@pytest.mark.parametrize("N", [1, 3, 12, 21])
def test_invert_columns_and_rank(N):
    """Echelon's tags invert a full-rank set of columns: the row with pivot
    k holds column k of the inverse, as ``grade_by_action`` reads it; a
    column in the span of earlier ones comes back as its dependency."""
    rng = random.Random(f"echelon:{N}")
    n = 5
    one = Cyclo.one(N)
    # a sparse draw can be singular: take the first of 20 draws of full rank
    A = next(A for A in (random_columns(rng, N, n, n) for _ in range(20))
             if matrix_rank(A) == n)
    echelon = Echelon()
    assert all(echelon.add(col, {j: one}) is None for j, col in enumerate(A))
    inv = [tags for _, _, tags in sorted(echelon.rows, key=lambda row: row[0])]
    for j in range(n):
        # inv A e_j = e_j and A inv e_j = e_j
        assert combination(*((inv[i], c) for i, c in A[j].items())) == {j: one}
        assert combination(*((A[i], c) for i, c in inv[j].items())) == {j: one}
    a, b, c = A[:3]
    w = random_columns(rng, N, 1, 1)[0].get(0, one)
    assert matrix_rank([a, b, c, b]) == 3                      # a repeated column
    assert matrix_rank([a, b, combination((a, one), (b, w)), c]) == 3
    assert matrix_rank([{}, a, a]) == 1
    assert matrix_rank([]) == 0
    singular = A[:-1] + [combination((A[0], w), (A[2], -one))]
    assert matrix_rank(singular) == n - 1
    echelon = Echelon()
    *kept, dependency = [echelon.add(col, {j: one}) for j, col in enumerate(singular)]
    assert kept == [None] * (n - 1) and len(echelon.rows) == n - 1
    assert dependency and combination(*((singular[i], c) for i, c in dependency.items())) == {}


@pytest.mark.parametrize("N", [1, 3, 12, 21])
def test_matrix_rank_matches_sympy(N):
    """The rank over Q(zeta_N) times deg Phi_N is the rational rank of the
    matrix with each entry replaced by its multiplication matrix."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(N, x), x)
    deg = phi.degree()

    def mult_block(c: Cyclo) -> list[list]:
        p = sympy.Poly(sum(sympy.Rational(f.numerator, f.denominator) * x ** k
                           for k, f in enumerate(c.coeffs)), x)
        cols = []
        for k in range(deg):
            r = (p * sympy.Poly(x ** k, x)).rem(phi).all_coeffs()[::-1]
            cols.append(r + [0] * (deg - len(r)))
        return [[cols[k][i] for k in range(deg)] for i in range(deg)]

    rng = random.Random(f"echelon-sympy:{N}")
    rows = 4
    one = Cyclo.one(N)
    zero_block = [[0] * deg for _ in range(deg)]
    for cols in (random_columns(rng, N, rows, 3), random_columns(rng, N, rows, 5)):
        w = random_columns(rng, N, 1, 1)[0].get(0, one)
        cols = cols + [combination((cols[0], w), (cols[1], one))]
        M = sympy.Matrix.vstack(*(
            sympy.Matrix.hstack(*(sympy.Matrix(mult_block(col[i]) if i in col else zero_block)
                                  for col in cols))
            for i in range(rows)))
        assert DomainMatrix.from_Matrix(M).to_field().rank() == deg * matrix_rank(cols)


# ---------------------------------------------------------------------------
# exact verdicts of the axiom sweep and the morphism test
# ---------------------------------------------------------------------------

def _c3_dihedral_bicrossed():
    """L = C3, Gamma = C2 acting by inversion: dim 6, conductor 1."""
    L, Gamma = FiniteGroup.cyclic(3), FiniteGroup.cyclic(2)
    mp = MatchedPair(L, Gamma, [[(l * (-1) ** g) % 3 for g in range(2)] for l in range(3)],
                     [[g for g in range(2)] for _ in range(3)])
    return build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))


def _ring_family_bicrossed(family):
    fam = family()
    return build_bicrossed(fam.mp, fam.sigma, TauCocycle.trivial(fam.mp),
                           fam.z, fam.group, fam.beta)


def _klein_super():
    return swap_graded_group_algebra(Bicharacter(FinAbGroup.of(2), [[R01_HALF]]))


def _c4_graded():
    return _graded(*cases.c4_color_group_case())


SWEEP_STRUCTURES = {
    "n1-bicrossed": (_c3_dihedral_bicrossed, "plain"),
    "n2-klein-super-plain": (_klein_super, "plain"),
    "n2-klein-super-color": (_klein_super, "color"),
    "n3-ring-color": (lambda: _ring_family_bicrossed(cases.mod3_ring_family), "color"),
    "n5-ring-color": (lambda: _ring_family_bicrossed(cases.mod5_ring_family), "color"),
    "n12-bicrossed": (lambda: _c3_dihedral_bicrossed().lifted(12), "plain"),
    "n12-c4-graded-color": (lambda: _c4_graded().lifted(12), "color"),
    "n21-c3-group-algebra": (lambda: cyclic_group_algebra(3).lifted(21), "plain"),
}


def _random_coefficient(rng: random.Random, N: int) -> Cyclo:
    """A nonzero element of Q(zeta_N): a root of unity, a rational multiple
    of one, or a dense element."""
    kind = rng.randrange(3)
    root = Cyclo.embed(Rational01(rng.randrange(N), N), N)
    if kind == 0:
        return root
    if kind == 1:
        return root.scale(Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.randrange(1, 4)))
    deg = len(cyclotomic_polynomial(N)) - 1
    c = Cyclo(N, [Fraction(rng.randrange(-2, 3), rng.randrange(1, 3)) for _ in range(deg)])
    return c if not c.is_zero() else root


def _mutated_terms(rng: random.Random, terms: list, width: int, dim: int, N: int) -> list:
    """Change one coefficient or index of ``terms`` (index tuples of length
    ``width`` followed by a Cyclo), or add a term; no index tuple repeats."""
    terms = list(terms)
    used = {t[:width] for t in terms}
    fresh = [k for k in itertools.product(range(dim), repeat=width) if k not in used]
    move = rng.randrange(3) if terms else 2
    if move == 0:
        p = rng.randrange(len(terms))
        terms[p] = terms[p][:width] + (_random_coefficient(rng, N),)
    elif move == 1 and fresh:
        p = rng.randrange(len(terms))
        terms[p] = rng.choice(fresh) + terms[p][width:]
    elif fresh:
        terms.append(rng.choice(fresh) + (_random_coefficient(rng, N),))
    return terms


def _mutant(H: StructBialgebra, rng: random.Random) -> StructBialgebra:
    """A copy of H with one entry of one table changed."""
    N, n = H.conductor, H.dim
    table = rng.choice(["mult", "mult", "comult", "unit", "counit"])
    if table == "mult":
        i, j = rng.randrange(n), rng.randrange(n)
        mult = [list(row) for row in H.mult]
        mult[i][j] = tuple(_mutated_terms(rng, H.mult[i][j], 1, n, N))
        return dataclasses.replace(H, mult=mult)
    if table == "comult":
        i = rng.randrange(n)
        comult = list(H.comult)
        comult[i] = tuple(_mutated_terms(rng, H.comult[i], 2, n, N))
        return dataclasses.replace(H, comult=comult)
    if table == "unit":
        unit = dict(_mutated_terms(rng, sorted(H.unit.items()), 1, n, N))
        return dataclasses.replace(H, unit=unit)
    counit = list(H.counit)
    counit[rng.randrange(n)] = _random_coefficient(rng, N)
    return dataclasses.replace(H, counit=counit)


def _power_map(n: int, k: int, N: int) -> list[dict]:
    """Columns of e_j -> e_(kj) on the group algebra of C_n."""
    return [{k * j % n: Cyclo.one(N)} for j in range(n)]


def _with_identity(H: StructBialgebra) -> tuple:
    return H, [{j: H.one()} for j in range(H.dim)]


MORPHISM_CASES = {
    "n1-c5-power": lambda: (cyclic_group_algebra(5), _power_map(5, 2, 1)),
    "n1-bicrossed": lambda: _with_identity(_c3_dihedral_bicrossed()),
    "n2-klein-super": lambda: _with_identity(_klein_super()),
    "n3-ring": lambda: _with_identity(_ring_family_bicrossed(cases.mod3_ring_family)),
    "n5-c5-power": lambda: (cyclic_group_algebra(5).lifted(5), _power_map(5, 3, 5)),
    "n12-c6-power": lambda: (cyclic_group_algebra(6).lifted(12), _power_map(6, 5, 12)),
    "n21-c3-power": lambda: (cyclic_group_algebra(3).lifted(21), _power_map(3, 2, 21)),
}


def _perturbed(rng: random.Random, columns: list[dict], N: int) -> list[dict]:
    """``columns`` with one column scaled, swapped or extended, or with every
    column j scaled by zeta_N^(jm)."""
    columns = [dict(col) for col in columns]
    n = len(columns)
    j = rng.randrange(n)
    move = rng.randrange(4)
    if move == 0:
        c = _random_coefficient(rng, N)
        columns[j] = {k: v * c for k, v in columns[j].items()}
    elif move == 1:
        i = rng.randrange(n)
        columns[i], columns[j] = columns[j], columns[i]
    elif move == 2:
        k = rng.randrange(n)
        v = columns[j].get(k, Cyclo.zero(N)) + _random_coefficient(rng, N)
        if v.is_zero():
            columns[j].pop(k, None)
        else:
            columns[j][k] = v
    else:
        m = rng.randrange(1, N) if N > 1 else 0
        columns = [{k: v * Cyclo.embed(Rational01(i * m, N), N) for k, v in col.items()}
                   for i, col in enumerate(columns)]
    return columns


# sha256 of the check_axioms reports of eight seeded single-entry mutants,
# counterexamples included, and of the is_bialgebra_morphism verdicts on a
# map and ten seeded perturbations of it.
SWEEP_DIGESTS = {
    "n1-bicrossed":
        "eb9efe236431930a5285af646c0dd17e6d2b3e17b95d121ff756ca5cf6c2ae2d",
    "n12-bicrossed":
        "f53417487998f4ae065a25b04886427eb01b548ba2d4be69936acca380e5448c",
    "n12-c4-graded-color":
        "9c71005b3208b6b8a01eddb8a58de1389d543b1c9b62163db4a45add8745ddee",
    "n2-klein-super-color":
        "062eff81631af967dc340924271d759bdadeb4a8bcf637dc5ed96404c6a08a53",
    "n2-klein-super-plain":
        "324445e75cce9c414e823bc80a64f68f0e93246f53e60d8a34d01c1bda644100",
    "n21-c3-group-algebra":
        "9417d6090f43a21fa01c30194a09d6af37b067b0e6adeb4a7913d733088bec44",
    "n3-ring-color":
        "faa38b7dd9e5215fd8bd00e5bbf7f5c5f8f69f16eef4e30d5d0d42de323571df",
    "n5-ring-color":
        "d1f38285e32013a07b9ae3eec8255005be3899cd2877d893d5d40c92fe55451d",
}
MORPHISM_DIGESTS = {
    "n1-bicrossed":
        "a56c2f8fadbe6c33d3bb172211d1fa85b4665df4877ac69aa81490c35a7cb0d0",
    "n1-c5-power":
        "4f2f32fd2d55144591ba4971941cb18deb0b3c38971a39c16ea896b4666d1b6e",
    "n12-c6-power":
        "fc6b65811278cfd9e7cd94b9cde8c48278878b84ae12fc329be0b0fa4e7c36f4",
    "n2-klein-super":
        "7138c55e8dc2a1178b6418907fd46b9f6aed5998fb43283fc538c22984b39b02",
    "n21-c3-power":
        "0d99f9cdaf48b7ac6ab25ad17146e2002ea425d720acd8251748be63622fc5bf",
    "n3-ring":
        "3734e8a8c3cad75ee3bab9e21fc44d8c231c9b4e495ecfbdacc65e266124f6ea",
    "n5-c5-power":
        "fc6b65811278cfd9e7cd94b9cde8c48278878b84ae12fc329be0b0fa4e7c36f4",
}


@pytest.mark.parametrize("name", sorted(SWEEP_STRUCTURES))
def test_check_axioms_mutant_reports_pinned(name):
    build, mode = SWEEP_STRUCTURES[name]
    H = build()
    rng = random.Random(f"sweep:{name}")
    reports = [check_axioms(H, mode)] + [check_axioms(_mutant(H, rng), mode)
                                         for _ in range(8)]
    assert reports[0]["all_ok"] == (name != "n2-klein-super-color")
    assert _sha256(reports) == SWEEP_DIGESTS[name]


def _regraded(H: StructBialgebra, kind: str) -> StructBialgebra:
    """A copy of the graded H aimed at one kind of grading violation: the
    degree of basis element 1 shifted ("mult"), the degrees of the last two
    basis elements swapped ("comult"), or the counit ("counit") or both the
    unit and the counit ("unit", which is checked first) moved onto the
    first basis element of nontrivial degree.  Unit and counit need the
    move: on these structures every grading of the (co)multiplication puts
    them in degree 1."""
    deg = list(H.grading)
    if kind == "mult":
        deg[1] = deg[1] * H.group.generator(0)
        return dataclasses.replace(H, grading=tuple(deg))
    if kind == "comult":
        deg[-2], deg[-1] = deg[-1], deg[-2]
        return dataclasses.replace(H, grading=tuple(deg))
    j = next(i for i, g in enumerate(deg) if not g.is_identity())
    counit = list(H.counit)
    counit[j] = H.one()
    if kind == "unit":
        return dataclasses.replace(H, unit={j: H.one()}, counit=counit)
    return dataclasses.replace(H, counit=counit)


# the first grading violation of each re-graded copy, by (structure, aim)
GRADING_COUNTEREXAMPLES = {
    ("n12-c4-graded-color", "mult"): ("mult", 1, 1, 0),
    ("n12-c4-graded-color", "comult"): ("comult", 2, 2, 2),
    ("n12-c4-graded-color", "unit"): ("unit", 3),
    ("n12-c4-graded-color", "counit"): ("counit", 3),
    ("n2-klein-super-color", "mult"): ("mult", 1, 2, 2),
    ("n2-klein-super-color", "comult"): ("comult", 2, 2, 2),
    ("n2-klein-super-color", "unit"): ("unit", 3),
    ("n2-klein-super-color", "counit"): ("counit", 3),
    ("n2-klein-super-plain", "mult"): ("mult", 1, 2, 2),
    ("n2-klein-super-plain", "comult"): ("comult", 2, 2, 2),
    ("n2-klein-super-plain", "unit"): ("unit", 3),
    ("n2-klein-super-plain", "counit"): ("counit", 3),
    ("n3-ring-color", "mult"): ("mult", 1, 1, 0),
    ("n3-ring-color", "comult"): ("mult", 3, 4, 3),
    ("n3-ring-color", "unit"): ("unit", 3),
    ("n3-ring-color", "counit"): ("counit", 3),
    ("n5-ring-color", "mult"): ("mult", 1, 1, 2),
    ("n5-ring-color", "comult"): ("mult", 6, 18, 4),
    ("n5-ring-color", "unit"): ("unit", 5),
    ("n5-ring-color", "counit"): ("counit", 5),
}


def test_grading_counterexamples_pinned():
    built = {name: (build(), mode) for name, (build, mode) in SWEEP_STRUCTURES.items()}
    assert {name for name, _ in GRADING_COUNTEREXAMPLES} == {
        name for name, (H, _) in built.items() if H.grading is not None}
    for (name, kind), expected in GRADING_COUNTEREXAMPLES.items():
        H, mode = built[name]
        report = check_axioms(_regraded(H, kind), mode)
        assert report["grading"] == {"ok": False, "counterexample": expected}, (name, kind)
    assert {ce[0] for ce in GRADING_COUNTEREXAMPLES.values()} == {
        "mult", "comult", "unit", "counit"}


@pytest.mark.parametrize("name", sorted(MORPHISM_CASES))
def test_is_bialgebra_morphism_verdicts_pinned(name):
    H, columns = MORPHISM_CASES[name]()
    rng = random.Random(f"morphism:{name}")
    verdicts = [is_bialgebra_morphism(H, columns)] + [
        is_bialgebra_morphism(H, _perturbed(rng, columns, H.conductor))
        for _ in range(10)]
    assert verdicts[0]
    assert _sha256(verdicts) == MORPHISM_DIGESTS[name]


def _color_antipode_laws(H: StructBialgebra, S: list[dict]) -> tuple:
    """S(e_i e_j) == beta(|i|, |j|) S(e_j) S(e_i) for all i, j, and
    Delta(S(e_i)) == sum c beta(|j|, |k|) S(e_k) (x) S(e_j) over the terms
    c e_j (x) e_k of Delta(e_i) for all i, in Cyclo arithmetic."""
    deg, n = H.grading, H.dim

    def root(g, h):
        return Cyclo.embed(H.beta.eval(g, h), H.conductor)

    def product(x, y):
        return combination(*((dict(H.mult[i][j]), a * b)
                             for i, a in x.items() for j, b in y.items()))

    def coproduct(x):
        return combination(*(({(j, k): c for j, k, c in H.comult[i]}, a)
                             for i, a in x.items()))

    def tensor(x, y):
        return {(p, q): a * b for p, a in x.items() for q, b in y.items()}

    anti_multiplicative = all(
        combination(*((S[k], c) for k, c in H.mult[i][j]))
        == combination((product(S[j], S[i]), root(deg[i], deg[j])))
        for i in range(n) for j in range(n))
    braided_comultiplicative = all(
        coproduct(S[i]) == combination(*((tensor(S[k], S[j]), c * root(deg[j], deg[k]))
                                         for j, k, c in H.comult[i]))
        for i in range(n))
    return anti_multiplicative, braided_comultiplicative


# sha256 of the verify_color_antipode verdicts on the antipode of each color
# structure of SWEEP_STRUCTURES (its plain antipode: the braided laws fail on
# the Klein super case), ten seeded perturbations of it, and the antipode
# with one column negated, for each column.
COLOR_ANTIPODE_DIGESTS = {
    "n12-c4-graded-color":
        "ac90b4fe31c20495220ad17b84e39bb231ef6b801092e4abba1c4664549e64f2",
    "n2-klein-super-color":
        "936e82b4c07cd448209b144acc9effe78dfff3fa121f8da0baf8515226bfd493",
    "n3-ring-color":
        "4efa6f43f8b4b4781f430ab6ad7b30de92a99258300e93327883fb57d16bd539",
    "n5-ring-color":
        "d4ff993aa6c7943ac3fe2dd43c8c1f2746c96fc2ab7dc4a453a5b159b5f9d2a3",
}
# structures on which negating one antipode column keeps the first law and
# breaks only the braided coproduct law (a character of the degree, by
# contrast, keeps both: it is a bialgebra automorphism)
COPRODUCT_LAW_ALONE_FAILS = {"n12-c4-graded-color", "n3-ring-color"}


@pytest.mark.parametrize("name", sorted(name for name, (_, mode) in SWEEP_STRUCTURES.items()
                                        if mode == "color"))
def test_verify_color_antipode_verdicts_pinned(name):
    H = SWEEP_STRUCTURES[name][0]()
    S = solve_antipode(H)
    rng = random.Random(f"color-antipode:{name}")
    candidates = [S] + [_perturbed(rng, S, H.conductor) for _ in range(10)] + [
        [{k: -c for k, c in col.items()} if i == j else col for i, col in enumerate(S)]
        for j in range(H.dim)]
    laws = [_color_antipode_laws(H, T) for T in candidates]
    verdicts = [verify_color_antipode(H, T) for T in candidates]
    assert verdicts == [all(pair) for pair in laws]
    assert verdicts[0] == (name != "n2-klein-super-color")
    assert ((True, False) in laws) == (name in COPRODUCT_LAW_ALONE_FAILS)
    assert _sha256(verdicts) == COLOR_ANTIPODE_DIGESTS[name]


def test_braided_laws_keep_the_order_of_the_factors():
    """Trivially graded, the laws read S(xy) = S(y) S(x) and
    Delta(S(x)) = S(x_2) (x) S(x_1).  The mixed C12/C3 bicrossed product is
    neither commutative nor cocommutative, so the antipode satisfies both
    and the identity map neither; with the order of the factors swapped in
    a law, the verdicts would flip."""
    G = FinAbGroup.of()
    mp = cases.mixed_c12_matched_pair()
    H = dataclasses.replace(
        build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)),
        grading=(G.identity(),) * 36, group=G, beta=Bicharacter.trivial(G))
    S = solve_antipode(H, "color")
    identity = [{j: H.one()} for j in range(H.dim)]
    assert verify_color_antipode(H, S) and _color_antipode_laws(H, S) == (True, True)
    assert not verify_color_antipode(H, identity)
    assert _color_antipode_laws(H, identity) == (False, False)


# ---------------------------------------------------------------------------
# the exponent-term kernel against Cyclo arithmetic
# ---------------------------------------------------------------------------

def _cyclo_sum(terms, N: int) -> Cyclo:
    """sum of r zeta_N^e over the (e, r) pairs, in Cyclo arithmetic."""
    total = Cyclo.zero(N)
    for e, r in terms:
        total = total + Cyclo.embed(Rational01(e, N), N).scale(r)
    return total


NAMED_SUMS = {
    1: [[], [(0, 1), (0, -1)], [(0, 2)], [(0, Fraction(1, 2)), (0, Fraction(-1, 3))]],
    2: [[(0, 1), (1, 1)], [(0, 1), (1, 2)], [(0, 1), (1, -1)], [(1, 2), (0, 2)]],
    3: [[(0, 1), (1, 1), (2, 1)], [(0, 1), (1, 1)], [(0, 1), (1, 1), (2, 2)]],
    4: [[(0, 1), (2, 1)], [(1, 1), (3, 1)], [(0, 1), (1, 1), (2, 1), (3, 1)],
        [(0, 1), (1, 1)]],
    12: [[(0, 1), (6, 1)], [(0, 1), (5, 1)], [(0, 1), (6, -1)],
         [(1, 1), (5, 1), (9, 1)], [(1, 1), (5, 1), (9, -1)]],
    21: [[(0, 1), (7, 1), (14, 1)], [(0, 1), (7, 1), (13, 1)],
         [(e, 1) for e in range(0, 21, 3)], [(e, 1) for e in range(1, 21, 3)][:-1]],
}


@pytest.mark.parametrize("N", [1, 2, 3, 4, 12, 21])
def test_exponent_zero_test_matches_cyclo(N):
    """_nonzero_keys on exponent sums agrees with Cyclo.is_zero, key by key."""
    rng = random.Random(f"zero-test:{N}")
    primes = [p for p in range(2, N + 1) if N % p == 0 and all(p % q for q in range(2, p))]
    sums = list(NAMED_SUMS[N])
    for _ in range(40):
        # coset sums sum_t zeta^(a + tN/p) vanish; one extra term may not
        terms = []
        for p in primes:
            for _ in range(rng.randrange(3)):
                a, r = rng.randrange(N), Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                terms += [((a + t * N // p) % N, r) for t in range(p)]
        if rng.random() < 0.5:
            terms.append((rng.randrange(N), Fraction(rng.choice([-1, 1]), rng.randrange(1, 3))))
        rng.shuffle(terms)
        sums.append(terms)
    acc: dict = {}
    for key, terms in enumerate(sums):
        single: dict = {}
        for e, r in terms:
            single[key, e] = single.get((key, e), 0) + r
            acc[key, e] = acc.get((key, e), 0) + r
        assert (not _nonzero_keys(single, N)) == _cyclo_sum(terms, N).is_zero(), terms
    assert sorted(_nonzero_keys(acc, N)) == [
        key for key, terms in enumerate(sums) if not _cyclo_sum(terms, N).is_zero()]
    assert {_cyclo_sum(terms, N).is_zero() for terms in sums} == {True, False}


# N = 30, 64 and 105 have N - deg Phi_N large: most roots zeta^k have k >= deg
@pytest.mark.parametrize("N", [1, 2, 3, 4, 12, 21, 30, 64, 105])
def test_terms_sum_back_to_the_coefficient(N):
    rng = random.Random(f"terms:{N}")
    for k in range(N):
        assert _terms(Cyclo.embed(Rational01(k, N), N), N) == ((k, 1),)
    assert _terms(Cyclo.zero(N), N) == ()
    for _ in range(20):
        c = _random_coefficient(rng, N)
        assert _cyclo_sum(_terms(c, N), N) == c
    with pytest.raises(ValueError):
        _terms(Cyclo.one(N), 2 * N)


# ---------------------------------------------------------------------------
# the antipode's exponent and Krylov paths, and the generator sweep
# ---------------------------------------------------------------------------

def _trivial_bicrossed(mp):
    return build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))


def _c5c4_bicrossed():
    """L = C5, Gamma = C4 acting by multiplication with 2: dim 20, conductor 1."""
    return _trivial_bicrossed(cases.multiplying_matched_pair(5, 4, 2))


# every structure the tests build that has an antipode to compare, with
# its mode; the ones without a finite exponent up to dim H take the
# Krylov path
ANTIPODE_STRUCTURES = {
    **SWEEP_STRUCTURES,
    "c3-group-algebra": (lambda: cyclic_group_algebra(3), "plain"),
    "c5-group-algebra-n5": (lambda: cyclic_group_algebra(5).lifted(5), "plain"),
    "klein-group-algebra": (cases.klein_group_algebra, "plain"),
    "c5c4-bicrossed": (_c5c4_bicrossed, "plain"),
    "c7c3-bicrossed": (lambda: _trivial_bicrossed(cases.squaring_matched_pair()), "plain"),
    "c12c3-bicrossed": (lambda: _trivial_bicrossed(cases.mixed_c12_matched_pair()), "plain"),
    "c4-graded": (_c4_graded, "color"),
    "c2c4-graded": (lambda: _graded(*cases.c2c4_color_group_case()), "color"),
    "klein-trivial": (lambda: swap_graded_group_algebra(Bicharacter.trivial(FinAbGroup.of(2))),
                      "color"),
    "c4-graded-bosonized": (lambda: bosonize(_c4_graded()), "plain"),
    "c3-trivially-graded-bosonized": (lambda: bosonize(_trivially_graded_c3()), "plain"),
    "idempotent": (_idempotent_bialgebra, "plain"),
    "sweedler": (cases.sweedler_h4, "plain"),
    "quantum-plane": (cases.color_quantum_plane, "color"),
    "rank3-quantum-space": (cases.rank3_color_quantum_space, "color"),
}
NO_FINITE_EXPONENT = {"idempotent", "sweedler", "quantum-plane", "rank3-quantum-space"}


def _spy(monkeypatch, owner, name: str) -> list:
    """The list to which every later call of owner.name appends its arguments."""
    real = getattr(owner, name)
    calls: list = []
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _antipode_outcome(H: StructBialgebra, mode: str):
    try:
        S = solve_antipode(H, mode)
    except AssertionError:
        return "braided laws fail"
    return None if S is None else [sorted(col.items()) for col in S]


@pytest.mark.parametrize("name", sorted(ANTIPODE_STRUCTURES))
def test_exponent_and_krylov_paths_give_the_same_antipode(name, monkeypatch):
    """The exponent path is the squared candidate id^{*(dim H - 1)}, which is
    S when exp H divides dim H; with it removed, Krylov finds the same S."""
    build, mode = ANTIPODE_STRUCTURES[name]
    calls = _spy(monkeypatch, hopfcheck, "_krylov_inverse")
    outcome = _antipode_outcome(build(), mode)
    assert bool(calls) == (name in NO_FINITE_EXPONENT)
    assert (outcome is None) == (name == "idempotent")
    monkeypatch.setattr(hopfcheck, "_inverse_by_squaring", lambda *args: None)
    assert _antipode_outcome(build(), mode) == outcome


def test_sweedler_antipode_by_the_krylov_fallback(monkeypatch):
    H = cases.sweedler_h4()
    assert check_axioms(H)["all_ok"]
    calls = _spy(monkeypatch, Echelon, "add")
    S = solve_antipode(H)
    # id^{*0}, id and id^{*2} are independent; id^{*3} closes the relation
    assert len(calls) == 4
    one = H.one()
    # S(1) = 1, S(g) = g, S(x) = -gx, S(gx) = x
    assert S == [{0: one}, {1: one}, {3: -one}, {2: one}]


@pytest.mark.parametrize("N", [1, 2, 7, 12])
def test_one_dimensional_antipode_takes_the_exponent_path(N, monkeypatch):
    """On H = k, id = eta epsilon: the exponent is 1, the squared candidate
    is id^{*0}, and no elimination runs."""
    H = cyclic_group_algebra(1).lifted(N)
    calls = _spy(monkeypatch, Echelon, "add")
    assert solve_antipode(H) == [{0: Cyclo.one(N)}]
    assert not calls


def test_semisimple_antipode_takes_logarithmically_many_convolutions(monkeypatch):
    """On C13 x| C6 (dim 78, exponent 78) id^{*77} is S: six squarings, three
    products with id and the two sides of the check, where a linear search
    would take 78 powers."""
    H = _trivial_bicrossed(cases.multiplying_matched_pair(13, 6, 4))
    assert H.dim == 78
    convolutions = _spy(monkeypatch, hopfcheck, "_convolve")
    krylov = _spy(monkeypatch, hopfcheck, "_krylov_inverse")
    assert solve_antipode(H) is not None
    assert len(convolutions) <= 2 * math.ceil(math.log2(H.dim)) + 2
    assert not krylov


def test_a_pointed_antipode_computes_no_power_beyond_its_relation(monkeypatch):
    """On the 25-dim color quantum plane over C5 x C5, id^{*24} is no inverse,
    and the Krylov relation closes at id^{*9}: fewer convolutions than the
    dim H powers a linear exponent search would take first."""
    G = FinAbGroup.of(5, 5)
    beta = Bicharacter(G, [[Rational01(1, 5), Rational01(1, 5)],
                           [Rational01(4, 5), Rational01(1, 5)]])
    H = cases.color_quantum_linear_space(G, beta, (G.generator(0), G.generator(1)))
    assert H.dim == 25
    convolutions = _spy(monkeypatch, hopfcheck, "_convolve")
    krylov = _spy(monkeypatch, hopfcheck, "_krylov_inverse")
    assert solve_antipode(H, "color") is not None
    assert krylov
    assert len(convolutions) < H.dim


def _gaussian_binomial(n: int, k: int, q: Rational01, N: int) -> Cyclo:
    """[n choose k]_q by Pascal's rule [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k in (0, n):
        return Cyclo.one(N)
    return (_gaussian_binomial(n - 1, k - 1, q, N)
            + Cyclo.embed(q.scale(k), N) * _gaussian_binomial(n - 1, k, q, N))


def test_color_quantum_plane_matches_the_q_binomial_oracle(monkeypatch):
    """x1 and x2 of degrees g1, g2 in C3 x C3, q_ij = beta(g_i, g_j),
    basis x1^a x2^b at index 3a + b:
    x1^a x2^b x1^c x2^d = q21^(bc) x1^(a+c) x2^(b+d),
    Delta(x1^a x2^b) = sum [a, k]_q11 [b, l]_q22 q12^((a-k) l)
                       x1^k x2^l (x) x1^(a-k) x2^(b-l),
    S(x1^a x2^b) = (-1)^(a+b) q11^(a(a-1)/2) q22^(b(b-1)/2) x1^a x2^b."""
    H = cases.color_quantum_plane()
    N = H.conductor
    g = (H.group.generator(0), H.group.generator(1))
    q = [[H.beta.eval(x, y) for y in g] for x in g]
    assert q[0][1] != q[1][0]
    root = functools.partial(Cyclo.embed, N=N)
    monomials = list(itertools.product(range(3), repeat=2))
    for (a, b), (c, d) in itertools.product(monomials, repeat=2):
        expected = () if a + c > 2 or b + d > 2 else (
            (3 * (a + c) + b + d, root(q[1][0].scale(b * c))),)
        assert H.mult[3 * a + b][3 * c + d] == expected
    for a, b in monomials:
        expected = {(3 * k + l, 3 * (a - k) + b - l):
                    _gaussian_binomial(a, k, q[0][0], N) * _gaussian_binomial(b, l, q[1][1], N)
                    * root(q[0][1].scale((a - k) * l))
                    for k in range(a + 1) for l in range(b + 1)}
        assert {(j, k): c for j, k, c in H.comult[3 * a + b]} == expected
    assert check_axioms(H, "color")["all_ok"]
    assert not check_axioms(H, "plain")["coproduct_multiplicative"]["ok"]
    assert not check_flip(H)
    calls = _spy(monkeypatch, hopfcheck, "_krylov_inverse")
    S = solve_antipode(H, "color")
    assert calls
    sign = [H.one(), -H.one()]
    assert S == [{3 * a + b: sign[(a + b) % 2]
                  * root(q[0][0].scale(a * (a - 1) // 2) + q[1][1].scale(b * (b - 1) // 2))}
                 for a, b in monomials]


def _with_cells(H: StructBialgebra, cells: dict) -> StructBialgebra:
    mult = [list(row) for row in H.mult]
    for (i, j), cell in cells.items():
        mult[i][j] = cell
    return dataclasses.replace(H, mult=mult)


def _single_entry_mutants(H: StructBialgebra):
    """Copies of H with one mult cell or one comult entry changed: its first
    coefficient doubled, or its first term moved to another basis index
    (the comult legs swapped where they differ); an empty cell gets e_0.
    Each counit value is also raised by 1, and a graded H gets each basis
    element moved to every other degree."""
    n, one = H.dim, H.one()

    def moved(terms, width):
        head, rest = terms[0], terms[1:]
        used = {t[:width] for t in rest}
        key = head[:width][::-1] if width == 2 and head[0] != head[1] else (
            head[:width - 1] + ((head[width - 1] + 1) % n,))
        return None if key in used else (key + head[width:],) + rest

    for i, j in itertools.product(range(n), repeat=2):
        cell = H.mult[i][j]
        changed = [((cell[0][0], cell[0][1] + cell[0][1]),) + cell[1:], moved(cell, 1)] \
            if cell else [((0, one),)]
        for new in filter(None, changed):
            yield _with_cells(H, {(i, j): new})
    for i, entry in enumerate(H.comult):
        for new in filter(None, [((entry[0][0], entry[0][1], entry[0][2] + entry[0][2]),)
                                 + entry[1:], moved(entry, 2)]):
            comult = list(H.comult)
            comult[i] = new
            yield dataclasses.replace(H, comult=comult)
    for k in range(n):
        yield dataclasses.replace(H, counit=H.counit[:k] + [H.counit[k] + one] + H.counit[k + 1:])
    for k in range(n) if H.grading is not None else ():
        for g in H.group.elements():
            if g != H.grading[k]:
                yield dataclasses.replace(H, grading=H.grading[:k] + (g,) + H.grading[k + 1:])


def _klein_coproduct_twisted_by_swap():
    """k[C2 x C2] with Delta(g) = s(g) (x) g, s the swap of gamma and eta:
    an algebra map, so every law but the coalgebra laws holds, and those
    fail at gamma and eta, one of which is a generator."""
    H = cases.klein_group_algebra()
    swap = (0, 2, 1, 3)
    return dataclasses.replace(H, comult=[((swap[g], g, H.one()),) for g in range(4)])


def _klein_counit_a_character():
    """k[C2 x C2] with the counit the character (-1)^(gamma's coordinate):
    multiplicative, but not counital at gamma and gamma + eta."""
    H = cases.klein_group_algebra()
    return dataclasses.replace(H, counit=[H.one(), -H.one(), H.one(), -H.one()])


def _c4_counit_fails_off_the_generator():
    """k[C4] over Q(zeta_2) with Delta(g^i) = c_i g^i (x) g^i, c = (1, 1, -1, 1),
    degrees |g^i| = (0, 0), (1, 0), (1, 1), (0, 1) in C2 x C2 and
    beta(x, y) = (-1)^(x1 y1 + x2 y2).  Delta is multiplicative in color mode,
    c_(i+j) = c_i c_j beta(|g^i|, |g^j|), but not in plain mode, and the
    product is not graded.  Only the counit law fails, at g^2 alone: the
    generator g^3 holds it."""
    G = FinAbGroup.of(2, 2)
    F = FiniteGroup.cyclic(4)
    H = StructBialgebra.group_algebra(F.table, F.identity, conductor=2)
    one = H.one()
    return dataclasses.replace(
        H, comult=[((i, i, -one if i == 2 else one),) for i in range(4)],
        grading=tuple(G.element(d) for d in ((0, 0), (1, 0), (1, 1), (0, 1))), group=G,
        beta=Bicharacter(G, [[R01_HALF, R01_ZERO], [R01_ZERO, R01_HALF]]))


# the coalgebra laws that some report of test_generator_sweep_reports_like_the_full_sweep
# fails while every other law holds, so that their generator rows ran first
COALGEBRA_FAILURES = {"klein-coproduct-swap": {"coassociativity", "counit"},
                      "klein-counit-character": {"counit"}}


@pytest.mark.parametrize("name, build, mode", [
    ("klein", cases.klein_group_algebra, "plain"),
    ("c3-dihedral", _c3_dihedral_bicrossed, "plain"),
    ("c5c4", _c5c4_bicrossed, "plain"),
    ("sweedler", cases.sweedler_h4, "plain"),
    ("quantum-plane", cases.color_quantum_plane, "color"),
    ("rank3-quantum-space", cases.rank3_color_quantum_space, "color"),
    ("c4-graded", _c4_graded, "color"),
    ("klein-coproduct-swap", _klein_coproduct_twisted_by_swap, "plain"),
    ("klein-counit-character", _klein_counit_a_character, "plain"),
])
def test_generator_sweep_reports_like_the_full_sweep(name, build, mode, monkeypatch):
    """On the table and every single-entry mutant the report,
    counterexamples included, is the one of the full sweeps of the product
    and coalgebra laws (generators = the whole basis)."""
    H = build()
    assert len(hopfcheck._algebra_generators(H)) < H.dim
    reports = [check_axioms(M, mode) for M in [H, *_single_entry_mutants(H)]]
    monkeypatch.setattr(hopfcheck, "_algebra_generators", lambda H: list(range(H.dim)))
    # fresh copies: the unit and associativity verdicts are kept on each structure
    assert reports == [check_axioms(M, mode) for M in [build(), *_single_entry_mutants(H)]]
    # the coalgebra laws' sweep on generators alone ran and failed where
    # every other law held
    bialgebra = [r for r in reports if all(
        v["ok"] for k, v in r.items() if k not in ("all_ok", "coassociativity", "counit"))]
    assert {law for r in bialgebra for law in ("coassociativity", "counit")
            if not r[law]["ok"]} == COALGEBRA_FAILURES.get(name, set())
    # each law's sweep on generators alone ran and failed on some mutant,
    # one whose report shows that law's precondition holding
    unital = [r for r in reports if r["unit"]["ok"]]
    assert any(not r["associativity"]["ok"] for r in unital)
    associative = [r for r in unital if r["associativity"]["ok"]]
    # epsilon(1) = 1 held where the counterexample is a pair, not ("unit",)
    assert any(len(r["counit_multiplicative"]["counterexample"] or ()) == 2
               for r in associative)
    # the product was graded where no "mult" degree fails
    assert any(not r["coproduct_multiplicative"]["ok"] and r["unit_comultiplicative"]["ok"]
               and "mult" not in (r.get("grading", {}).get("counterexample") or ())
               for r in associative)


@pytest.mark.parametrize("build", [_klein_coproduct_twisted_by_swap, _klein_counit_a_character])
def test_coalgebra_laws_test_the_generator_rows_first(build, monkeypatch):
    """Each Klein table meets the precondition of the generator rule for the
    coalgebra laws: a law that holds is tested on the generators eta and
    gamma + eta alone, and a law that fails there is then swept from index
    0 for its first failing index, gamma."""
    holds, tested = hopfcheck._holds, []

    def spy(equation, N, *t):
        tested.append((equation.__name__, t))
        return holds(equation, N, *t)

    monkeypatch.setattr(hopfcheck, "_holds", spy)
    H = build()
    assert sorted(hopfcheck._algebra_generators(H)) == [2, 3]
    report = check_axioms(H)
    for law, equation in (("coassociativity", "coassociativity"), ("counit", "counit_laws")):
        order = [t for eq, t in tested if eq == equation]
        if report[law]["ok"]:
            assert order == [(2,), (3,)]
        else:
            assert report[law]["counterexample"] == (1,) == order[-1]
            assert order[0] == (2,) and (0,) in order


@pytest.mark.parametrize("mode, failed", [
    ("plain", {"coproduct_multiplicative", "grading", "counit"}),
    ("color", {"grading", "counit"}),
], ids=["plain", "color"])
def test_coalgebra_generator_rule_needs_its_precondition(mode, failed):
    """The C4 table holds the counit law on its one generator g^3 and fails
    it at g^2.  Delta is not multiplicative in plain mode, and the product
    is not graded, which color mode needs: either way the rule does not
    apply, and the full sweep reports g^2."""
    H = _c4_counit_fails_off_the_generator()
    assert hopfcheck._algebra_generators(H) == [3]
    report = check_axioms(H, mode)
    assert {k for k, v in report.items() if k != "all_ok" and not v["ok"]} == failed
    assert report["counit"]["counterexample"] == (2,)


@pytest.mark.parametrize("name, build, mode", [
    ("c3-dihedral", _c3_dihedral_bicrossed, "plain"),
    ("c4-graded", _c4_graded, "color"),
])
def test_failed_generator_row_tests_no_held_pair_again(name, build, mode, monkeypatch):
    """When a generator row fails a product law, the search for the first
    failing pair skips the pairs that already held: only the counterexample
    is tested twice."""
    laws = ("associativity", "counit_multiplicative", "coproduct_multiplicative")
    holds, tested = hopfcheck._holds, []

    def counting(equation, N, *t):
        tested.append((equation.__name__, t))
        return holds(equation, N, *t)

    monkeypatch.setattr(hopfcheck, "_holds", counting)
    failed = set()
    for M in _single_entry_mutants(build()):
        tested.clear()
        report = check_axioms(M, mode)
        for law in laws:
            twice = {t for t, c in collections.Counter(t for eq, t in tested if eq == law).items()
                     if c > 1}
            ce = report[law]["counterexample"]
            assert twice <= {ce and ce[:2]}
            if twice:
                failed.add(law)
    # each law had a failing generator row on some mutant
    assert failed == set(laws)


def _generated_dimension(H: StructBialgebra, generators: list) -> int:
    """The dimension of the span of the unit and the e_s, s in
    ``generators``, closed under products, in Cyclo arithmetic."""
    zero = Cyclo.zero(H.conductor)
    echelon, spanning = Echelon(), []

    def add(vec):
        vec = {k: c for k, c in vec.items() if not c.is_zero()}
        if vec and echelon.add(vec) is None:
            spanning.append(vec)
            return True
        return False

    for vec in [dict(H.unit)] + [{s: H.one()} for s in generators]:
        add(vec)
    grew = True
    while grew:
        grew = False
        for u, v in itertools.product(list(spanning), repeat=2):
            w: dict = {}
            for (a, x), (b, y) in itertools.product(u.items(), v.items()):
                for k, c in H.mult[a][b]:
                    w[k] = w.get(k, zero) + x * y * c
            grew = add(w) or grew
    return len(spanning)


def _two_term_products():
    """e_0 the unit, e_3 e_3 = e_1 + e_2, e_3 e_1 = e_2 + e_1 and every other
    product of e_1, e_2, e_3 zero: neither e_1 nor e_2 is a product alone."""
    one = Cyclo.one(1)
    mult = [[((j, one),) for j in range(4)]] + [[((i, one),), (), (), ()] for i in range(1, 4)]
    mult[3][3], mult[3][1] = ((1, one), (2, one)), ((2, one), (1, one))
    return StructBialgebra(dim=4, conductor=1, mult=mult, comult=[((i, i, one),) for i in range(4)],
                           unit={0: one}, counit=[one] * 4)


# the last three are tables that a closure over every nonzero cell would
# get wrong: a zero unit is no generator, and Sweedler's x gx written as 0 g
# reaches no g
GENERATOR_TABLES = {
    "klein": cases.klein_group_algebra,
    "c3-dihedral": _c3_dihedral_bicrossed,
    "sweedler": cases.sweedler_h4,
    "quantum-plane": cases.color_quantum_plane,
    "rank3-quantum-space": cases.rank3_color_quantum_space,
    "c4-graded": _c4_graded,
    "plane-zero-unit": lambda: dataclasses.replace(cases.color_quantum_plane(),
                                                   unit={0: Cyclo.zero(3)}),
    "sweedler-zero-cell": lambda: _with_cells(cases.sweedler_h4(),
                                              {(2, 3): ((1, Cyclo.zero(1)),)}),
    "two-term-products": _two_term_products,
}


@pytest.mark.parametrize("name", sorted(GENERATOR_TABLES))
def test_algebra_generators_generate(name):
    H = GENERATOR_TABLES[name]()
    generators = hopfcheck._algebra_generators(H)
    assert _generated_dimension(H, generators) == H.dim


def _reach(H: StructBialgebra, seeds) -> set:
    """The indices reached from the unit's one basis element and ``seeds``
    by single-term products with a nonzero coefficient."""
    todo = [u for u, c in H.unit.items() if len(H.unit) == 1 and not c.is_zero()] + list(seeds)
    reached: list = []
    while todo:
        a = todo.pop()
        if a not in reached:
            reached.append(a)
            todo += [cell[0][0] for b in reached for cell in (H.mult[a][b], H.mult[b][a])
                     if len(cell) == 1 and not cell[0][1].is_zero()]
    return set(reached)


def _downward_pass(H: StructBialgebra) -> list:
    """The generators of one pass from the last index down, unpruned: each
    index not reached by the unit and the generators so far is one."""
    generators: list = []
    reached: set = set()
    for k in reversed(range(H.dim)):
        if k not in reached:
            generators.append(k)
            reached = _reach(H, generators)
    return generators


# every table the tests build, and the bosonizations of the two color
# quantum spaces (dims 81 and 128), with the size of their generator set
# where it is the least possible
GENERATOR_SETS = {
    **{name: build for name, (build, _) in ANTIPODE_STRUCTURES.items()},
    **GENERATOR_TABLES,
    "klein-coproduct-swap": _klein_coproduct_twisted_by_swap,
    "klein-counit-character": _klein_counit_a_character,
    "c4-counit-off-generator": _c4_counit_fails_off_the_generator,
    "quantum-plane-bosonized": lambda: bosonize(cases.color_quantum_plane()),
    "rank3-quantum-space-bosonized": lambda: bosonize(cases.rank3_color_quantum_space()),
}
LEAST_GENERATORS = {"c7c3-bicrossed": 7, "c5c4-bicrossed": 5, "c12c3-bicrossed": 12,
                    "quantum-plane": 2, "rank3-quantum-space": 3,
                    "quantum-plane-bosonized": 4, "rank3-quantum-space-bosonized": 5}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_algebra_generators_prune_the_downward_pass(name):
    """The set is a subset of the one-pass set, none of its generators is
    reached by the others, and on a bicrossed product it has one generator
    per element of L: the left index of a product is that of its first factor."""
    H = GENERATOR_SETS[name]()
    generators = hopfcheck._algebra_generators(H)
    assert set(generators) <= set(_downward_pass(H))
    assert _reach(H, generators) == set(range(H.dim))
    assert not any(s in _reach(H, set(generators) - {s}) for s in generators)
    if name in LEAST_GENERATORS:
        assert len(generators) == LEAST_GENERATORS[name]


def test_generator_sweep_needs_the_unit_laws():
    """Tables on which every generator row of a product law holds but the
    law does not; each fails one precondition of the generator rule, so the
    full sweep runs and reports the first failing pair."""
    one = Cyclo.one(1)
    # e_0 is the unit and x = e_1 has x^2 = 2x, but e_1 is declared the unit:
    # the generator e_0 holds, and the pair (1, 1) gives 2 x (x) x != 4 x (x) x
    # and epsilon(2x) = 2 != 1
    fake_unit = StructBialgebra(
        dim=2, conductor=1, mult=[[((0, one),), ((1, one),)], [((1, one),), ((1, one + one),)]],
        comult=[((0, 0, one),), ((1, 1, one),)], unit={1: one}, counit=[one, one])
    # k[x]/(x^2 - x) with Delta(1) = 1 (x) 1 + z, z = (1 - x) (x) (1 - x): the
    # generator x holds, as Delta(x) z = 0, and only the pair (0, 0) fails
    split_unit = dataclasses.replace(_idempotent_bialgebra(), comult=[
        ((0, 0, one + one), (0, 1, -one), (1, 0, -one), (1, 1, one)), ((1, 1, one),)])
    # e_0 is a left identity, but e_1 is declared the unit, e_1 e_0 = 0 and
    # e_1 e_1 = e_1: the generator row e_0 associates, the pair (1, 0) does not
    left_unit = dataclasses.replace(fake_unit, mult=[[((0, one),), ((1, one),)],
                                                     [(), ((1, one),)]])
    # e_0 the unit and x = e_2 with x x = x e_1 = e_1 x = e_1, e_1 e_1 = 0 and
    # epsilon = 1: (x x) e_2 != x (x e_2), the generator row x is
    # multiplicative for epsilon, the pair (1, 1) is not
    e, x = ((1, one),), ((2, one),)
    nonassociative = StructBialgebra(
        dim=3, conductor=1, mult=[[((0, one),), e, x], [e, (), e], [x, e, e]],
        comult=[((i, i, one),) for i in range(3)], unit={0: one}, counit=[one] * 3)
    preconditions = {"associativity": ["unit"],
                     "counit_multiplicative": ["unit", "associativity"],
                     "coproduct_multiplicative": ["unit", "associativity",
                                                  "unit_comultiplicative"]}
    for H, failed, law, ce in ((fake_unit, "unit", "coproduct_multiplicative", (1, 1)),
                               (fake_unit, "unit", "counit_multiplicative", (1, 1)),
                               (split_unit, "unit_comultiplicative",
                                "coproduct_multiplicative", (0, 0)),
                               (left_unit, "unit", "associativity", (1, 0, 1)),
                               (nonassociative, "associativity", "counit_multiplicative",
                                (1, 1))):
        report = check_axioms(H)
        assert [p for p in preconditions[law] if not report[p]["ok"]] == [failed]
        assert report[law] == {"ok": False, "counterexample": ce}


def test_term_tables_write_each_coefficient_object_once(monkeypatch):
    """The memo of one build: parsed tables share one Cyclo per distinct
    vector, so _terms runs once per distinct coefficient, and again for the
    next structure."""
    data = _c5c4_bicrossed().lifted(12).to_json()
    calls = _spy(monkeypatch, hopfcheck, "_terms")
    for _ in range(2):
        H = StructBialgebra.from_json(data)
        hopfcheck._term_tables(H)
        coefficients = {id(c) for row in H.mult for cell in row for _, c in cell}
        coefficients |= {id(c) for entry in H.comult for _, _, c in entry}
        coefficients |= {id(c) for c in H.counit} | {id(c) for c in H.unit.values()}
        assert len(calls) == len(coefficients) < 5
        calls.clear()


# ---------------------------------------------------------------------------
# the rank-3 color quantum linear space over C4 x C4
# ---------------------------------------------------------------------------

def test_rank3_color_quantum_space_matches_its_formulas(monkeypatch):
    """x_1, x_2, x_3 with x_i^2 = 0, basis x^a = x_1^a1 x_2^a2 x_3^a3 at
    index 4 a1 + 2 a2 + a3:
    x^a x^b = prod_{i > j} q_ij^(a_i b_j) x^(a + b), 0 if some a_i + b_i = 2,
    Delta(x^a) = sum_{b + c = a} prod_{i < j} q_ij^(c_i b_j) x^b (x) x^c,
    S(x^a) = (-1)^(a1 + a2 + a3) x^a.
    The antipode comes from the Krylov path, and the bosonization is a
    bialgebra whose closed-form antipode is a convolution inverse of id."""
    H = cases.rank3_color_quantum_space()
    N, one, zero = H.conductor, H.one(), Cyclo.zero(H.conductor)
    x = [4, 2, 1]
    q = [[H.beta.eval(H.grading[i], H.grading[j]) for j in x] for i in x]
    assert H.group.orders != (3, 3) and q[0][2] != q[2][0]
    monomials = list(itertools.product(range(2), repeat=3))
    index = {a: 4 * a[0] + 2 * a[1] + a[2] for a in monomials}

    def root(pairs):
        return Cyclo.embed(sum((q[i][j].scale(m) for i, j, m in pairs), R01_ZERO), N)

    for a, b in itertools.product(monomials, repeat=2):
        c = tuple(s + t for s, t in zip(a, b))
        expected = () if 2 in c else (
            (index[c], root((i, j, a[i] * b[j]) for i in range(3) for j in range(i))),)
        assert H.mult[index[a]][index[b]] == expected
    for a in monomials:
        expected = {}
        for b in itertools.product(*(range(s + 1) for s in a)):
            c = tuple(s - t for s, t in zip(a, b))
            expected[index[b], index[c]] = root(
                (i, j, c[i] * b[j]) for i in range(3) for j in range(i + 1, 3))
        assert {(j, k): w for j, k, w in H.comult[index[a]]} == expected
    assert len(H.comult[7]) == 8
    assert check_axioms(H, "color")["all_ok"]
    assert not check_axioms(H, "plain")["coproduct_multiplicative"]["ok"]
    assert not check_flip(H)
    calls = _spy(monkeypatch, hopfcheck, "_krylov_inverse")
    S = solve_antipode(H, "color")
    assert calls
    assert S == [{index[a]: one if sum(a) % 2 == 0 else -one} for a in monomials]
    HB = bosonize(H)
    assert HB.dim == 8 * 16
    assert check_axioms(HB, "plain")["all_ok"]
    SB = bosonization_antipode_formula(H, S)
    epsilon = [{k: c * HB.counit[i] for k, c in HB.unit.items()} for i in range(HB.dim)]
    for i in range(HB.dim):
        for side in (0, 1):
            acc: dict = {}
            for j, k, c in HB.comult[i]:
                left, right = (SB[j], {k: one}) if side == 0 else ({j: one}, SB[k])
                for (a, s), (b, t) in itertools.product(left.items(), right.items()):
                    for m, w in HB.mult[a][b]:
                        acc[m] = acc.get(m, zero) + c * s * t * w
            assert {m: w for m, w in acc.items() if not w.is_zero()} == {
                m: w for m, w in epsilon[i].items() if not w.is_zero()}


# ---------------------------------------------------------------------------
# dense oracles for the joins of the axiom sweep and the morphism check
# ---------------------------------------------------------------------------

class _Dense:
    """Products, coproducts and counits of combinations {index: Cyclo} of
    H's basis, straight from H's Cyclo tables: every cell of every pair
    is read, empty or not, and nothing is indexed."""

    def __init__(self, H: StructBialgebra):
        self.H, self.zero = H, Cyclo.zero(H.conductor)

    def combo(self, pairs) -> dict:
        out: dict = {}
        for k, c in pairs:
            out[k] = out.get(k, self.zero) + c
        return {k: c for k, c in out.items() if not c.is_zero()}

    def product(self, x: dict, y: dict) -> dict:
        return self.combo((k, a * b * c) for i, a in x.items() for j, b in y.items()
                          for k, c in self.H.mult[i][j])

    def coproduct(self, x: dict) -> dict:
        return self.combo(((j, k), a * c) for i, a in x.items() for j, k, c in self.H.comult[i])

    def counit(self, x: dict) -> Cyclo:
        return sum((a * self.H.counit[i] for i, a in x.items()), self.zero)

    def tensor(self, u: dict, v: dict, twist) -> dict:
        """u v in H (x) H: (a (x) b)(a2 (x) b2) = twist(b, a2) a a2 (x) b b2."""
        return self.combo(((k, m), s * t * c * d * twist(b, a2))
                          for (a, b), s in u.items() for (a2, b2), t in v.items()
                          for k, c in self.H.mult[a][a2] for m, d in self.H.mult[b][b2])


def _dense_report(H: StructBialgebra, mode: str) -> dict:
    """check_axioms' report from sweeps over every basis tuple in order, in
    Cyclo arithmetic: each law's counterexample is its first failing tuple."""
    n, N, one = H.dim, H.conductor, H.one()
    D = _Dense(H)
    e = [{i: one} for i in range(n)]
    unit = D.combo(H.unit.items())
    prod = [[D.product(e[i], e[j]) for j in range(n)] for i in range(n)]
    delta = [D.coproduct(e[i]) for i in range(n)]
    pairs = list(itertools.product(range(n), repeat=2))

    def first(tuples, holds) -> dict:
        ce = next((t for t in tuples if not holds(*t)), None)
        return {"ok": ce is None, "counterexample": ce}

    def twist(b, a2):
        # beta(|b|, |a2|) in color mode
        return Cyclo.embed(H.beta.eval(H.grading[b], H.grading[a2]), N) if mode == "color" else one

    def coassociative(i):
        left = D.combo(((a, b, k), c * d) for (j, k), c in delta[i].items()
                       for (a, b), d in delta[j].items())
        right = D.combo(((j, a, b), c * d) for (j, k), c in delta[i].items()
                        for (a, b), d in delta[k].items())
        return left == right

    def counital(i):
        return (D.combo((j, c * H.counit[k]) for (j, k), c in delta[i].items()) == e[i]
                == D.combo((k, c * H.counit[j]) for (j, k), c in delta[i].items()))

    report = {
        "unit": first(((i,) for i in range(n)),
                      lambda i: D.product(unit, e[i]) == e[i] == D.product(e[i], unit)),
        "associativity": first(
            itertools.product(range(n), repeat=3),
            lambda i, j, k: D.product(prod[i][j], e[k]) == D.product(e[i], prod[j][k])),
        "coassociativity": first(((i,) for i in range(n)), coassociative),
        "counit": first(((i,) for i in range(n)), counital),
        "counit_multiplicative": first(pairs, lambda i, j: D.counit(prod[i][j])
                                       == H.counit[i] * H.counit[j])
        if D.counit(unit) == one else {"ok": False, "counterexample": ("unit",)},
        "unit_comultiplicative": {"ok": D.coproduct(unit) == D.combo(
            ((a, b), s * t) for a, s in unit.items() for b, t in unit.items()),
            "counterexample": None},
        "coproduct_multiplicative": first(pairs, lambda i, j: D.coproduct(prod[i][j]) == D.tensor(
            delta[i], delta[j], twist)),
    }
    deg = H.grading
    if deg is not None:
        # every term a cell or an entry lists, as check_axioms reads them
        ce = next(itertools.chain(
            (("mult", i, j, k) for i, j in pairs for k, _ in H.mult[i][j]
             if deg[k] != deg[i] * deg[j]),
            (("comult", i, j, k) for i in range(n) for j, k, _ in H.comult[i]
             if deg[j] * deg[k] != deg[i]),
            (("unit", i) for i in H.unit if not deg[i].is_identity()),
            (("counit", i) for i in range(n)
             if not H.counit[i].is_zero() and not deg[i].is_identity())), None)
        report["grading"] = {"ok": ce is None, "counterexample": ce}
    report["all_ok"] = all(v["ok"] for v in report.values())
    return report


def _rebased_c3_group_algebra() -> StructBialgebra:
    """The group algebra of C3 = <g> in the basis f_a = 1 + g + ... + g^a:
    g^i = f_i - f_(i-1), so Delta(f_a) = sum_(i <= a) g^i (x) g^i has two or
    more terms on each left leg, and f_a f_b has up to three terms."""
    n, one = 3, Cyclo.one(1)

    def in_f(c: list) -> tuple:
        # sum c_k g^k = sum (c_k - c_(k+1)) f_k
        c = c + [0]
        return tuple((k, one.scale(Fraction(c[k] - c[k + 1]))) for k in range(n)
                     if c[k] != c[k + 1])

    def gk(i) -> list:
        # g^i as its f coordinates, f_(-1) = 0
        return [(i, 1)] + ([(i - 1, -1)] if i else [])

    mult = [[in_f([sum(1 for i in range(a + 1) for j in range(b + 1) if (i + j) % n == k)
                   for k in range(n)]) for b in range(n)] for a in range(n)]
    comult = []
    for a in range(n):
        acc: dict = {}
        for i in range(a + 1):
            for (s, u), (t, v) in itertools.product(gk(i), repeat=2):
                acc[s, t] = acc.get((s, t), 0) + u * v
        comult.append(tuple((s, t, one.scale(Fraction(w))) for (s, t), w in sorted(acc.items())
                            if w))
    return StructBialgebra(dim=n, conductor=1, mult=mult, comult=comult, unit={0: one},
                           counit=[one.scale(Fraction(a + 1)) for a in range(n)])


def _folding_cells_bicrossed() -> StructBialgebra:
    """The C3-by-C2 bicrossed product over Q(zeta_3), every empty mult cell
    written as 1 + zeta + zeta^2 times e_0: nonempty, but 0 mod Phi_3."""
    H = _c3_dihedral_bicrossed().lifted(3)
    fold = tuple((0, Cyclo.embed(Rational01(k, 3), 3)) for k in range(3))
    return _with_cells(H, {(i, j): fold for i, j in itertools.product(range(H.dim), repeat=2)
                           if not H.mult[i][j]})


ORACLE_STRUCTURES = {
    **SWEEP_STRUCTURES,
    "rebased-c3-group-algebra": (_rebased_c3_group_algebra, "plain"),
    "folding-cells": (_folding_cells_bicrossed, "plain"),
    "rank3-quantum-space": (cases.rank3_color_quantum_space, "color"),
}


def test_targeted_oracle_structures_have_their_shape():
    rebased = _rebased_c3_group_algebra()
    assert any(len({j for j, _, _ in entry}) < len(entry) for entry in rebased.comult)
    assert check_axioms(rebased)["all_ok"] and solve_antipode(rebased) is not None
    folding = _folding_cells_bicrossed()
    folded = [cell for row in folding.mult for cell in row if len(cell) == 3]
    assert folded and all(sum((c for _, c in cell), Cyclo.zero(3)).is_zero() for cell in folded)


@pytest.mark.parametrize("name", sorted(ORACLE_STRUCTURES))
def test_check_axioms_matches_the_dense_oracle(name):
    """The report, counterexamples included, on the structure, its eight
    seeded mutants of test_check_axioms_mutant_reports_pinned and, for the
    targeted structures, every single-entry mutant."""
    build, mode = ORACLE_STRUCTURES[name]
    H = build()
    rng = random.Random(f"sweep:{name}")
    structures = [H] + [_mutant(H, rng) for _ in range(8)]
    if name not in SWEEP_STRUCTURES:
        structures += list(_single_entry_mutants(H))
    for M in structures:
        assert check_axioms(M, mode) == _dense_report(M, mode)


def _dense_is_morphism(H: StructBialgebra, columns: list[dict]) -> bool:
    """Whether e_j -> columns[j] is a bialgebra endomorphism of H, on every
    pair, in Cyclo arithmetic."""
    D = _Dense(H)
    n = H.dim

    def image(x: dict) -> dict:
        return D.combo((k, a * c) for i, a in x.items() for k, c in columns[i].items())

    return (image(D.combo(H.unit.items())) == D.combo(H.unit.items())
            and all(D.counit(columns[i]) == H.counit[i] for i in range(n))
            and all(image(D.product({i: H.one()}, {j: H.one()}))
                    == D.product(columns[i], columns[j])
                    for i, j in itertools.product(range(n), repeat=2))
            and all(D.coproduct(columns[i]) == D.combo(
                ((a, b), c * s * t) for (j, k), c in D.coproduct({i: H.one()}).items()
                for a, s in columns[j].items() for b, t in columns[k].items())
                for i in range(n)))


def _c7c3_automorphism_columns(N: int) -> list:
    """The columns, over Q(zeta_N), of aut-ext's seven solutions on the C7/C3
    squaring pair over g = inversion, h = identity."""
    mp = cases.squaring_matched_pair()
    sols = aut_ext_solve(mp, GroupAut.by_power(mp.L, -1), GroupAut.identity(mp.Gamma), 7)
    return [[{m.perm[j]: Cyclo.embed(m.scal[j], N)} for j in range(m.dim)]
            for m in (a.matrix(mp) for a in sols)]


def _single_entry_perturbations(columns: list[dict], N: int):
    """columns with the one entry of every third column scaled by zeta_N,
    or moved to the next basis index."""
    n, zeta = len(columns), Cyclo.embed(Rational01(1, N), N)
    for j in range(0, n, 3):
        (k, c), = columns[j].items()
        for new in ({k: c * zeta}, {(k + 1) % n: c}):
            yield columns[:j] + [new] + columns[j + 1:]


@pytest.mark.parametrize("sigma", [None, (1, 1, 1)], ids=["associative", "sigma-mutant"])
def test_morphism_generator_rule_matches_the_all_pairs_oracle(sigma, monkeypatch):
    """On the C7/C3 bicrossed product the multiplicative law is tested on the
    generator rows alone; on its sigma mutant, which is unital but not
    associative, every morphism verdict sweeps all n^2 pairs."""
    mp = cases.squaring_matched_pair()
    cocycle = SigmaCocycle.trivial(mp)
    if sigma:
        cocycle = cocycle.mutated(*sigma, Rational01(1, 2))
    H0 = build_bicrossed(mp, cocycle, TauCocycle.trivial(mp))
    N = math.lcm(H0.conductor, 7)
    H, n = H0.lifted(N), H0.dim
    report = check_axioms(H)
    assert report["unit"]["ok"] and report["associativity"]["ok"] == (sigma is None)
    solutions = _c7c3_automorphism_columns(N)
    maps = [[{j: H.one()} for j in range(n)]] + solutions + [
        p for cols in solutions for p in _single_entry_perturbations(cols, N)]
    holds, multiplicative = hopfcheck._holds, []

    def spy(equation, N, *t):
        if equation.__name__ == "multiplicative":
            multiplicative.append(t)
        return holds(equation, N, *t)

    monkeypatch.setattr(hopfcheck, "_holds", spy)
    rows = {(s, j) for s in hopfcheck._algebra_generators(H) for j in range(n)}
    verdicts = []
    for cols in maps:
        multiplicative.clear()
        verdict = is_bialgebra_morphism(H, cols)
        assert verdict == _dense_is_morphism(H, cols)
        if verdict:
            assert set(multiplicative) == (rows if sigma is None else set(
                itertools.product(range(n), repeat=2)))
        verdicts.append(verdict)
    assert len(rows) < n * n
    assert verdicts[0] and not all(verdicts)
    assert all(verdicts[1:len(solutions) + 1]) == (sigma is None)
