"""Shared reference data used across the test modules.

Each constructor returns a fresh object so tests can mutate copies freely.
"""

from __future__ import annotations

import itertools
import math

from chroma.datum import BraidingMatrix, Datum, ScalarMatrix, datum_from_twisted
from chroma.extensions import (ExtAutomorphism, FiniteGroup, FiniteRing,
                               GroupAut, MatchedPair, SigmaCocycle, TauCocycle,
                               ring_family)
from chroma.groups import Bicharacter, FinAbGroup
from chroma.hopfcheck import MonomialMatrix, StructBialgebra
from chroma.scalars import Cyclo, Rational01, Scalar, parse_scalar as P

R0 = Rational01(0, 1)
RH = Rational01(1, 2)


def basis_index_of(mp: MatchedPair, l: int, gamma: int) -> int:
    return l * mp.Gamma.n + gamma


def coefficients(H: StructBialgebra) -> list:
    """Every coefficient object in H's tables, repeats included."""
    return ([c for row in H.mult for cell in row for _, c in cell]
            + [c for entry in H.comult for *_, c in entry]
            + list(H.unit.values()) + list(H.counit))


# ---------------------------------------------------------------------------
# rank-2 data over C3
# ---------------------------------------------------------------------------


def c3_group():
    return FinAbGroup.of(3)


def c3_beta():
    # beta(s, s) = primitive third root
    return Bicharacter(c3_group(), [[Rational01(1, 3)]])


def rank2_c3_datum() -> Datum:
    """Twisted matrix [[1, q^-1], [1, q]], degrees (s, e); the orbit has
    exactly two distinct generalized diagrams."""
    G = c3_group()
    q = Scalar.variable("q")
    qt = ScalarMatrix([[Scalar.one(), q.inverse()], [Scalar.one(), q]])
    return datum_from_twisted(qt, G, c3_beta(), (G.generator(0), G.identity()))


def rank2_c3_symmetric_datum() -> Datum:
    """Symmetric twisted matrix q^{b}, b = [[0,-1],[-1,2]], degrees (s, e)."""
    G = c3_group()
    q = Scalar.variable("q")
    qt = ScalarMatrix([[Scalar.one(), q.inverse()], [q.inverse(), q * q]])
    return datum_from_twisted(qt, G, c3_beta(), (G.generator(0), G.identity()))


def random_small_datum(rng) -> Datum:
    """A seeded datum of rank 2-4 over a group of order <= 8, entries
    roots of order <= 4 times powers of q, most diagonals pure roots."""
    shapes = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
    orders = rng.choice(shapes)
    G = FinAbGroup(orders)
    B = [[R0] * G.rank for _ in range(G.rank)]
    for i, o in enumerate(orders):
        unit = rng.choice([k for k in range(1, o + 1) if math.gcd(k, o) == 1])
        B[i][i] = Rational01(unit, o)
    beta = Bicharacter(G, B)
    assert beta.is_nondegenerate()
    theta = rng.randrange(2, 5)
    roots = [R0, RH, Rational01(1, 3), Rational01(1, 4), Rational01(2, 3)]
    elems = list(G.elements())
    entries = []
    for i in range(theta):
        row = []
        for j in range(theta):
            row.append(Scalar(rng.choice(roots), {"q": rng.randrange(-2, 3)}))
        entries.append(row)
    for i in range(theta):
        if rng.random() < 0.7:
            entries[i][i] = Scalar(rng.choice([RH, Rational01(1, 3),
                                               Rational01(1, 4)]))
        if entries[i][i].is_one():
            entries[i][i] = Scalar.minus_one()
    t = tuple(rng.choice(elems) for _ in range(theta))
    return Datum(BraidingMatrix(entries), G, beta, t)


# ---------------------------------------------------------------------------
# the rank-4 family over C2 x C2
# ---------------------------------------------------------------------------


def klein_group():
    return FinAbGroup.of(2, 2)


def klein_beta():
    # beta(s,s) = beta(n,n) = beta(s,n) = -1, beta(n,s) = 1
    return Bicharacter(klein_group(), [[RH, RH], [R0, RH]])


def rank4_klein_datum() -> Datum:
    G = klein_group()
    s, n = G.generator(0), G.generator(1)
    q = Scalar.variable("q")
    one = Scalar.one()
    m1 = Scalar.minus_one()
    rows = [
        [P("q"), P("q^-1"), one, one],
        [one, m1, m1, one],
        [one, one, m1, P("-1*q")],
        [one, one, one, P("-1*q^-1")],
    ]
    return Datum(BraidingMatrix(rows), G, klein_beta(), (G.identity(), s, n, s))


def rank4_reference_table():
    """The six (generalized, colored) diagram pairs the rank-4 orbit must hit."""
    from chroma.dynkin import Diagram

    G = klein_group()
    e = G.identity()
    s, n = G.generator(0), G.generator(1)
    sn = s * n

    def gen(verts, edges):
        return Diagram("generalized", tuple((P(v), None) for v in verts),
                       tuple(sorted((i, j, (P(l) if l else None))
                                    for i, j, l in edges)))

    def col(verts, edges):
        return Diagram("colored", tuple((P(v), d) for v, d in verts),
                       tuple(sorted((i, j, (P(l) if l else None))
                                    for i, j, l in edges)))

    return [
        (gen(["-1", "-1", "-1", "-1*q^-1"],
             [(0, 1, "q"), (1, 2, "-1"), (0, 2, "-1*q^-1"), (2, 3, "-1*q")]),
         col([("1", s), ("1", s), ("1", sn), ("q^-1", s)],
             [(0, 1, "q"), (1, 2, None), (0, 2, "q^-1"), (2, 3, "q")])),
        (gen(["q", "-1", "-1*q^-1", "-1*q^-1"],
             [(0, 1, "q^-1"), (1, 2, "-1*q"), (2, 3, "-1*q")]),
         col([("q", e), ("1", s), ("q^-1", n), ("q^-1", s)],
             [(0, 1, "q^-1"), (1, 2, "q"), (2, 3, "q")])),
        (gen(["-1*q^-1", "-1", "-1", "-1"],
             [(0, 1, "-1*q"), (1, 2, "-1"), (1, 3, "-1*q^-1"), (2, 3, "q")]),
         col([("q^-1", n), ("1", sn), ("1", n), ("1", n)],
             [(0, 1, "q"), (1, 2, None), (1, 3, "q^-1"), (2, 3, "q")])),
        (gen(["q", "-1", "-1", "-1"],
             [(0, 1, "q^-1"), (1, 2, "-1"), (1, 3, "q"), (2, 3, "-1*q^-1")]),
         col([("q", e), ("1", sn), ("1", n), ("1", sn)],
             [(0, 1, "q^-1"), (1, 2, None), (1, 3, "q"), (2, 3, "q^-1")])),
        (gen(["-1", "-1", "-1", "q"],
             [(0, 1, "-1*q^-1"), (1, 2, "-1"), (0, 2, "q"), (2, 3, "q^-1")]),
         col([("1", sn), ("1", s), ("1", sn), ("q", e)],
             [(0, 1, "q^-1"), (1, 2, None), (0, 2, "q"), (2, 3, "q^-1")])),
        (gen(["q", "q", "-1", "-1*q^-1"],
             [(0, 1, "q^-1"), (1, 2, "q^-1"), (2, 3, "-1*q")]),
         col([("q", e), ("q", e), ("1", sn), ("q^-1", s)],
             [(0, 1, "q^-1"), (1, 2, "q^-1"), (2, 3, "q")])),
    ]


# ---------------------------------------------------------------------------
# matched pairs
# ---------------------------------------------------------------------------


def multiplying_matched_pair(p: int, k: int, a: int) -> MatchedPair:
    """L = C_p, Gamma = C_k, trivial right action, the generator of Gamma
    multiplies L by a (a^k = 1 mod p); its bicrossed product with trivial
    cocycles is the group algebra dual of C_p x| C_k, of dimension pk."""
    lact = [[l * pow(a, g, p) % p for g in range(k)] for l in range(p)]
    ract = [list(range(k)) for _ in range(p)]
    return MatchedPair(FiniteGroup.cyclic(p), FiniteGroup.cyclic(k), lact, ract)


def squaring_matched_pair() -> MatchedPair:
    """L = C7, Gamma = C3, trivial right action, generator of Gamma squares L."""
    return multiplying_matched_pair(7, 3, 2)


def mixed_c12_matched_pair() -> MatchedPair:
    """L = C12, Gamma = C3 with both actions nontrivial on odd elements."""
    L = FiniteGroup.cyclic(12)
    Gamma = FiniteGroup.cyclic(3)

    def la(l, g):
        if l % 2 == 0 or g == 0:
            return l
        return (l + 4 * g) % 12

    def ra(l, g):
        if g == 0:
            return 0
        return g if l % 2 == 0 else 3 - g

    return MatchedPair(L, Gamma,
                       [[la(l, g) for g in range(3)] for l in range(12)],
                       [[ra(l, g) for g in range(3)] for l in range(12)])


# Each breaks exactly one law that validate_matched_pair checks, in the
# order it checks them: (orders of L and Gamma, lact, ract).  Gamma = C4 with
# l swapping 2 and 3, and L = C4 with gamma swapping 2 and 3, are actions by
# bijections that are not automorphisms.
BROKEN_MATCHED_PAIRS = {
    "identity-row": (2, 2, [[0, 0], [0, 0]], [[0, 1], [0, 1]]),
    "identity-column": (2, 2, [[0, 0], [1, 1]], [[0, 0], [0, 0]]),
    "lact-not-right-action": (2, 2, [[0, 0], [1, 0]], [[0, 1], [0, 1]]),
    "ract-on-products": (2, 4, [[0] * 4, [1] * 4], [[0, 1, 2, 3], [0, 1, 3, 2]]),
    "ract-not-left-action": (2, 2, [[0, 0], [1, 1]], [[0, 1], [0, 0]]),
    "lact-on-products": (4, 2, [[0, 0], [1, 1], [2, 3], [3, 2]], [[0, 1]] * 4),
}


def broken_matched_pair(name: str) -> MatchedPair:
    nl, ng, lact, ract = BROKEN_MATCHED_PAIRS[name]
    return MatchedPair(FiniteGroup.cyclic(nl), FiniteGroup.cyclic(ng), lact, ract)


def inversion_automorphism_table(xi_num: int = 1):
    """The ftilde for the (C7, C3) pair over g = inversion: values xi, xi^3."""
    table = [[R0] * 7 for _ in range(3)]
    for l in range(1, 7):
        table[1][l] = Rational01(xi_num * l, 7)
        table[2][l] = Rational01(3 * xi_num * l, 7)
    return table


def c12_displayed_automorphism(xi_num: int = 1) -> ExtAutomorphism:
    """g(l) = l^7, h = id, ftilde = xi on odd elements for the C12 pair."""
    mp = mixed_c12_matched_pair()
    ft = [[R0] * 12,
          [R0 if l % 2 == 0 else Rational01(xi_num, 3) for l in range(12)],
          [R0 if l % 2 == 0 else Rational01(2 * xi_num, 3) for l in range(12)]]
    return ExtAutomorphism(GroupAut.by_power(mp.L, 7),
                           GroupAut.identity(mp.Gamma), ft)


# ---------------------------------------------------------------------------
# group-algebra color examples
# ---------------------------------------------------------------------------


def klein_group_algebra() -> StructBialgebra:
    """The group algebra of C2 x C2 (basis order: e, gamma, eta, gamma+eta)."""
    Gam = FinAbGroup.of(2, 2)
    GamF = FiniteGroup.from_fin_ab(Gam)
    return StructBialgebra.group_algebra(GamF.table, GamF.identity)


def swap_last_two() -> MonomialMatrix:
    """The order-2 automorphism gamma -> gamma, eta -> gamma + eta of C2 x C2."""
    return MonomialMatrix((0, 1, 3, 2))


def c4_color_group_case():
    """G = C4 with beta(g^i, g^j) = (-1)^{ij}; expected support {e, g^2}."""
    G = FinAbGroup.of(4)
    beta = Bicharacter(G, [[RH]])
    return G, beta, klein_group_algebra(), [swap_last_two()]


def c2c4_color_group_case():
    """G = C2 + C4 with beta = (-1)^{il - jk}; expected support {e, g + h^2}."""
    G = FinAbGroup.of(2, 4)
    beta = Bicharacter(G, [[R0, RH], [RH, R0]])
    return G, beta, klein_group_algebra(), [swap_last_two(), swap_last_two()]


def c12_extension_color_case():
    """The 36-dim extension with the order-6 twisted automorphism acting as
    both dual generators of C2 x C2; expected support {e, g + h}."""
    mp = mixed_c12_matched_pair()
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter(G, [[R0, RH], [RH, R0]])
    f = c12_displayed_automorphism(1)
    dual = FinAbGroup(G.orders)
    F = f.matrix(mp)
    ident = MonomialMatrix.identity(36)
    action = {dual.element((0, 0)): ident, dual.element((1, 0)): F,
              dual.element((0, 1)): F, dual.element((1, 1)): ident}
    rho = {dual.element((0, 0)): ExtAutomorphism.identity(mp),
           dual.element((1, 0)): f, dual.element((0, 1)): f,
           dual.element((1, 1)): ExtAutomorphism.identity(mp)}
    return mp, G, beta, action, rho


# ---------------------------------------------------------------------------
# ring families
# ---------------------------------------------------------------------------


def mod3_ring_family():
    """R = Z/3, Gamma = C2 acting by -1, psi(gamma) = 1, theta = zeta3^{2x}."""
    R = FiniteRing.integers_mod(3)
    Gamma = FiniteGroup.cyclic(2)
    nu = [1, 2]
    psi = [0, 1]
    phi = [[0, 0], [0, 0]]
    eta = [R0] * 3
    theta = [R0, Rational01(2, 3), Rational01(4, 3)]
    return ring_family(R, Gamma, nu, psi, phi, eta, theta)


def mod5_ring_family():
    """R = Z/5, Gamma = C4 acting by 2, psi(gamma) = 1, theta = zeta5^{3x}."""
    R = FiniteRing.integers_mod(5)
    Gamma = FiniteGroup.cyclic(4)
    nu = [1, 2, 4, 3]
    psi = [0] * 4
    psi[1] = 1
    # twisted cocycle: psi(g^{k+1}) = psi(g) + nu(g) psi(g^k)
    for k in (2, 3):
        psi[k] = (psi[1] + 2 * psi[k - 1]) % 5
    phi = [[0] * 4 for _ in range(4)]
    eta = [R0] * 5
    theta = [Rational01(3 * x, 5) for x in range(5)]
    return ring_family(R, Gamma, nu, psi, phi, eta, theta)


# ---------------------------------------------------------------------------
# non-semisimple Hopf algebras
# ---------------------------------------------------------------------------


def sweedler_h4() -> StructBialgebra:
    """Sweedler's 4-dim Hopf algebra, basis (1, g, x, gx): g^2 = 1, x^2 = 0,
    xg = -gx, g grouplike and Delta(x) = x (x) 1 + g (x) x; conductor 1."""
    one = Cyclo.one(1)
    m1 = -one
    mult = [[((0, one),), ((1, one),), ((2, one),), ((3, one),)],
            [((1, one),), ((0, one),), ((3, one),), ((2, one),)],
            [((2, one),), ((3, m1),), (), ()],
            [((3, one),), ((2, m1),), (), ()]]
    comult = [((0, 0, one),), ((1, 1, one),),
              ((2, 0, one), (1, 2, one)), ((3, 1, one), (0, 3, one))]
    return StructBialgebra(dim=4, conductor=1, mult=mult, comult=comult,
                           unit={0: one}, counit=[one, one, Cyclo.zero(1), Cyclo.zero(1)])


def color_quantum_linear_space(G: FinAbGroup, beta: Bicharacter, degrees) -> StructBialgebra:
    """The color quantum linear space on primitive generators x_i of degree
    g_i = degrees[i], with q_ij = beta(g_i, g_j) and q_ij q_ji = 1 for i != j:
    x_i^(N_i) = 0 for N_i the order of q_ii > 1, and x_i x_j = q_ij x_j x_i.

    The basis is the monomials x_1^a_1 ... x_r^a_r, 0 <= a_i < N_i, in
    lexicographic order of (a_1, ..., a_r).  The coproduct of a monomial is
    Delta(x_1)^a_1 ... Delta(x_r)^a_r, multiplied out in the braided tensor
    square: (a (x) b)(c (x) d) = beta(|b|, |c|) ac (x) bd.
    """
    r = len(degrees)
    q = [[beta.eval(g, h) for h in degrees] for g in degrees]
    assert all((q[i][j] + q[j][i]).is_zero() for i in range(r) for j in range(i))
    orders = [q[i][i].order for i in range(r)]
    assert min(orders) > 1
    N = math.lcm(*(x.order for row in q for x in row))
    monomials = list(itertools.product(*(range(o) for o in orders)))
    index = {a: k for k, a in enumerate(monomials)}

    def root(exponent: Rational01) -> Cyclo:
        return Cyclo.embed(exponent, N)

    def twist(a, b) -> Rational01:
        # beta(|x^a|, |x^b|)
        return sum((q[i][j].scale(a[i] * b[j]) for i in range(r) for j in range(r)), R0)

    def product(a, b):
        # x^a x^b = prod_{i > j} q_ij^(a_i b_j) x^(a + b), or None when zero
        c = tuple(s + t for s, t in zip(a, b))
        if any(s >= o for s, o in zip(c, orders)):
            return None
        return c, sum((q[i][j].scale(a[i] * b[j]) for i in range(r) for j in range(i)), R0)

    def tensor_product(u: dict, v: dict) -> dict:
        out: dict = {}
        for (a, b), s in u.items():
            for (c, d), t in v.items():
                left, right = product(a, c), product(b, d)
                if left and right:
                    key = (left[0], right[0])
                    w = s * t * root(twist(b, c) + left[1] + right[1])
                    w = out.pop(key, Cyclo.zero(N)) + w
                    if not w.is_zero():
                        out[key] = w
        return out

    def cell(a, b) -> tuple:
        p = product(a, b)
        return () if p is None else ((index[p[0]], root(p[1])),)

    def degree(a):
        g = G.identity()
        for d, k in zip(degrees, a):
            g = g * d ** k
        return g

    zero_mono = (0,) * r
    one = Cyclo.one(N)
    mult = [[cell(a, b) for b in monomials] for a in monomials]
    comult = []
    for a in monomials:
        delta = {(zero_mono, zero_mono): one}
        for i in range(r):
            x = tuple(int(t == i) for t in range(r))
            for _ in range(a[i]):
                delta = tensor_product(delta, {(x, zero_mono): one, (zero_mono, x): one})
        comult.append(tuple(sorted((index[b], index[c], w) for (b, c), w in delta.items())))
    return StructBialgebra(dim=len(monomials), conductor=N, mult=mult, comult=comult,
                           unit={0: one},
                           counit=[one if not any(a) else Cyclo.zero(N) for a in monomials],
                           grading=tuple(degree(a) for a in monomials), group=G, beta=beta)


def color_quantum_plane() -> StructBialgebra:
    """The 9-dim color quantum plane over C3 x C3, beta = [[1/3, 1/3],
    [2/3, 1/3]]: q_11 = q_22 = q_12 = zeta_3 and q_21 = zeta_3^-1, so beta
    is not symmetric on the degrees of x_1 and x_2."""
    G = FinAbGroup.of(3, 3)
    beta = Bicharacter(G, [[Rational01(1, 3), Rational01(1, 3)],
                           [Rational01(2, 3), Rational01(1, 3)]])
    return color_quantum_linear_space(G, beta, (G.generator(0), G.generator(1)))


def rank3_color_quantum_space() -> StructBialgebra:
    """The 8-dim color quantum linear space of rank 3 over C4 x C4, beta =
    [[0, 1/4], [3/4, 1/2]], degrees (0, 1), (0, 3) and (1, 1): q_ii = -1,
    q_12 = q_21 = -1, q_13 = q_32 = zeta_4 and q_31 = q_23 = zeta_4^-1, so
    each x_i squares to 0 and beta is not symmetric on the degrees of x_3
    and the others.  Delta(x_1 x_2 x_3) has 8 terms."""
    G = FinAbGroup.of(4, 4)
    beta = Bicharacter(G, [[Rational01(0, 1), Rational01(1, 4)],
                           [Rational01(3, 4), Rational01(1, 2)]])
    return color_quantum_linear_space(
        G, beta, (G.element((0, 1)), G.element((0, 3)), G.element((1, 1))))
