"""Matched pairs of finite groups, bicrossed products, and color criteria.

Covers: validation of matched-pair data and the two 2-cocycles sigma/tau,
the cocycle compatibility making k^L # kGamma a Hopf algebra, the solver
for extension automorphisms (g, h, ftilde), graded supports under a
dual-group action, the color matched-pair conditions, the compatibility
equations for braided extensions with a grading map z, and the finite-ring
family producing nontrivial sigma/beta/z triples.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .groups import Bicharacter, Character, Element, FinAbGroup, Subgroup, perp
from .hopfcheck import (MonomialMatrix, NonCommutingAction, StructBialgebra,
                        _morphism_check, projector_column, validated_action)
from .scalars import Cyclo, R01_ZERO, Rational01
from .zlinalg import solve_homogeneous_mod


class RactNotTrivial(ValueError):
    """The split compatibility check requires a trivial right action."""


class BoundTooSmall(UserWarning):
    """The root-of-unity search bound is below the natural exponent."""


# ---------------------------------------------------------------------------
# finite groups as Cayley tables
# ---------------------------------------------------------------------------


def _two_sided_identity(table, message: str) -> int:
    """The first e with table[e][x] == x == table[x][e] for every x."""
    n = len(table)
    e = next((e for e in range(n)
              if all(table[e][x] == x == table[x][e] for x in range(n))), None)
    if e is None:
        raise ValueError(message)
    return e


def _index_table(table, message: str, size: int | None = None,
                 shape: tuple | None = None) -> tuple:
    """``table`` as a tuple of rows of int indices below ``size`` (default:
    its row count), of ``shape`` (rows, columns) when given; anything else,
    bools included, raises ValueError."""
    if not isinstance(table, (list, tuple)):
        raise ValueError(message)
    size = len(table) if size is None else size
    if not all(isinstance(row, (list, tuple))
               and all(type(x) is int and 0 <= x < size for x in row)
               for row in table):
        raise ValueError(message)
    if shape and (len(table) != shape[0] or any(len(row) != shape[1] for row in table)):
        raise ValueError(message)
    return tuple(tuple(row) for row in table)


class FiniteGroup:
    """A finite group given by its Cayley table on indices 0..n-1."""

    __slots__ = ("table", "n", "identity", "inv")

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        n = len(self.table)
        self.n = n
        if any(len(row) != n for row in self.table):
            raise ValueError("Cayley table must be square")
        identity = self.identity = _two_sided_identity(self.table, "table has no identity")
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if self.table[x][y] == identity and self.table[y][x] == identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValueError(f"element {x} has no inverse")
        self.inv = tuple(inv)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("table is not associative")

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv[a], -k
        result = self.identity
        while k:
            if k & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            k >>= 1
        return result

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    @property
    def exponent(self) -> int:
        return math.lcm(*(self.order_of(a) for a in range(self.n)))

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.n) for b in range(self.n))

    def elements(self):
        return range(self.n)

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def from_fin_ab(cls, G: FinAbGroup) -> "FiniteGroup":
        elems = list(G.elements())
        return cls([[G.index_of(a * b) for b in elems] for a in elems])

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    @classmethod
    def from_json(cls, data) -> "FiniteGroup":
        """``{"cyclic": n}`` with an integer n >= 1, or ``{"table": rows}``."""
        if not isinstance(data, dict):
            raise ValueError("group must be a JSON object")
        if "cyclic" in data:
            n = data["cyclic"]
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"cyclic group order {n!r} is not an integer")
            if n < 1:
                raise ValueError(f"cyclic group order {n} must be >= 1")
            return cls.cyclic(n)
        return cls(_index_table(data["table"],
                                "group table must be a list of rows of element indices"))


def _is_homomorphism(group: FiniteGroup, images) -> bool:
    """images[ab] == images[a] images[b] for all a, b."""
    n, mul = group.n, group.mul
    return all(images[mul(a, b)] == mul(images[a], images[b])
               for a in range(n) for b in range(n))


class GroupAut:
    """A group automorphism as an image table, validated on creation."""

    __slots__ = ("group", "images")

    def __init__(self, group: FiniteGroup, images):
        self.group = group
        self.images = tuple(images)
        if sorted(self.images) != list(range(group.n)):
            raise ValueError("not a bijection")
        if not _is_homomorphism(group, self.images):
            raise ValueError("not a homomorphism")

    def __call__(self, x: int) -> int:
        return self.images[x]

    @classmethod
    def identity(cls, group: FiniteGroup) -> "GroupAut":
        return cls(group, range(group.n))

    @classmethod
    def by_power(cls, group: FiniteGroup, k: int) -> "GroupAut":
        """x -> x^k (an automorphism of abelian groups when gcd(k, exp) = 1)."""
        return cls(group, [group.power(x, k) for x in range(group.n)])

    def inverse(self) -> "GroupAut":
        images = [0] * self.group.n
        for x, y in enumerate(self.images):
            images[y] = x
        return GroupAut(self.group, images)

    def compose(self, other: "GroupAut") -> "GroupAut":
        return GroupAut(self.group, [self.images[other.images[x]]
                                     for x in range(self.group.n)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupAut) and self.group == other.group
                and self.images == other.images)

    def __hash__(self):
        return hash((self.group, self.images))


# ---------------------------------------------------------------------------
# matched pairs and cocycles
# ---------------------------------------------------------------------------


@dataclass
class MatchedPair:
    L: FiniteGroup
    Gamma: FiniteGroup
    lact: tuple  # lact[l][gamma] = l <| gamma, an index in L
    ract: tuple  # ract[l][gamma] = l |> gamma, an index in Gamma

    def __init__(self, L, Gamma, lact, ract):
        self.L = L
        self.Gamma = Gamma
        shape = (L.n, Gamma.n)
        self.lact = _index_table(
            lact, f"lact must be an array of arrays of L indices below {L.n}", L.n, shape)
        self.ract = _index_table(
            ract, f"ract must be an array of arrays of Gamma indices below {Gamma.n}",
            Gamma.n, shape)

    def la(self, l: int, g: int) -> int:
        return self.lact[l][g]

    def ra(self, l: int, g: int) -> int:
        return self.ract[l][g]

    def ract_trivial(self) -> bool:
        return all(self.ract[l][g] == g
                   for l in range(self.L.n) for g in range(self.Gamma.n))

    @classmethod
    def trivial(cls, L: FiniteGroup, Gamma: FiniteGroup) -> "MatchedPair":
        lact = [[l for _ in range(Gamma.n)] for l in range(L.n)]
        ract = [[g for g in range(Gamma.n)] for _ in range(L.n)]
        return cls(L, Gamma, lact, ract)


def validate_matched_pair(mp: MatchedPair) -> bool:
    """Action axioms plus the two matched-pair compatibility identities."""
    L, Gamma = mp.L, mp.Gamma
    eL, eG = L.identity, Gamma.identity
    for l in L.elements():
        if mp.la(l, eG) != l or mp.ra(l, eG) != eG:
            return False
    for g in Gamma.elements():
        if mp.la(eL, g) != eL or mp.ra(eL, g) != g:
            return False
    for l in L.elements():
        for g in Gamma.elements():
            for h in Gamma.elements():
                if mp.la(mp.la(l, g), h) != mp.la(l, Gamma.mul(g, h)):
                    return False  # <| is not a right action
                # l |> gh = (l |> g)((l <| g) |> h)
                if mp.ra(l, Gamma.mul(g, h)) != Gamma.mul(
                        mp.ra(l, g), mp.ra(mp.la(l, g), h)):
                    return False
    for l in L.elements():
        for t in L.elements():
            for g in Gamma.elements():
                if mp.ra(L.mul(l, t), g) != mp.ra(l, mp.ra(t, g)):
                    return False  # |> is not a left action
                # lt <| g = (l <| (t |> g))(t <| g)
                if mp.la(L.mul(l, t), g) != L.mul(
                        mp.la(l, mp.ra(t, g)), mp.la(t, g)):
                    return False
    return True


class _Cocycle:
    """Roots of unity indexed [a][b][c]: a 2-cocycle in (b, c) of one group
    for each element a of the other.  Built once with the table: ``den``, the
    lcm of the values' orders, and ``ints``, the table as integer exponents
    over ``den``, which every cocycle law, the Kac identity and the
    conductor read."""

    __slots__ = ("table", "den", "ints")

    def __init__(self, table):
        self.table = tuple(tuple(tuple(row) for row in plane) for plane in table)
        self.den = den = math.lcm(*(v.den for plane in self.table for row in plane for v in row))
        self.ints = tuple(tuple(tuple(v.over(den) for v in row) for row in plane)
                          for plane in self.table)

    def value(self, a: int, b: int, c: int) -> Rational01:
        return self.table[a][b][c]

    @classmethod
    def _zeros(cls, outer: FiniteGroup, inner: FiniteGroup):
        return cls([[[R01_ZERO] * inner.n for _ in range(inner.n)]
                    for _ in range(outer.n)])

    def _normalized(self, outer: FiniteGroup, inner: FiniteGroup) -> bool:
        """Trivial on the identity rows and columns and on the identity plane."""
        t, e, E = self.ints, inner.identity, inner.elements()
        return (all(t[a][e][b] == 0 == t[a][b][e] for a in outer.elements() for b in E)
                and all(t[outer.identity][b][c] == 0 for b in E for c in E))

    def mutated(self, a: int, b: int, c: int, delta: Rational01):
        table = [[list(row) for row in plane] for plane in self.table]
        table[a][b][c] = table[a][b][c] + delta
        return type(self)(table)


class SigmaCocycle(_Cocycle):
    """sigma_l(gamma, eta): roots of unity indexed [l][gamma][eta]."""

    __slots__ = ()

    @classmethod
    def trivial(cls, mp: MatchedPair) -> "SigmaCocycle":
        return cls._zeros(mp.L, mp.Gamma)

    def validate(self, mp: MatchedPair) -> bool:
        L, Gamma, s, D = mp.L, mp.Gamma, self.ints, self.den
        G = Gamma.elements()
        return self._normalized(L, Gamma) and not any(
            (s[l][g][h] + s[l][Gamma.mul(g, h)][k]
             - s[mp.la(l, g)][h][k] - s[l][g][Gamma.mul(h, k)]) % D
            for l in L.elements() for g in G for h in G for k in G)


class TauCocycle(_Cocycle):
    """tau_gamma(l, t): roots of unity indexed [gamma][l][t]."""

    __slots__ = ()

    @classmethod
    def trivial(cls, mp: MatchedPair) -> "TauCocycle":
        return cls._zeros(mp.Gamma, mp.L)

    def validate(self, mp: MatchedPair) -> bool:
        return self._normalized(mp.Gamma, mp.L) and _tau_cocycle_law(mp, self)


def _tau_cocycle_law(mp: MatchedPair, tau: TauCocycle) -> bool:
    """tau_{m |> gamma}(v, w) tau_gamma(vw, m) = tau_gamma(w, m) tau_gamma(v, wm)."""
    L, t, D = mp.L, tau.ints, tau.den
    E = L.elements()
    return not any((t[mp.ra(m, g)][v][w] + t[g][L.mul(v, w)][m]
                    - t[g][w][m] - t[g][v][L.mul(w, m)]) % D
                   for g in mp.Gamma.elements() for v in E for w in E for m in E)


def _kac_holds(mp: MatchedPair, sigma: SigmaCocycle, tau: TauCocycle,
               z: "ZMap | None" = None, beta: Bicharacter | None = None) -> bool:
    """The Kac compatibility of sigma and tau, twisted by beta when a grading
    map z is given: for all s, t in L and x, y in Gamma,

        sigma_st(x, y) tau_xy(s, t) = beta(z(t, x), z(s', y')) sigma_s(t |> x, y')
                                      sigma_t(x, y) tau_x(s, t) tau_y(s', t <| x)

    with s' = s <| (t |> x) and y' = (t <| x) |> y.  The exponents are
    compared over one common denominator.
    """
    L, Gamma = mp.L, mp.Gamma
    D = _bicrossed_conductor(sigma, tau, None if z is None else z.group)
    S, T, fs, ft = sigma.ints, tau.ints, D // sigma.den, D // tau.den
    for s in L.elements():
        for t in L.elements():
            st = L.mul(s, t)
            for x in Gamma.elements():
                tx, tl = mp.ra(t, x), mp.la(t, x)
                s2 = mp.la(s, tx)
                for y in Gamma.elements():
                    y2 = mp.ra(tl, y)
                    diff = (fs * (S[st][x][y] - S[s][tx][y2] - S[t][x][y])
                            + ft * (T[Gamma.mul(x, y)][s][t] - T[x][s][t] - T[y][s2][tl]))
                    if z is not None:
                        diff -= beta.eval(z.degree(t, x), z.degree(s2, y2)).over(D)
                    if diff % D:
                        return False
    return True


def kac_condition(mp: MatchedPair, sigma: SigmaCocycle, tau: TauCocycle) -> bool:
    """The cocycle compatibility making the bicrossed product a Hopf algebra."""
    return _kac_holds(mp, sigma, tau)


# ---------------------------------------------------------------------------
# the bicrossed product as a structure-constant bialgebra
# ---------------------------------------------------------------------------


def _bicrossed_conductor(sigma, tau, group=None):
    return math.lcm(sigma.den, tau.den, 1 if group is None else group.exponent)


def basis_index(mp: MatchedPair, l: int, g: int) -> int:
    return l * mp.Gamma.n + g


def build_bicrossed(mp: MatchedPair, sigma: SigmaCocycle, tau: TauCocycle,
                    z: "ZMap | None" = None, group: FinAbGroup | None = None,
                    beta: Bicharacter | None = None) -> StructBialgebra:
    """The crossed product / crossed coproduct bialgebra on basis delta_l e_g.

    When a grading map z is supplied (with its group and bicharacter) the
    basis vector delta_l e_gamma gets degree z(l, gamma).  The Kac
    compatibility is NOT enforced here; run ``kac_condition`` or the axiom
    suite to detect a non-Hopf outcome.
    """
    L, Gamma = mp.L, mp.Gamma
    N = _bicrossed_conductor(sigma, tau, group)
    roots: dict = {}  # one Cyclo per distinct root value, shared by every cell

    def embed(r: Rational01) -> Cyclo:
        c = roots.get(r)
        if c is None:
            c = roots[r] = Cyclo.embed(r, N)
        return c

    dim = L.n * Gamma.n
    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for l in L.elements():
        for g in Gamma.elements():
            row = basis_index(mp, l, g)
            target_t = mp.la(l, g)
            for h in Gamma.elements():
                coeff = embed(sigma.value(l, g, h))
                mult[row][basis_index(mp, target_t, h)] = \
                    ((basis_index(mp, l, Gamma.mul(g, h)), coeff),)
    comult = []
    for l in L.elements():
        for g in Gamma.elements():
            entry = []
            for u in L.elements():
                rest = L.mul(L.inv[u], l)
                coeff = embed(tau.value(g, u, rest))
                entry.append((basis_index(mp, u, mp.ra(rest, g)),
                              basis_index(mp, rest, g), coeff))
            comult.append(tuple(entry))
    one, zero = embed(R01_ZERO), Cyclo.zero(N)
    unit = {basis_index(mp, l, Gamma.identity): one for l in L.elements()}
    counit = [one if l == L.identity else zero
              for l in L.elements() for _ in Gamma.elements()]
    grading = None
    if z is not None:
        if group is None:
            raise ValueError("grading map needs its target group")
        grading = tuple(z.degree(l, g)
                        for l in L.elements() for g in Gamma.elements())
    return StructBialgebra(dim=dim, conductor=N, mult=mult, comult=comult,
                           unit=unit, counit=counit, grading=grading,
                           group=group, beta=beta)


# ---------------------------------------------------------------------------
# extension automorphisms
# ---------------------------------------------------------------------------


class ExtAutomorphism:
    """(g, h, ftilde) defining delta_l e_gamma -> ftilde_gamma(g(l)) delta_g(l) e_h(gamma)."""

    __slots__ = ("g", "h", "ftilde")

    def __init__(self, g: GroupAut, h: GroupAut, ftilde):
        self.g = g
        self.h = h
        self.ftilde = tuple(tuple(row) for row in ftilde)

    @classmethod
    def identity(cls, mp: MatchedPair) -> "ExtAutomorphism":
        z = R01_ZERO
        return cls(GroupAut.identity(mp.L), GroupAut.identity(mp.Gamma),
                   [[z] * mp.L.n for _ in range(mp.Gamma.n)])

    def validate(self, mp: MatchedPair) -> bool:
        f = self.ftilde
        if len(f) != mp.Gamma.n or any(len(row) != mp.L.n for row in f):
            return False
        if not _respects_actions(mp, self.g, self.h):
            return False
        D = math.lcm(*(v.den for row in f for v in row))
        return _solves(_ftilde_equations(mp, self.g, self.h),
                       [v.over(D) for row in f for v in row], D)

    def matrix(self, mp: MatchedPair) -> MonomialMatrix:
        L, Gamma = mp.L, mp.Gamma
        dim = L.n * Gamma.n
        perm = [0] * dim
        scal = [R01_ZERO] * dim
        for l in L.elements():
            for gam in Gamma.elements():
                src = basis_index(mp, l, gam)
                perm[src] = basis_index(mp, self.g(l), self.h(gam))
                scal[src] = self.ftilde[gam][self.g(l)]
        return MonomialMatrix(perm, scal)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ExtAutomorphism) and self.g == other.g
                and self.h == other.h and self.ftilde == other.ftilde)

    def __hash__(self):
        return hash((self.g, self.h, self.ftilde))


def _respects_actions(mp: MatchedPair, g: GroupAut, h: GroupAut) -> bool:
    """g(l) <| h(gamma) = g(l <| gamma) and g(l) |> h(gamma) = h(l |> gamma)."""
    return all(mp.la(g(l), h(gam)) == g(mp.la(l, gam))
               and mp.ra(g(l), h(gam)) == h(mp.ra(l, gam))
               for l in mp.L.elements() for gam in mp.Gamma.elements())


def _ftilde_equations(mp: MatchedPair, g: GroupAut, h: GroupAut) -> list:
    """The four conditions on ftilde over (g, h) as sparse integer equations.

    Variable gamma * |L| + l is the exponent of ftilde_gamma(l), and an
    equation ((var, coeff), ...) asks that sum coeff * x_var vanish; a
    variable may repeat.  The conditions: ftilde_gamma(1) = 1;
    ftilde_1(l) = 1; ftilde_{gamma eta}(l) = ftilde_gamma(l)
    ftilde_eta(l <| h(gamma)); ftilde_gamma(lt) = ftilde_{g^-1(t) |> gamma}(l)
    ftilde_gamma(t).
    """
    L, Gamma = mp.L, mp.Gamma
    n, G, E = L.n, Gamma.elements(), L.elements()
    ginv = g.inverse()
    return ([((gam * n + L.identity, 1),) for gam in G]
            + [((Gamma.identity * n + l, 1),) for l in E]
            + [((Gamma.mul(gam, eta) * n + l, 1), (gam * n + l, -1),
                (eta * n + mp.la(l, h(gam)), -1))
               for gam in G for eta in G for l in E]
            + [((gam * n + L.mul(l, t), 1), (mp.ra(ginv(t), gam) * n + l, -1),
                (gam * n + t, -1))
               for gam in G for l in E for t in E])


def _solves(equations: list, x: list, D: int) -> bool:
    """Whether the exponents x over D satisfy every ``_ftilde_equations`` row."""
    return all(sum(c * x[v] for v, c in eq) % D == 0 for eq in equations)


def default_root_bound(mp: MatchedPair) -> int:
    """lcm(exp L, exp Gamma, |L|): covers every example family we know of."""
    return math.lcm(mp.L.exponent, mp.Gamma.exponent, mp.L.n)


# The largest group order ``all_automorphisms`` accepts: it tries all n!
# image tables, about 2 s at n = 10 and 20 s at n = 11.
AUT_ENUM_LIMIT = 10


def all_automorphisms(group: FiniteGroup) -> list[GroupAut]:
    """Every automorphism of a small group, brute-forced over image tables."""
    if group.n > AUT_ENUM_LIMIT:
        raise ValueError(f"automorphism enumeration is limited to order {AUT_ENUM_LIMIT}")
    e = group.identity
    return [GroupAut(group, images) for images in itertools.permutations(range(group.n))
            if images[e] == e and _is_homomorphism(group, images)]


def aut_ext_solve(mp: MatchedPair, g: GroupAut, h: GroupAut, N: int) -> list[ExtAutomorphism]:
    """All extension automorphisms over (g, h) with values in mu_N.

    The four ftilde conditions are linear in the exponents mod N; the
    solution lattice is enumerated through the Smith form.  Each result is
    checked to be a bialgebra automorphism of the trivial-cocycle
    bicrossed product.
    """
    L, Gamma = mp.L, mp.Gamma
    if N < 1:
        raise ValueError("root bound must be >= 1")
    natural = L.exponent if mp.ract_trivial() else math.lcm(L.exponent, Gamma.exponent)
    if N % natural:
        warnings.warn(
            f"root bound {N} does not contain mu_{natural}; the returned set "
            "may be incomplete", BoundTooSmall)
    if not _respects_actions(mp, g, h):
        return []
    equations = _ftilde_equations(mp, g, h)
    rows = []
    for eq in equations:
        row = [0] * (Gamma.n * L.n)
        for v, c in eq:
            row[v] += c
        if any(row):
            rows.append(tuple(row))
    # a repeated row adds nothing to the Smith form but its cost
    solutions = solve_homogeneous_mod(list(dict.fromkeys(rows)), N)
    out = []
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    Hc = H.lifted(math.lcm(H.conductor, N))
    for sol in sorted(solutions):
        if not _solves(equations, sol, N):
            raise AssertionError("solver produced an invalid automorphism")
        ftilde = [[Rational01(sol[gam * L.n + l], N) for l in L.elements()]
                  for gam in Gamma.elements()]
        aut = ExtAutomorphism(g, h, ftilde)
        m = aut.matrix(mp)
        cols = [m.term_column(j, Hc.conductor) for j in range(m.dim)]
        if not _morphism_check(Hc, cols):
            raise AssertionError("solver output failed certification")
        out.append(aut)
    return out


# ---------------------------------------------------------------------------
# supports and color criteria
# ---------------------------------------------------------------------------


def support(H: StructBialgebra, action: dict, group: FinAbGroup) -> frozenset:
    """Degrees g with nonzero isotypic projector (1/|G|) sum_a a(g)^{-1} rho(a)."""
    mats = validated_action(H.dim, action, group)
    N = math.lcm(group.exponent, *(s.den for _, m in mats for s in m.scal))
    return frozenset(g for g in group.elements()
                     if any(projector_column(mats, group, g, j, N) for j in range(H.dim)))


def is_color(H: StructBialgebra, action: dict, group: FinAbGroup,
             beta: Bicharacter) -> bool:
    """True iff beta is identically 1 on the support of the action."""
    return beta.is_trivial_on(support(H, action, group))


def action_from_generator_images(group: FinAbGroup, images: list[MonomialMatrix]) -> dict:
    """Extend matrices on the dual generators to the whole dual group.

    Requires the images to respect generator orders and commute, so the
    extension is a genuine action table.
    """
    dual = FinAbGroup(group.orders)
    if len(images) != dual.rank:
        raise ValueError("one matrix per dual generator required")
    for img, o in zip(images, dual.orders):
        if img ** o != MonomialMatrix.identity(img.dim):
            raise ValueError("generator image does not respect its order")
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if not images[i].commutes_with(images[j]):
                raise NonCommutingAction("generator images must commute")
    table = {}
    for a in dual.elements():
        m = MonomialMatrix.identity(images[0].dim) if images else MonomialMatrix.identity(1)
        for img, r in zip(images, a.residues):
            if r:
                m = m * (img ** r)
        table[a] = m
    return table


def check_color_matched_pair(mp: MatchedPair, rho: dict, group: FinAbGroup,
                             beta: Bicharacter) -> dict:
    """The three color matched-pair conditions for an automorphism table rho.

    ``rho`` maps every element of the dual group to an ExtAutomorphism
    (the identity must map to the identity automorphism); each entry is
    validated.  Whether the table is multiplicative is reported but not
    required, since the support formula only consumes the table values.

    Write A_(l, gamma) for the characters a whose rho(a) fixes
    delta_l e_gamma, and G^u_eta for the g with chi_g in A_(u, eta).  For
    all pairs (u, eta) and (l, gamma): (i) every character trivial on
    G^u_eta lies in A_(l, gamma); (ii) some a in A_(l, gamma) agrees with
    g -> ftilde^(chi_g)_eta(u) on G^u_eta; (iii) every such a has
    ftilde^a_gamma(l) = 1.  A condition's witness is None when it holds,
    else its first failing tuple (u, eta, l, gamma): (u, eta) is the outer
    pair, and each pair runs l over L, then gamma over Gamma.  The witness
    of (iii) also carries the residues of the first such a, in dual-group
    order, with ftilde^a_gamma(l) != 1.
    """
    dual = FinAbGroup(group.orders)
    elems = list(dual.elements())
    for a in elems:
        if a not in rho:
            raise ValueError("rho must cover the whole dual group")
        if not rho[a].validate(mp):
            raise ValueError("rho contains an invalid extension automorphism")
    if rho[dual.identity()] != ExtAutomorphism.identity(mp):
        raise ValueError("rho must send the trivial character to the identity")
    mats = {a: rho[a].matrix(mp) for a in elems}
    pairs = [(l, gam) for l in mp.L.elements() for gam in mp.Gamma.elements()]
    fixers = {(l, gam): [a for a in elems if rho[a].g(l) == l and rho[a].h(gam) == gam]
              for l, gam in pairs}
    chi = {g: beta.chi(g).as_element() for g in group.elements()}

    def failures():
        """(condition, witness) of every failing tuple, in witness order."""
        for u, eta in pairs:
            G_ue = [g for g in group.elements() if chi[g] in fixers[u, eta]]
            trivial_on = perp(Subgroup._of_members(group, G_ue)).element_set
            value = {g: rho[chi[g]].ftilde[eta][u] for g in G_ue}
            for l, gam in pairs:
                t = (u, eta, l, gam)
                if not trivial_on <= {a.residues for a in fixers[l, gam]}:
                    yield "i", t
                matches = [a for a in fixers[l, gam]
                           if all(Character(group, a.residues)(g) == value[g] for g in G_ue)]
                if not matches:
                    yield "ii", t
                a = next((a for a in matches if not rho[a].ftilde[gam][l].is_zero()), None)
                if a is not None:
                    yield "iii", (*t, a.residues)

    witness = dict.fromkeys(("i", "ii", "iii"))
    for cond, t in failures():
        witness[cond] = witness[cond] or t
    report = {"rho_is_homomorphism": all(mats[a * b] == mats[a] * mats[b]
                                         for a in elems for b in elems)}
    report.update({f"condition_{c}": w is None for c, w in witness.items()})
    report["all"] = not any(witness.values())
    report["witness"] = witness
    return report


# ---------------------------------------------------------------------------
# braided extensions: grading maps and compatibilities
# ---------------------------------------------------------------------------


class ZMap:
    """A map L x Gamma -> G assigning a degree to each basis vector."""

    __slots__ = ("mp", "group", "table")

    def __init__(self, mp: MatchedPair, group: FinAbGroup, table):
        self.mp = mp
        self.group = group
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != mp.L.n or any(len(r) != mp.Gamma.n for r in self.table):
            raise ValueError("z table has the wrong shape")
        for row in self.table:
            for g in row:
                if g.group != group:
                    raise ValueError("z values must lie in the grading group")

    def degree(self, l: int, gam: int) -> Element:
        return self.table[l][gam]

    @classmethod
    def trivial(cls, mp: MatchedPair, group: FinAbGroup) -> "ZMap":
        e = group.identity()
        return cls(mp, group, [[e] * mp.Gamma.n for _ in range(mp.L.n)])

    @classmethod
    def from_cocycle(cls, mp: MatchedPair, group: FinAbGroup, ztilde) -> "ZMap":
        """z(l, gamma) = ztilde[gamma][l]."""
        return cls(mp, group, [[ztilde[gam][l] for gam in mp.Gamma.elements()]
                               for l in mp.L.elements()])


def _z_gamma_law(z: ZMap) -> bool:
    """z(l, gamma eta) = z(l, gamma) z(l <| gamma, eta)."""
    mp = z.mp
    Gamma, G = mp.Gamma, mp.Gamma.elements()
    return all(z.degree(l, Gamma.mul(g, h)) == z.degree(l, g) * z.degree(mp.la(l, g), h)
               for l in mp.L.elements() for g in G for h in G)


def _z_l_law(z: ZMap) -> bool:
    """z(lt, gamma) = z(l, t |> gamma) z(t, gamma)."""
    mp = z.mp
    L, E = mp.L, mp.L.elements()
    return all(z.degree(L.mul(l, t), g) == z.degree(l, mp.ra(t, g)) * z.degree(t, g)
               for l in E for t in E for g in mp.Gamma.elements())


def validate_z(z: ZMap) -> bool:
    """The two comodule-compatibility identities for the grading map."""
    return _z_gamma_law(z) and _z_l_law(z)


def color_compatibility(mp: MatchedPair, sigma: SigmaCocycle, tau: TauCocycle,
                        z: ZMap, beta: Bicharacter) -> bool:
    """The exact condition for the graded bicrossed product to be color Hopf."""
    return validate_z(z) and _kac_holds(mp, sigma, tau, z, beta)


def check_split_color_extension(mp: MatchedPair, sigma: SigmaCocycle,
                                tau: TauCocycle, ztilde, group: FinAbGroup,
                                beta: Bicharacter) -> dict:
    """Colorability conditions when the right action is trivial.

    Verifies: each ztilde(gamma) is a homomorphism L -> G and ztilde is a
    1-cocycle for the <|-action; the sigma compatibility
    sigma_{lt} = beta(ztilde(gamma)(t), ztilde(eta)(l <| gamma)) sigma_l sigma_t;
    and that tau is a 1-cocycle valued in plain 2-cocycles of L.  The
    conjunction predicts the color-Hopf verification of the graded object.
    Under a trivial right action these are the laws of validate_z, the
    2-cocycle law of TauCocycle, and the twisted Kac identity with tau
    trivial and with sigma trivial, read on z(l, gamma) = ztilde[gamma][l].
    """
    if not mp.ract_trivial():
        raise RactNotTrivial("this check applies only to trivial right actions")
    z = ZMap.from_cocycle(mp, group, ztilde)
    report = {
        "ztilde_homomorphisms": _z_l_law(z),
        "ztilde_cocycle": _z_gamma_law(z),
        "sigma_compatibility": _kac_holds(mp, sigma, TauCocycle.trivial(mp), z, beta),
        "tau_pointwise_cocycle": _tau_cocycle_law(mp, tau),
        "tau_gamma_cocycle": _kac_holds(mp, SigmaCocycle.trivial(mp), tau),
    }
    report["ok"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# the finite-ring family
# ---------------------------------------------------------------------------


class FiniteRing:
    """A finite unital ring on an additive group in invariant-factor form.

    Elements are indexed like the elements of FinAbGroup(orders), and
    ``additive`` is the Cayley table of that group; the multiplication
    table is validated for associativity, unit, and distributivity.
    """

    __slots__ = ("add_group", "additive", "mul_table", "one", "zero")

    def __init__(self, orders, mul_table):
        self.add_group = FinAbGroup(tuple(orders))
        n = self.add_group.order
        self.mul_table = _index_table(
            mul_table, f"ring mul must be an array of shape {n} x {n} of "
                       f"element indices below {n}", n, (n, n))
        self.additive = FiniteGroup.from_fin_ab(self.add_group)
        add = self.additive.table
        self.zero = 0
        self.one = _two_sided_identity(self.mul_table, "ring has no unit")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mul_table[self.mul_table[a][b]][c] != \
                            self.mul_table[a][self.mul_table[b][c]]:
                        raise ValueError("multiplication is not associative")
                    if self.mul_table[a][add[b][c]] != \
                            add[self.mul_table[a][b]][self.mul_table[a][c]]:
                        raise ValueError("left distributivity fails")
                    if self.mul_table[add[a][b]][c] != \
                            add[self.mul_table[a][c]][self.mul_table[b][c]]:
                        raise ValueError("right distributivity fails")

    @property
    def n(self) -> int:
        return self.add_group.order

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def units(self) -> list[int]:
        out = []
        for a in range(self.n):
            if any(self.mul(a, b) == self.one and self.mul(b, a) == self.one
                   for b in range(self.n)):
                out.append(a)
        return out

    @classmethod
    def integers_mod(cls, n: int) -> "FiniteRing":
        return cls((n,), [[(a * b) % n for b in range(n)] for a in range(n)])

    @classmethod
    def from_json(cls, data) -> "FiniteRing":
        """``{"orders": [...], "mul": rows}``, the orders checked as a group's."""
        if not isinstance(data, dict):
            raise ValueError("ring must be a JSON object")
        return cls(FinAbGroup.from_json(data).orders, data["mul"])


@dataclass
class RingFamilyData:
    mp: MatchedPair
    sigma: SigmaCocycle
    beta: Bicharacter
    z: ZMap
    group: FinAbGroup
    split: dict


def ring_family(R: FiniteRing, Gamma: FiniteGroup, nu, psi, phi, eta,
                theta, tau: TauCocycle | None = None) -> RingFamilyData:
    """sigma, beta and z from ring data, with all side conditions verified.

    Inputs: nu a homomorphism Gamma -> units(R) (index list), psi a twisted
    1-cocycle (psi(gh) = psi(g) + nu(g)psi(h)), phi a nu-twisted 2-cocycle
    Gamma x Gamma -> R, and eta, theta maps R -> roots of unity with theta
    trace-symmetric.  Produces

        sigma_l(g, h) = eta(l phi(g,h)) theta(l^2 nu(g) psi(g) psi(h)),
        beta(x, y)    = theta(xy)^2,
        z(l, g)       = l psi(g),

    over the additive group of R, and checks the split-extension sigma
    compatibility so the output feeds straight into the colorability
    machinery.  The split report, taken with ``tau`` (indexed
    [gamma][l][t] over Gamma and the additive group; trivial by default),
    is kept as ``split``.
    """
    G = R.add_group
    n, m = R.n, Gamma.n
    (nu,) = _index_table([nu], f"nu must be an array of {m} ring element indices "
                               f"below {n}", n, (1, m))
    (psi,) = _index_table([psi], f"psi must be an array of {m} ring element indices "
                                 f"below {n}", n, (1, m))
    phi = _index_table(phi, f"phi must be an array of shape {m} x {m} of ring "
                            f"element indices below {n}", n, (m, m))
    for name, values in (("eta", eta), ("theta", theta)):
        if len(values) != n:
            raise ValueError(f"{name} must have one root per ring element ({n})")
    elems = list(G.elements())
    L = R.additive
    add = L.table

    units = set(R.units())
    for g in Gamma.elements():
        if nu[g] not in units:
            raise ValueError("nu must take values in the units")
    for g in Gamma.elements():
        for h in Gamma.elements():
            if nu[Gamma.mul(g, h)] != R.mul(nu[g], nu[h]):
                raise ValueError("nu is not a homomorphism")
    if psi[Gamma.identity] != R.zero:
        raise ValueError("psi must be normalized")
    for g in Gamma.elements():
        for h in Gamma.elements():
            if psi[Gamma.mul(g, h)] != add[psi[g]][R.mul(nu[g], psi[h])]:
                raise ValueError("psi is not a twisted 1-cocycle")
    for g in Gamma.elements():
        if phi[g][Gamma.identity] != R.zero or phi[Gamma.identity][g] != R.zero:
            raise ValueError("phi must be normalized")
    for g in Gamma.elements():
        for h in Gamma.elements():
            for k in Gamma.elements():
                lhs = add[R.mul(nu[g], phi[h][k])][phi[g][Gamma.mul(h, k)]]
                rhs = add[phi[g][h]][phi[Gamma.mul(g, h)][k]]
                if lhs != rhs:
                    raise ValueError("phi is not a twisted 2-cocycle")
    if not eta[R.zero].is_zero() or not theta[R.zero].is_zero():
        raise ValueError("eta and theta must be normalized at 0")
    for l in range(n):
        for t in range(n):
            for u in range(n):
                if theta[R.mul(R.mul(l, t), u)] != theta[R.mul(R.mul(t, l), u)]:
                    raise ValueError("theta violates trace symmetry")

    # matched pair: trivial |>, l <| g = l nu(g)
    lact = [[R.mul(l, nu[g]) for g in Gamma.elements()] for l in range(n)]
    ract = [[g for g in Gamma.elements()] for _ in range(n)]
    mp = MatchedPair(L, Gamma, lact, ract)
    if not validate_matched_pair(mp):
        raise AssertionError("ring data produced an invalid matched pair")

    sigma_table = []
    for l in range(n):
        plane = []
        l2 = R.mul(l, l)
        for g in Gamma.elements():
            row = []
            for h in Gamma.elements():
                v = eta[R.mul(l, phi[g][h])] + \
                    theta[R.mul(R.mul(R.mul(l2, nu[g]), psi[g]), psi[h])]
                row.append(v)
            plane.append(row)
        sigma_table.append(plane)
    sigma = SigmaCocycle(sigma_table)
    if not sigma.validate(mp):
        raise ValueError("inputs do not produce a valid sigma cocycle "
                         "(eta must be additive on the relevant products)")

    # beta(x, y) = theta(xy)^2 must be bimultiplicative
    matrix = []
    gens = G.generators()
    for a in gens:
        row = []
        for b in gens:
            row.append(theta[R.mul(G.index_of(a), G.index_of(b))].scale(2))
        matrix.append(row)
    beta = Bicharacter(G, matrix)
    for x in range(n):
        for y in range(n):
            if beta.eval(elems[x], elems[y]) != theta[R.mul(x, y)].scale(2):
                raise ValueError("theta^2 is not bimultiplicative on products")

    ztilde = [[elems[R.mul(l, psi[g])] for l in range(n)] for g in Gamma.elements()]
    z = ZMap.from_cocycle(mp, G, ztilde)
    split = check_split_color_extension(
        mp, sigma, TauCocycle.trivial(mp) if tau is None else tau, ztilde, G, beta)
    if not (split["ztilde_homomorphisms"] and split["ztilde_cocycle"]
            and split["sigma_compatibility"]):
        raise AssertionError("ring data violates the split compatibility")
    return RingFamilyData(mp=mp, sigma=sigma, beta=beta, z=z, group=G, split=split)
