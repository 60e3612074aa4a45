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

from .groups import Bicharacter, Character, Element, FinAbGroup
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


class FiniteGroup:
    """A finite group given by its Cayley table on indices 0..n-1."""

    __slots__ = ("table", "n", "identity", "inv")

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        n = len(self.table)
        self.n = n
        if any(len(row) != n for row in self.table):
            raise ValueError("Cayley table must be square")
        identity = None
        for e in range(n):
            if all(self.table[e][x] == x == self.table[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity")
        self.identity = identity
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
        index = {g.residues: i for i, g in enumerate(elems)}
        return cls([[index[(a * b).residues] for b in elems] for a in elems])

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def to_json(self) -> dict:
        return {"table": [list(r) for r in self.table]}

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
        table = data["table"]
        if not isinstance(table, list) or not all(
                isinstance(row, list) and all(type(x) is int and 0 <= x < len(table)
                                              for x in row) for row in table):
            raise ValueError("group table must be a list of rows of element indices")
        return cls(table)


class GroupAut:
    """A group automorphism as an image table, validated on creation."""

    __slots__ = ("group", "images")

    def __init__(self, group: FiniteGroup, images):
        self.group = group
        self.images = tuple(images)
        if sorted(self.images) != list(range(group.n)):
            raise ValueError("not a bijection")
        for a in range(group.n):
            for b in range(group.n):
                if self.images[group.mul(a, b)] != group.mul(self.images[a], self.images[b]):
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

    def is_identity(self) -> bool:
        return all(self.images[x] == x for x in range(self.group.n))

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
        self.lact = tuple(tuple(row) for row in lact)
        self.ract = tuple(tuple(row) for row in ract)
        if len(self.lact) != L.n or any(len(r) != Gamma.n for r in self.lact):
            raise ValueError("lact table has the wrong shape")
        if len(self.ract) != L.n or any(len(r) != Gamma.n for r in self.ract):
            raise ValueError("ract table has the wrong shape")

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


class SigmaCocycle:
    """sigma_l(gamma, eta): roots of unity indexed [l][gamma][eta]."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = tuple(tuple(tuple(row) for row in plane) for plane in table)

    def value(self, l: int, g: int, h: int) -> Rational01:
        return self.table[l][g][h]

    @classmethod
    def trivial(cls, mp: MatchedPair) -> "SigmaCocycle":
        z = R01_ZERO
        return cls([[[z] * mp.Gamma.n for _ in range(mp.Gamma.n)]
                    for _ in range(mp.L.n)])

    def validate(self, mp: MatchedPair) -> bool:
        L, Gamma = mp.L, mp.Gamma
        for l in L.elements():
            for g in Gamma.elements():
                if not self.value(l, Gamma.identity, g).is_zero():
                    return False
                if not self.value(l, g, Gamma.identity).is_zero():
                    return False
        for g in Gamma.elements():
            for h in Gamma.elements():
                if not self.value(L.identity, g, h).is_zero():
                    return False
        for l in L.elements():
            for g in Gamma.elements():
                for h in Gamma.elements():
                    for k in Gamma.elements():
                        lhs = self.value(l, g, h) + self.value(l, Gamma.mul(g, h), k)
                        rhs = self.value(mp.la(l, g), h, k) + \
                            self.value(l, g, Gamma.mul(h, k))
                        if lhs != rhs:
                            return False
        return True

    def mutated(self, l: int, g: int, h: int, delta: Rational01) -> "SigmaCocycle":
        table = [[[v for v in row] for row in plane] for plane in self.table]
        table[l][g][h] = table[l][g][h] + delta
        return SigmaCocycle(table)


class TauCocycle:
    """tau_gamma(l, t): roots of unity indexed [gamma][l][t]."""

    __slots__ = ("table",)

    def __init__(self, table):
        self.table = tuple(tuple(tuple(row) for row in plane) for plane in table)

    def value(self, g: int, l: int, t: int) -> Rational01:
        return self.table[g][l][t]

    @classmethod
    def trivial(cls, mp: MatchedPair) -> "TauCocycle":
        z = R01_ZERO
        return cls([[[z] * mp.L.n for _ in range(mp.L.n)]
                    for _ in range(mp.Gamma.n)])

    def validate(self, mp: MatchedPair) -> bool:
        L, Gamma = mp.L, mp.Gamma
        for g in Gamma.elements():
            for l in L.elements():
                if not self.value(g, L.identity, l).is_zero():
                    return False
                if not self.value(g, l, L.identity).is_zero():
                    return False
        for l in L.elements():
            for t in L.elements():
                if not self.value(Gamma.identity, l, t).is_zero():
                    return False
        for g in Gamma.elements():
            for v in L.elements():
                for w in L.elements():
                    for m in L.elements():
                        lhs = self.value(mp.ra(m, g), v, w) + \
                            self.value(g, L.mul(v, w), m)
                        rhs = self.value(g, w, m) + self.value(g, v, L.mul(w, m))
                        if lhs != rhs:
                            return False
        return True

    def mutated(self, g: int, l: int, t: int, delta: Rational01) -> "TauCocycle":
        table = [[[v for v in row] for row in plane] for plane in self.table]
        table[g][l][t] = table[g][l][t] + delta
        return TauCocycle(table)


def kac_condition(mp: MatchedPair, sigma: SigmaCocycle, tau: TauCocycle) -> bool:
    """The cocycle compatibility making the bicrossed product a Hopf algebra."""
    L, Gamma = mp.L, mp.Gamma
    for s in L.elements():
        for t in L.elements():
            st = L.mul(s, t)
            for x in Gamma.elements():
                tx = mp.ra(t, x)
                t_lact_x = mp.la(t, x)
                s_prime = mp.la(s, tx)
                for y in Gamma.elements():
                    lhs = sigma.value(st, x, y) + tau.value(Gamma.mul(x, y), s, t)
                    rhs = sigma.value(s, tx, mp.ra(t_lact_x, y)) \
                        + sigma.value(t, x, y) \
                        + tau.value(x, s, t) \
                        + tau.value(y, s_prime, t_lact_x)
                    if lhs != rhs:
                        return False
    return True


# ---------------------------------------------------------------------------
# the bicrossed product as a structure-constant bialgebra
# ---------------------------------------------------------------------------


def _bicrossed_conductor(sigma, tau, group=None):
    dens = [1]
    for plane in sigma.table:
        for row in plane:
            dens.extend(v.den for v in row)
    for plane in tau.table:
        for row in plane:
            dens.extend(v.den for v in row)
    if group is not None:
        dens.append(group.exponent)
    return math.lcm(*dens)


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
    dim = L.n * Gamma.n
    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for l in L.elements():
        for g in Gamma.elements():
            row = basis_index(mp, l, g)
            target_t = mp.la(l, g)
            for h in Gamma.elements():
                coeff = Cyclo.embed(sigma.value(l, g, h), N)
                mult[row][basis_index(mp, target_t, h)] = \
                    ((basis_index(mp, l, Gamma.mul(g, h)), coeff),)
    comult = []
    for l in L.elements():
        for g in Gamma.elements():
            entry = []
            for u in L.elements():
                rest = L.mul(L.inv[u], l)
                coeff = Cyclo.embed(tau.value(g, u, rest), N)
                entry.append((basis_index(mp, u, mp.ra(rest, g)),
                              basis_index(mp, rest, g), coeff))
            comult.append(tuple(entry))
    one = Cyclo.one(N)
    unit = {basis_index(mp, l, Gamma.identity): one for l in L.elements()}
    counit = [one if l == L.identity else Cyclo.zero(N)
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
        L, Gamma = mp.L, mp.Gamma
        g, h, f = self.g, self.h, self.ftilde
        if len(f) != Gamma.n or any(len(row) != L.n for row in f):
            return False
        for l in L.elements():
            for gam in Gamma.elements():
                if mp.la(g(l), h(gam)) != g(mp.la(l, gam)):
                    return False
                if mp.ra(g(l), h(gam)) != h(mp.ra(l, gam)):
                    return False
        ginv = self.g.inverse()
        for gam in Gamma.elements():
            if not f[gam][L.identity].is_zero():
                return False
        for l in L.elements():
            if not f[Gamma.identity][l].is_zero():
                return False
        for gam in Gamma.elements():
            for eta in Gamma.elements():
                ge = Gamma.mul(gam, eta)
                for l in L.elements():
                    if f[ge][l] != f[gam][l] + f[eta][mp.la(l, h(gam))]:
                        return False
        for gam in Gamma.elements():
            for l in L.elements():
                for t in L.elements():
                    if f[gam][L.mul(l, t)] != \
                            f[mp.ra(ginv(t), gam)][l] + f[gam][t]:
                        return False
        return True

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


def default_root_bound(mp: MatchedPair) -> int:
    """lcm(exp L, exp Gamma, |L|): covers every example family we know of."""
    return math.lcm(mp.L.exponent, mp.Gamma.exponent, mp.L.n)


def all_automorphisms(group: FiniteGroup, limit: int = 12) -> list[GroupAut]:
    """Every automorphism of a small group, brute-forced over image tables."""
    if group.n > limit:
        raise ValueError(f"automorphism enumeration is limited to order {limit}")
    out = []
    for images in itertools.permutations(range(group.n)):
        if images[group.identity] != group.identity:
            continue
        ok = True
        for a in range(group.n):
            for b in range(group.n):
                if images[group.mul(a, b)] != group.mul(images[a], images[b]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(GroupAut(group, images))
    return out


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
    for l in L.elements():
        for gam in Gamma.elements():
            if mp.la(g(l), h(gam)) != g(mp.la(l, gam)):
                return []
            if mp.ra(g(l), h(gam)) != h(mp.ra(l, gam)):
                return []
    nvars = Gamma.n * L.n

    def var(gam, l):
        return gam * L.n + l

    rows = []
    for gam in Gamma.elements():
        row = [0] * nvars
        row[var(gam, L.identity)] = 1
        rows.append(row)
    for l in L.elements():
        row = [0] * nvars
        row[var(Gamma.identity, l)] = 1
        rows.append(row)
    for gam in Gamma.elements():
        for eta in Gamma.elements():
            ge = Gamma.mul(gam, eta)
            for l in L.elements():
                row = [0] * nvars
                row[var(ge, l)] += 1
                row[var(gam, l)] -= 1
                row[var(eta, mp.la(l, h(gam)))] -= 1
                if any(row):
                    rows.append(row)
    ginv = g.inverse()
    for gam in Gamma.elements():
        for l in L.elements():
            for t in L.elements():
                row = [0] * nvars
                row[var(gam, L.mul(l, t))] += 1
                row[var(mp.ra(ginv(t), gam), l)] -= 1
                row[var(gam, t)] -= 1
                if any(row):
                    rows.append(row)
    solutions = solve_homogeneous_mod(rows, N)
    out = []
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    Hc = H.lifted(math.lcm(H.conductor, N))
    is_morphism = _morphism_check(Hc)
    for sol in sorted(solutions):
        ftilde = [[Rational01(sol[var(gam, l)], N) for l in L.elements()]
                  for gam in Gamma.elements()]
        aut = ExtAutomorphism(g, h, ftilde)
        if not aut.validate(mp):
            raise AssertionError("solver produced an invalid automorphism")
        m = aut.matrix(mp)
        cols = [m.column(j, Hc.conductor) for j in range(m.dim)]
        if not is_morphism(cols):
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
    sup = support(H, action, group)
    return all(beta.eval(g, h).is_zero() for g in sup for h in sup)


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
    """
    dual = FinAbGroup(group.orders)
    auts = {}
    for a in dual.elements():
        if a not in rho:
            raise ValueError("rho must cover the whole dual group")
        aut = rho[a]
        if not aut.validate(mp):
            raise ValueError("rho contains an invalid extension automorphism")
        auts[a.residues] = aut
    identity_res = dual.identity().residues
    if not (auts[identity_res].g.is_identity()
            and auts[identity_res].h.is_identity()
            and all(v.is_zero() for row in auts[identity_res].ftilde for v in row)):
        raise ValueError("rho must send the trivial character to the identity")
    is_hom = True
    elems = list(dual.elements())
    mats = {a.residues: auts[a.residues].matrix(mp) for a in elems}
    for a in elems:
        for b in elems:
            if mats[(a * b).residues] != mats[a.residues] * mats[b.residues]:
                is_hom = False
                break
        if not is_hom:
            break

    L, Gamma = mp.L, mp.Gamma
    pairs = [(l, gam) for l in L.elements() for gam in Gamma.elements()]
    a_fix = {}
    for l, gam in pairs:
        a_fix[(l, gam)] = [a for a in elems
                           if auts[a.residues].g(l) == l and auts[a.residues].h(gam) == gam]
    chi_of = {g.residues: beta.chi(g).as_element() for g in group.elements()}
    g_fix = {}
    for key, fixers in a_fix.items():
        fixer_set = {a.residues for a in fixers}
        g_fix[key] = [g for g in group.elements() if chi_of[g.residues].residues in fixer_set]

    cond_i = True
    cond_ii = True
    cond_iii = True
    witness = {"i": None, "ii": None, "iii": None}
    for (u, eta) in pairs:
        Gue = g_fix[(u, eta)]
        # characters of A trivial on G^u_eta
        perp_set = [a for a in elems
                    if all(Character(group, a.residues)(g).is_zero() for g in Gue)]
        chi_ue = {}
        for g in Gue:
            a = chi_of[g.residues]
            chi_ue[g.residues] = auts[a.residues].ftilde[eta][u]
        for (l, gam) in pairs:
            fixers = {a.residues for a in a_fix[(l, gam)]}
            if cond_i and not all(a.residues in fixers for a in perp_set):
                cond_i = False
                witness["i"] = (u, eta, l, gam)
            matches = [a for a in a_fix[(l, gam)]
                       if all(Character(group, a.residues)(g) == chi_ue[g.residues]
                              for g in Gue)]
            if not matches:
                if cond_ii:
                    cond_ii = False
                    witness["ii"] = (u, eta, l, gam)
                continue
            for a in matches:
                if not auts[a.residues].ftilde[gam][l].is_zero():
                    if cond_iii:
                        cond_iii = False
                        witness["iii"] = (u, eta, l, gam, a.residues)
                    break
    return {
        "rho_is_homomorphism": is_hom,
        "condition_i": cond_i,
        "condition_ii": cond_ii,
        "condition_iii": cond_iii,
        "all": cond_i and cond_ii and cond_iii,
        "witness": witness,
    }


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


def validate_z(z: ZMap) -> bool:
    """The two comodule-compatibility identities for the grading map."""
    mp = z.mp
    L, Gamma = mp.L, mp.Gamma
    for l in L.elements():
        for g in Gamma.elements():
            for h in Gamma.elements():
                if z.degree(l, Gamma.mul(g, h)) != \
                        z.degree(l, g) * z.degree(mp.la(l, g), h):
                    return False
    for l in L.elements():
        for t in L.elements():
            for g in Gamma.elements():
                if z.degree(L.mul(l, t), g) != \
                        z.degree(l, mp.ra(t, g)) * z.degree(t, g):
                    return False
    return True


def color_compatibility(mp: MatchedPair, sigma: SigmaCocycle, tau: TauCocycle,
                        z: ZMap, beta: Bicharacter) -> bool:
    """The exact condition for the graded bicrossed product to be color Hopf."""
    if not validate_z(z):
        return False
    L, Gamma = mp.L, mp.Gamma
    for l in L.elements():
        for t in L.elements():
            lt = L.mul(l, t)
            for g in Gamma.elements():
                tg = mp.ra(t, g)          # t |> gamma
                t_la_g = mp.la(t, g)      # t <| gamma
                l2 = mp.la(l, tg)         # l <| (t |> gamma)
                for h in Gamma.elements():
                    rh = mp.ra(t_la_g, h)  # (t <| gamma) |> eta
                    lhs = sigma.value(lt, g, h) + tau.value(Gamma.mul(g, h), l, t)
                    rhs = beta.eval(z.degree(t, g), z.degree(l2, rh)) \
                        + tau.value(g, l, t) \
                        + tau.value(h, l2, t_la_g) \
                        + sigma.value(l, tg, rh) \
                        + sigma.value(t, g, h)
                    if lhs != rhs:
                        return False
    return True


def check_split_color_extension(mp: MatchedPair, sigma: SigmaCocycle,
                                tau: TauCocycle, ztilde, group: FinAbGroup,
                                beta: Bicharacter) -> dict:
    """Colorability conditions when the right action is trivial.

    Verifies: each ztilde(gamma) is a homomorphism L -> G and ztilde is a
    1-cocycle for the <|-action; the sigma compatibility
    sigma_{lt} = beta(ztilde(gamma)(t), ztilde(eta)(l <| gamma)) sigma_l sigma_t;
    and that tau is a 1-cocycle valued in plain 2-cocycles of L.  The
    conjunction predicts the color-Hopf verification of the graded object.
    """
    if not mp.ract_trivial():
        raise RactNotTrivial("this check applies only to trivial right actions")
    L, Gamma = mp.L, mp.Gamma
    report = {}
    ok = True
    for gam in Gamma.elements():
        for l in L.elements():
            for t in L.elements():
                if ztilde[gam][L.mul(l, t)] != ztilde[gam][l] * ztilde[gam][t]:
                    ok = False
    report["ztilde_homomorphisms"] = ok
    ok = True
    for gam in Gamma.elements():
        for eta in Gamma.elements():
            ge = Gamma.mul(gam, eta)
            for l in L.elements():
                if ztilde[ge][l] != ztilde[gam][l] * ztilde[eta][mp.la(l, gam)]:
                    ok = False
    report["ztilde_cocycle"] = ok
    ok = True
    for l in L.elements():
        for t in L.elements():
            lt = L.mul(l, t)
            for gam in Gamma.elements():
                for eta in Gamma.elements():
                    lhs = sigma.value(lt, gam, eta)
                    rhs = beta.eval(ztilde[gam][t], ztilde[eta][mp.la(l, gam)]) \
                        + sigma.value(l, gam, eta) + sigma.value(t, gam, eta)
                    if lhs != rhs:
                        ok = False
    report["sigma_compatibility"] = ok
    ok = True
    for gam in Gamma.elements():
        for v in L.elements():
            for w in L.elements():
                for m in L.elements():
                    lhs = tau.value(gam, v, w) + tau.value(gam, L.mul(v, w), m)
                    rhs = tau.value(gam, w, m) + tau.value(gam, v, L.mul(w, m))
                    if lhs != rhs:
                        ok = False
    report["tau_pointwise_cocycle"] = ok
    ok = True
    for gam in Gamma.elements():
        for eta in Gamma.elements():
            ge = Gamma.mul(gam, eta)
            for l in L.elements():
                for t in L.elements():
                    if tau.value(ge, l, t) != \
                            tau.value(gam, l, t) + tau.value(eta, mp.la(l, gam), mp.la(t, gam)):
                        ok = False
    report["tau_gamma_cocycle"] = ok
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
        self.mul_table = tuple(tuple(row) for row in mul_table)
        if len(self.mul_table) != n or any(len(r) != n for r in self.mul_table):
            raise ValueError("multiplication table has the wrong shape")
        self.additive = FiniteGroup.from_fin_ab(self.add_group)
        add = self.additive.table
        self.zero = 0
        one = None
        for e in range(n):
            if all(self.mul_table[e][x] == x == self.mul_table[x][e] for x in range(n)):
                one = e
                break
        if one is None:
            raise ValueError("ring has no unit")
        self.one = one
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


@dataclass
class RingFamilyData:
    mp: MatchedPair
    sigma: SigmaCocycle
    beta: Bicharacter
    z: ZMap
    group: FinAbGroup
    split: dict


def ring_family(R: FiniteRing, Gamma: FiniteGroup, nu, psi, phi, eta,
                theta) -> RingFamilyData:
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
    machinery; that report is kept as ``split``.
    """
    G = R.add_group
    n = R.n
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
    if nu[Gamma.identity] != R.one:
        raise ValueError("nu must be unital")
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

    ztable = [[elems[R.mul(l, psi[g])] for g in Gamma.elements()] for l in range(n)]
    z = ZMap(mp, G, ztable)
    if not validate_z(z):
        raise AssertionError("ring data produced an invalid grading map")
    ztilde = [[elems[R.mul(l, psi[g])] for l in range(n)] for g in Gamma.elements()]
    split = check_split_color_extension(mp, sigma, TauCocycle.trivial(mp),
                                        ztilde, G, beta)
    if not (split["ztilde_homomorphisms"] and split["ztilde_cocycle"]
            and split["sigma_compatibility"]):
        raise AssertionError("ring data violates the split compatibility")
    return RingFamilyData(mp=mp, sigma=sigma, beta=beta, z=z, group=G, split=split)
