"""Reduction of a commutation factor to nondegenerate triangular data.

Pipeline: from a commutation factor beta on G, compute the Drinfeld
element u(g) = beta(g, g^{-1}) = beta(g, g), the +-1 correction kappa,
the reduced nondegenerate bicharacter beta' on G' = G/radical(beta*kappa),
the dual subgroup K = radical^perp, and a normalized 2-cocycle gamma'
whose antisymmetrization recovers beta'.  The emitted report carries the
data (A, K, gamma') that classifies the associated triangular structure.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .groups import (Bicharacter, Element, FinAbGroup, QuotientMap,
                     Subgroup, perp, quotient)
from .scalars import R01_HALF, R01_ZERO, Rational01


class NotCommutationFactor(ValueError):
    """The given bicharacter is not skew-symmetric."""


class CocycleTable:
    """A table (x, y) -> root-of-unity exponent on a finite abelian group,
    kept as the sorted residues (the report's order) and the row-major
    list of values over them, x the row.  ``table`` is that list, or a
    dict on every pair, put in that order once."""

    __slots__ = ("group", "_residues", "_values")

    def __init__(self, group: FinAbGroup, table: dict | list):
        self.group = group
        self._residues = residues = list(itertools.product(*map(range, group.orders)))
        if len(table) != len(residues) ** 2:
            raise ValueError("a cocycle table has one value per pair of elements")
        self._values = ([table[x, y] for x in residues for y in residues]
                        if isinstance(table, dict) else list(table))

    def value(self, x: Element, y: Element) -> Rational01:
        i = j = 0
        for a, b, o in zip(x.residues, y.residues, self.group.orders):
            i, j = i * o + a, j * o + b
        return self._values[i * len(self._residues) + j]

    def items(self):
        """((x, y), value) pairs in sorted (x, y) order."""
        return zip(itertools.product(self._residues, repeat=2), self._values)

    def to_json(self) -> list:
        """Rows [x, y, str(value)] in sorted (x, y) order, with no sort:
        rows share one list per residue and one str per distinct value
        object, and are zipped from three columns."""
        values = self._values
        texts = {key: str(v) for key, v in dict(zip(map(id, values), values)).items()}
        lists = [list(r) for r in self._residues]
        n = len(lists)
        xs = itertools.chain.from_iterable(map(itertools.repeat, lists, itertools.repeat(n)))
        return list(map(list, zip(xs, lists * n, map(texts.__getitem__, map(id, values)))))


def drinfeld_u(beta: Bicharacter) -> dict[Element, Rational01]:
    """u(g) = beta(g, g^{-1}); for a commutation factor this is beta(g, g)."""
    if not beta.is_commutation_factor():
        raise NotCommutationFactor("drinfeld element needs a commutation factor")
    G, e = beta.group, beta.exponent
    out = {}
    # beta(g, g) = sum_j g_j row_j / e, the row of g built one coordinate
    # at a time: O(rank) per element
    for g, row in zip(G.elements(), G.linear_images(beta.ints, G.rank)):
        v = sum(map(operator.mul, row, g.residues)) % e
        if 2 * v not in (0, e):
            raise AssertionError("u must take values in {1, -1}")
        out[g] = R01_HALF if v else R01_ZERO
    return out


def kappa_bicharacter(u: dict[Element, Rational01], group: FinAbGroup) -> Bicharacter:
    """kappa(g,h) = -1 iff u(g) = u(h) = -1, else 1."""
    signs = [1 if u[g] == R01_HALF else 0 for g in group.generators()]
    matrix = [[R01_HALF if si and sj else R01_ZERO for sj in signs] for si in signs]
    return Bicharacter(group, matrix)


@dataclass
class TriangularData:
    group: FinAbGroup
    u: dict[Element, Rational01]
    kappa: Bicharacter
    quotient_map: QuotientMap
    beta_prime: Bicharacter
    k_subgroup: Subgroup          # inside the dual group
    gamma_prime: CocycleTable

    @property
    def g_prime(self) -> FinAbGroup:
        return self.quotient_map.quotient


def scheunert_cocycle(beta_p: Bicharacter) -> CocycleTable:
    """A normalized 2-cocycle gamma with gamma(x,y)/gamma(y,x) = beta_p(x,y).

    Requires a commutation factor with trivial diagonal.  The cocycle is
    the lower-triangular bilinear form gamma(x,y) = prod_{i>j}
    beta_p(e_i,e_j)^{x_i y_j}, which is deterministic and normalized.
    """
    G = beta_p.group
    if not beta_p.is_commutation_factor():
        raise NotCommutationFactor("scheunert cocycle needs a commutation factor")
    e, ints = beta_p.exponent, beta_p.ints
    n = G.rank
    if any(ints[i][i] % e for i in range(n)):
        raise ValueError("diagonal of the bicharacter must be trivial")
    exps = []
    for x in itertools.product(*map(range, G.orders)):   # sorted: the report's order
        # gamma(x, y) = sum_j row[j] y_j / e with row[j] = sum_{i>j} x_i B_ij,
        # expanded over y one coordinate at a time, the first slowest
        row = [0]
        for j, o in enumerate(G.orders):
            c = sum(x[i] * ints[i][j] for i in range(j + 1, n))
            row = [v + c * r for v in row for r in range(o)]
        exps += row
    exps = [v % e for v in exps]
    roots = {v: Rational01(v, e) if v else R01_ZERO for v in set(exps)}
    return CocycleTable(G, list(map(roots.__getitem__, exps)))


def _check_reduction(bk: Bicharacter, beta_p: Bicharacter, qm: QuotientMap) -> None:
    """Self-checks of the reduction; a failure is an internal error.

    beta_p must be well defined (beta_p(x, y) == bk(lift x, lift y) on all
    pairs of G'), trivial on the diagonal and nondegenerate.  No pair of
    G' x G' is swept: with e_k the generators of G' and L_k = lift e_k,
    three integer checks over exp(G) cost O(rank^2) on the generators and
    O(rank^2) per element of G':

    (a) beta_p(x, x) = sum_i x_i^2 B'_ii + sum_{i<j} x_i x_j (B'_ij + B'_ji)
        (over exp(G')) is 0 for every x exactly when every B'_ii and every
        B'_ij + B'_ji is (take x = e_i, then x = e_i + e_j);
    (b) bk(L_k, L_l) == beta_p(e_k, e_l) on the generator pairs;
    (c) for every x, the bk-row of lift x (its values against the
        generators of G) is sum_k x_k times the bk-row of L_k, i.e. lift x
        - sum_k x_k L_k lies in the radical of bk.  The expected rows are
        expanded one coordinate at a time, in elements() order.

    (b) and (c) give the pair condition by bilinearity: bk(lift x, lift y)
    = prod_{k,l} bk(L_k, L_l)^{x_k y_l} = beta_p(x, y), since bk, a
    commutation factor, is 1 against its radical on either side.  So every
    failure of an all-pairs sweep is found, with the same message: (a) is
    its diagonal test, (b) and (c) its pair test.
    """
    e, ep = bk.exponent, beta_p.exponent
    scale = e // ep     # exp(G') divides exp(G)
    Gp, Bp = beta_p.group, beta_p.ints
    m = Gp.rank
    if (any(Bp[i][i] % ep for i in range(m))
            or any((Bp[i][j] + Bp[j][i]) % ep for i in range(m) for j in range(i))):
        raise AssertionError("reduced bicharacter must have trivial diagonal")
    cols = tuple(zip(*bk.ints))    # bk(g, g_j) = sum_i g_i ints[i][j] / e
    lifts = [qm.lift(g).residues for g in Gp.generators()]
    rows = [[sum(map(operator.mul, col, lift)) for col in cols] for lift in lifts]
    for row, row_p in zip(rows, Bp):
        if any((sum(map(operator.mul, row, lift)) - scale * b) % e
               for lift, b in zip(lifts, row_p)):
            raise AssertionError("induced bicharacter is not well defined")
    for x, expected in zip(Gp.elements(), Gp.linear_images(rows, len(cols))):
        lift = qm.lift(x).residues
        if any((sum(map(operator.mul, col, lift)) - v) % e for col, v in zip(cols, expected)):
            raise AssertionError("induced bicharacter is not well defined")
    if not beta_p.is_nondegenerate():
        raise AssertionError("reduced bicharacter must be nondegenerate")


def reduce_commutation_factor(beta: Bicharacter) -> TriangularData:
    """Full reduction: u, kappa, G', beta', K, and the Scheunert cocycle."""
    if not beta.is_commutation_factor():
        raise NotCommutationFactor("reduction needs a commutation factor")
    G = beta.group
    u = drinfeld_u(beta)
    kappa = kappa_bicharacter(u, G)
    bk = beta * kappa
    rad = bk.radical()
    qm = quotient(G, rad)
    Gp = qm.quotient
    k_sub = perp(rad)
    # a quotient by more than the radical passes every check on G' below
    if Gp.order * rad.order != G.order or k_sub.order != Gp.order:
        raise AssertionError("|G'| must be |G| / |radical| = |K|")
    # induced bicharacter on the quotient via lifts of its generators; it
    # is well defined because the radical is in both kernels
    lifts = [qm.lift(e) for e in Gp.generators()]
    beta_p = Bicharacter(Gp, [[bk.eval(a, b) for b in lifts] for a in lifts])
    _check_reduction(bk, beta_p, qm)
    gamma = scheunert_cocycle(beta_p)
    return TriangularData(group=G, u=u, kappa=kappa, quotient_map=qm,
                          beta_prime=beta_p, k_subgroup=k_sub, gamma_prime=gamma)


def emit_triangular(data: TriangularData) -> dict:
    """JSON-ready report: dual group, K, u values, and the twist table."""
    return {
        "group": data.group.to_json(),
        "dual_group": data.group.to_json(),
        "u": [[list(g.residues), str(v)] for g, v in sorted(
            data.u.items(), key=lambda kv: kv[0].residues)],
        "G_prime": data.g_prime.to_json(),
        "K": [list(r) for r in sorted(data.k_subgroup.element_set)],
        "gamma_prime": data.gamma_prime.to_json(),
    }
