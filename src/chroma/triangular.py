"""Reduction of a commutation factor to nondegenerate triangular data.

Pipeline: from a commutation factor beta on G, compute the Drinfeld
element u(g) = beta(g, g^{-1}) = beta(g, g), the +-1 correction kappa,
the reduced nondegenerate bicharacter beta' on G' = G/radical(beta*kappa),
the dual subgroup K = radical^perp, and a normalized 2-cocycle gamma'
whose antisymmetrization recovers beta'.  The emitted report carries the
data (A, K, gamma') that classifies the associated triangular structure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .groups import (Bicharacter, Element, FinAbGroup, QuotientMap,
                     Subgroup, perp, quotient)
from .scalars import R01_HALF, R01_ZERO, Rational01


class NotCommutationFactor(ValueError):
    """The given bicharacter is not skew-symmetric."""


class CocycleTable:
    """A table (x, y) -> root-of-unity exponent on a finite abelian group."""

    __slots__ = ("group", "_table")

    def __init__(self, group: FinAbGroup, table: dict):
        self.group = group
        self._table = dict(table)

    def value(self, x: Element, y: Element) -> Rational01:
        return self._table[(x.residues, y.residues)]

    def items(self):
        return self._table.items()

    def to_json(self) -> list:
        """Rows [x, y, str(value)] in sorted (x, y) order.  Rows share one
        list per residue and one str per distinct value object; the sort
        is a linear pass over a table built in this order."""
        lists = {g.residues: list(g.residues) for g in self.group.elements()}
        distinct = {id(v): v for v in self._table.values()}
        texts = {key: str(v) for key, v in distinct.items()}
        return [[lists[x], lists[y], texts[id(v)]]
                for (x, y), v in sorted(self._table.items())]


def drinfeld_u(beta: Bicharacter) -> dict[Element, Rational01]:
    """u(g) = beta(g, g^{-1}); for a commutation factor this is beta(g, g)."""
    if not beta.is_commutation_factor():
        raise NotCommutationFactor("drinfeld element needs a commutation factor")
    e, ints = beta._exponent, beta._ints
    out = {}
    for g in beta.group.elements():
        r = g.residues
        v = sum(gi * sum(map(operator.mul, row, r)) for gi, row in zip(r, ints)) % e
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
    e, ints = beta_p._exponent, beta_p._ints
    n = G.rank
    if any(ints[i][i] % e for i in range(n)):
        raise ValueError("diagonal of the bicharacter must be trivial")
    residues = sorted(x.residues for x in G.elements())   # the report's order
    roots = {0: R01_ZERO}   # exponent over e -> its Rational01, built once
    table = {}
    for x in residues:
        # gamma(x, y) = sum_j row[j] y_j / e with row[j] = sum_{i>j} x_i B_ij
        row = [sum(x[i] * ints[i][j] for i in range(j + 1, n)) for j in range(n)]
        for y in residues:
            v = sum(map(operator.mul, row, y)) % e
            root = roots.get(v)
            if root is None:
                root = roots[v] = Rational01(v, e)
            table[(x, y)] = root
    return CocycleTable(G, table)


def _check_reduction(bk: Bicharacter, beta_p: Bicharacter, qm: QuotientMap) -> None:
    """Self-checks of the reduction; a failure is an internal error.

    beta_p(x, y) == bk(lift x, lift y) on all pairs of G', so beta_p is
    well defined; beta_p(x, x) == 1; beta_p is nondegenerate.  One lift
    per element of G', then integer sums over exp(G).
    """
    e, ep = bk._exponent, beta_p._exponent
    scale = e // ep     # exp(G') divides exp(G)
    Gp = beta_p.group
    points = []         # (lift x ++ x, combined row form of x)
    for x in Gp.elements():
        xr, lift = x.residues, qm.lift(x).residues
        row_p = [sum(map(operator.mul, col, xr)) for col in zip(*beta_p._ints)]
        if sum(map(operator.mul, row_p, xr)) % ep:
            raise AssertionError("reduced bicharacter must have trivial diagonal")
        row = [sum(map(operator.mul, col, lift)) for col in zip(*bk._ints)]
        points.append((lift + xr, row + [-scale * b for b in row_p]))
    for _, row in points:
        for y, _ in points:
            if sum(map(operator.mul, row, y)) % e:
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
    # induced bicharacter on the quotient via lifts of its generators; it
    # is well defined because the radical is in both kernels
    lifts = [qm.lift(e) for e in Gp.generators()]
    beta_p = Bicharacter(Gp, [[bk.eval(a, b) for b in lifts] for a in lifts])
    _check_reduction(bk, beta_p, qm)
    k_sub = perp(rad)
    gamma = scheunert_cocycle(beta_p)
    return TriangularData(group=G, u=u, kappa=kappa, quotient_map=qm,
                          beta_prime=beta_p, k_subgroup=k_sub, gamma_prime=gamma)


def emit_triangular(data: TriangularData) -> dict:
    """JSON-ready report: dual group, K, u values, and the twist table."""
    return {
        "schema": 1,
        "group": data.group.to_json(),
        "dual_group": data.group.to_json(),
        "u": [[list(g.residues), str(v)] for g, v in sorted(
            data.u.items(), key=lambda kv: kv[0].residues)],
        "G_prime": data.g_prime.to_json(),
        "K": [list(r) for r in sorted(data.k_subgroup.element_set)],
        "gamma_prime": data.gamma_prime.to_json(),
    }
