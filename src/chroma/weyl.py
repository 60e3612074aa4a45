"""Cartan entries, matrix and datum reflections, and reflection orbits.

The Cartan entry a_pj is the least n >= 0 killing
(1 + q_pp + ... + q_pp^n)(1 - q_pp^n q_pj q_jp), negated; a vertex p is
reflectable when every a_pj is finite.  Reflections are involutive, and
the twisted matrix of a reflected datum satisfies the same transformation
rule as the braiding matrix itself, which ``reflect_datum`` re-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datum import BraidingMatrix, Datum, DiagonalOne, ScalarMatrix
from .scalars import Rational01, Scalar, order_of, solve_power


class NotReflectable(ValueError):
    """Some Cartan entry at the requested vertex is infinite."""


def cartan_entry(q: BraidingMatrix, p: int, j: int) -> int | None:
    """a_pj (an integer <= 0, or 2 on the diagonal); None when undefined."""
    if p == j:
        return 2
    n1 = solve_power(q[p, p], (q[p, j] * q[j, p]).inverse())
    ord_pp = order_of(q[p, p])
    n2 = ord_pp - 1 if ord_pp is not None else None
    candidates = [n for n in (n1, n2) if n is not None]
    if not candidates:
        return None
    return -min(candidates)


def cartan_row(q: BraidingMatrix, p: int) -> list[int] | None:
    row = []
    for j in range(q.theta):
        a = cartan_entry(q, p, j)
        if a is None:
            return None
        row.append(a)
    return row


def _reflect_entries(m: ScalarMatrix, p: int, a: list[int]) -> list[list[Scalar]]:
    """Entries m_ij m_pj^{-a_i} m_ip^{-a_j} m_pp^{a_i a_j}, taken in log space.

    Root parts become integers over one common denominator D and variable
    parts integer exponents, so each entry is one integer combination
    log m_ij - a_i log m_pj - a_j log m_ip + a_i a_j log m_pp.
    """
    rows = m.entries
    D = math.lcm(*(s.root.den for row in rows for s in row))
    logs = [[(s.root.num * (D // s.root.den), s.exps) for s in row] for row in rows]
    r_pp, e_pp = logs[p][p]
    out = []
    for i, row in enumerate(logs):
        ai = a[i]
        r_ip, e_ip = row[p]
        new_row = []
        for j, (r_ij, e_ij) in enumerate(row):
            aj = a[j]
            r_pj, e_pj = logs[p][j]
            num = r_ij - ai * r_pj - aj * r_ip + ai * aj * r_pp
            if e_pj or e_ip or e_pp:
                exps = dict(e_ij)
                for terms, c in ((e_pj, -ai), (e_ip, -aj), (e_pp, ai * aj)):
                    if c:
                        for name, e in terms:
                            exps[name] = exps.get(name, 0) + c * e
                e_ij = tuple(sorted((n, e) for n, e in exps.items() if e))
            new_row.append(Scalar._make(Rational01(num, D), e_ij))
        out.append(new_row)
    return out


def reflect_matrix(q: BraidingMatrix, p: int) -> BraidingMatrix:
    """The reflected matrix q'_ij = q_ij q_pj^{-a_pi} q_ip^{-a_pj} q_pp^{a_pi a_pj}."""
    a = cartan_row(q, p)
    if a is None:
        raise NotReflectable(f"vertex {p} has an infinite Cartan entry")
    return BraidingMatrix(_reflect_entries(q, p, a))


def reflect_datum(E: Datum, p: int) -> Datum:
    """Reflect a datum: q' = s_p q and t'_i = t_i * t_p^{-a_pi}.

    The reflected twisted matrix must transform by the same rule as q;
    this identity is recomputed and enforced.
    """
    a = cartan_row(E.q, p)
    if a is None:
        raise NotReflectable(f"vertex {p} has an infinite Cartan entry")
    q_new = BraidingMatrix(_reflect_entries(E.q, p, a))
    t_new = tuple(E.t[i] * (E.t[p] ** (-a[i])) for i in range(E.theta))
    result = Datum._reflected(E, q_new, t_new)
    expected = _reflect_entries(E.qt, p, a)
    for i, (got_row, want_row) in enumerate(zip(result.qt.entries, expected)):
        for j, (got, want) in enumerate(zip(got_row, want_row)):
            if got != want:
                raise AssertionError(
                    f"twisted matrix does not satisfy the reflection identity "
                    f"at ({i},{j})")
    return result


def reflectable_vertices(E: Datum) -> list[int]:
    """Vertices with finite Cartan rows whose reflection stays a datum.

    Finiteness of the Cartan row does not by itself keep the reflected
    diagonal away from 1 on arbitrary matrices, so the reflection is
    attempted.
    """
    out = []
    for p in range(E.theta):
        try:
            reflect_datum(E, p)
        except (NotReflectable, DiagonalOne):
            continue
        out.append(p)
    return out


@dataclass
class OrbitGraph:
    nodes: list[Datum]
    edges: list[tuple[int, int, int]]  # (source index, vertex p, target index)
    truncated: bool = False


def weyl_orbit(E: Datum, max_nodes: int = 1024) -> OrbitGraph:
    """Breadth-first closure of a datum under all reflections.

    Node identity is exact datum equality.  Vertices with an infinite
    Cartan entry, or whose reflection has a diagonal entry 1, are
    skipped.  When the closure would exceed ``max_nodes`` the graph is
    returned with ``truncated=True``.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    nodes = [E]
    index = {E: 0}
    edges = []
    truncated = False
    frontier = [0]
    while frontier:
        next_frontier = []
        for src in frontier:
            current = nodes[src]
            for p in range(current.theta):
                try:
                    reflected = reflect_datum(current, p)
                except (NotReflectable, DiagonalOne):
                    continue
                if reflected in index:
                    tgt = index[reflected]
                else:
                    if len(nodes) >= max_nodes:
                        truncated = True
                        continue
                    tgt = len(nodes)
                    nodes.append(reflected)
                    index[reflected] = tgt
                    next_frontier.append(tgt)
                edges.append((src, p, tgt))
        frontier = next_frontier
    return OrbitGraph(nodes=nodes, edges=edges, truncated=truncated)


def check_consistent_coloring(orbit: OrbitGraph) -> bool:
    """Re-verify that every stored edge is an exact reflection."""
    for src, p, tgt in orbit.edges:
        try:
            if reflect_datum(orbit.nodes[src], p) != orbit.nodes[tgt]:
                return False
        except (NotReflectable, DiagonalOne, AssertionError):
            return False
    return True
