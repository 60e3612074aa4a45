"""Cartan entries, matrix and datum reflections, and reflection orbits.

The Cartan entry a_pj is the least n >= 0 killing
(1 + q_pp + ... + q_pp^n)(1 - q_pp^n q_pj q_jp), negated; a vertex p is
reflectable when every a_pj is finite.  Reflections are involutive, and
the twisted matrix of a reflected datum satisfies the same transformation
rule as the braiding matrix itself, which every reflection re-checks.
One integer kernel (``_OrbitKernel``) holds the rule: orbits are searched
and re-checked on its keys, and the public functions encode one datum,
reflect it once and decode the result.  A bare braiding matrix is encoded
as a datum over the trivial group, where qt = q.  A kernel interns each
theta^2 plane of ints to a small id, so a key is (root id, exponent ids,
degrees) and the twisted payload one id, and memoises Cartan rows, plane
and degree reflections and the twist on those ids; the memos live and die
with the kernel, so no cache outlives one orbit search, one consistency
check or one public call.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .datum import BraidingMatrix, Datum, DiagonalOne, ScalarMatrix
from .groups import Bicharacter, Element, FinAbGroup
from .scalars import Rational01, Scalar, least_power


class NotReflectable(ValueError):
    """Some Cartan entry at the requested vertex is infinite."""


def _over_trivial_group(q: BraidingMatrix) -> Datum:
    """q as a datum over the trivial group: every degree is 1 and qt = q."""
    G = FinAbGroup.of()
    beta = Bicharacter.trivial(G)
    one = G.identity()
    return Datum._of_parts(q, G, beta, (one,) * q.theta, q, (beta.chi(one),) * q.theta)


def _encoded(E: Datum):
    """(kernel, key, payload) of one datum."""
    kernel = _OrbitKernel([E])
    return (kernel, *kernel.encode(E))


def cartan_entry(q: BraidingMatrix, p: int, j: int) -> int | None:
    """a_pj (an integer <= 0, or 2 on the diagonal); None when undefined."""
    kernel, key, _ = _encoded(_over_trivial_group(q))
    return kernel.cartan_entry(key, p, j)


def cartan_row(q: BraidingMatrix, p: int) -> list[int] | None:
    kernel, key, _ = _encoded(_over_trivial_group(q))
    return kernel.cartan_row(key, p)


def reflect_matrix(q: BraidingMatrix, p: int) -> BraidingMatrix:
    """The reflected matrix q'_ij = q_ij q_pj^{-a_pi} q_ip^{-a_pj} q_pp^{a_pi a_pj}."""
    return reflect_datum(_over_trivial_group(q), p).q


def reflect_datum(E: Datum, p: int) -> Datum:
    """Reflect a datum: q' = s_p q and t'_i = t_i * t_p^{-a_pi}.

    The reflected twisted matrix must transform by the same rule as q;
    this identity is recomputed and enforced.
    """
    kernel, key, payload = _encoded(E)
    a = kernel.cartan_row(key, p)
    if a is None:
        raise NotReflectable(f"vertex {p} has an infinite Cartan entry")
    reflected = kernel.apply(key, payload, p, a)
    if reflected is None:
        raise DiagonalOne(f"reflection at vertex {p} gives a diagonal entry 1")
    return kernel.datum(*reflected)


def reflectable_vertices(E: Datum) -> list[int]:
    """Vertices with finite Cartan rows whose reflection stays a datum.

    Finiteness of the Cartan row does not by itself keep the reflected
    diagonal away from 1 on arbitrary matrices, so the reflection is
    attempted, on E's key and without decoding.
    """
    kernel, key, payload = _encoded(E)
    return [p for p in range(E.theta)
            if (a := cartan_row(E.q, p)) is not None
            and kernel.apply(key, payload, p, a) is not None]


@dataclass
class OrbitGraph:
    nodes: list[Datum]
    edges: list[tuple[int, int, int]]  # (source index, vertex p, target index)
    truncated: bool = False


class _OrbitKernel:
    """Cartan rows and reflections along one orbit, on interned planes.

    Along an orbit theta, G, beta and the variable names never change, and
    every root of unity stays in mu_D, D = lcm(the root orders, exp G).  A
    plane is a tuple of theta^2 ints, row-major: the root numerators of q
    over D, one exponent plane per variable name, or the root numerators of
    qt.  Each plane is interned to a small id, one table per kernel, so a
    key is (root id, exponent ids in name order, degree residue tuples) and
    the payload, qt's plane, is one id.  Keys are equal exactly when the
    data are equal.  Each memo is a pure function of its key (listed in
    ``__init__``) and belongs to this kernel alone.  A reflected diagonal
    entry is 1 when it is 0 on every plane, read off one bitmask per plane,
    so a reflection whose memos all hit costs a few dict lookups.
    Re-checking the 1440 edges of the rank-4 reference orbit, one kernel
    computes 94 Cartan rows instead of 1440 and 1352 plane reflections
    instead of 4320, over 255 distinct planes, and compares the
    twisted-matrix identity on every reflection.
    """

    def __init__(self, nodes):
        # D and the names cover every datum in ``nodes``, which are all the
        # data this kernel will encode
        E = nodes[0]
        theta, G = E.theta, E.group
        self.theta, self.group, self.beta = theta, G, E.beta
        self.D = D = math.lcm(G.exponent, *(
            s.root.den for node in nodes for m in (node.q, node.qt)
            for row in m.entries for s in row))
        self.names = tuple(sorted({name for node in nodes for row in node.q.entries
                                   for s in row for name, _ in s.exps}))
        self.beta_ints = [[b.over(D) for b in row] for row in E.beta.matrix]
        self.size = theta * theta
        # (index in a plane, bit) of each diagonal entry
        self.diagonal = [(k, 1 << b) for b, k in enumerate(range(0, self.size, theta + 1))]
        self._planes = []       # id -> plane
        self._ids = {}          # plane -> id
        self._zeros = {}        # reflected id -> bitmask of its zero diagonal entries
        self._rows = {}         # (p, plane ids) -> Cartan row
        self._sums = {}         # (p, q_pj + q_jp on every plane) -> Cartan row
        self._reflected = {}    # (plane id, p, Cartan row, mod D) -> reflected id
        self._degrees = {}      # (degrees, p, Cartan row) -> reflected degrees
        self._twists = {}       # (root id, degrees) -> id of the twisted roots
        self._beta_planes = {}  # degrees -> beta(t_i, t_j) over D, row-major
        self._scalars = {}      # (root numerator, exponents) -> Scalar
        self._elements = {}     # residues -> (Element, its character)

    def _intern(self, plane: tuple) -> int:
        i = self._ids.setdefault(plane, len(self._planes))
        if i == len(self._planes):
            self._planes.append(plane)
        return i

    def encode(self, E: Datum):
        """(key, payload) of E; None when E has another size, group or
        beta, or when its qt and q differ in their variable parts."""
        if (E.theta, E.group, E.beta) != (self.theta, self.group, self.beta):
            return None
        q = [s for row in E.q.entries for s in row]
        qt = [s for row in E.qt.entries for s in row]
        exps = [s.exps for s in q]
        if exps != [s.exps for s in qt]:
            return None
        D, intern = self.D, self._intern
        columns = {name: [0] * self.size for name in self.names}
        for k, pairs in enumerate(exps):
            for name, e in pairs:
                columns[name][k] = e
        key = (intern(tuple([s.root.over(D) for s in q])),
               *[intern(tuple(column)) for column in columns.values()],
               tuple([x.residues for x in E.t]))
        return key, intern(tuple([s.root.over(D) for s in qt]))

    def cartan_entry(self, key: tuple, p: int, j: int) -> int | None:
        """``cartan_entry`` on a key: q_pp has finite order D / gcd(r_pp, D)
        iff its exponents vanish, and q_pp^n = (q_pj q_jp)^-1 is solved by
        ``least_power`` on the planes' integers."""
        if j == p:
            return 2
        theta, D = self.theta, self.D
        roots, *exps = [self._planes[i] for i in key[:-1]]
        pp, pj, jp = p * theta + p, p * theta + j, j * theta + p
        e_pp = [e[pp] for e in exps]
        n = least_power(D, roots[pp], -(roots[pj] + roots[jp]) % D, e_pp,
                        [-(e[pj] + e[jp]) for e in exps])
        if n is None:
            if any(e_pp):
                return None
            n = D // math.gcd(roots[pp], D) - 1
        return -n

    def cartan_row(self, key: tuple, p: int) -> list[int] | None:
        """The Cartan row at p, memoised on p and the plane ids, then on
        what it depends on: p and the sums q_pj + q_jp of every plane, j = p
        giving 2 q_pp."""
        ids = (p, *key[:-1])
        if ids not in self._rows:
            theta, start = self.theta, p * self.theta
            sums = [p]
            for i in key[:-1]:
                plane = self._planes[i]
                sums += map(operator.add, plane[start:start + theta], plane[p::theta])
            sums = tuple(sums)
            if sums not in self._sums:
                row = [self.cartan_entry(key, p, j) for j in range(theta)]
                self._sums[sums] = None if None in row else row
            self._rows[ids] = self._sums[sums]
        return self._rows[ids]

    def reflect(self, key: tuple, payload: int, p: int):
        """(key, payload) of the reflection at p; None when p is not
        reflectable or a reflected diagonal entry is 1."""
        a = self.cartan_row(key, p)
        return None if a is None else self.apply(key, payload, p, a)

    def apply(self, key: tuple, payload: int, p: int, a: list[int]):
        """(key, payload) of the reflection at p with Cartan row a; None
        when a reflected diagonal entry is 1.  The twisted roots must
        transform by the same rule as q: that identity is enforced."""
        a, reflect, zeros = tuple(a), self._reflect_plane, self._zeros
        ids = (reflect(key[0], p, a, True), *[reflect(i, p, a, False) for i in key[1:-1]])
        ones = -1
        for i in ids:
            ones &= zeros[i]
        if ones:
            return None
        t = key[-1]
        k = (t, p, a)
        degrees = self._degrees.get(k)
        if degrees is None:
            orders, t_p = self.group.orders, t[p]
            degrees = self._degrees[k] = tuple(
                tuple((x - ai * y) % o for x, y, o in zip(ti, t_p, orders))
                for ti, ai in zip(t, a))
        new = (*ids, degrees)
        new_payload, want = reflect(payload, p, a, True), self.twist(new)
        if new_payload != want:
            k = next(k for k, (x, y) in enumerate(zip(self._planes[new_payload],
                                                       self._planes[want])) if x != y)
            raise AssertionError(
                f"twisted matrix does not satisfy the reflection identity "
                f"at ({k // self.theta},{k % self.theta})")
        return new, new_payload

    def _reflect_plane(self, plane: int, p: int, a: tuple, mod: bool) -> int:
        """x_ij - a_i x_pj - a_j x_ip + a_i a_j x_pp over one plane, reduced
        mod D when ``mod`` (root planes); memoised on its arguments.  The
        result's zero diagonal entries are recorded as a bitmask."""
        k = (plane, p, a, mod)
        i = self._reflected.get(k)
        if i is None:
            theta, D, values = self.theta, self.D, self._planes[plane]
            rows = [values[b:b + theta] for b in range(0, self.size, theta)]
            row_p = rows[p]
            x_pp = row_p[p]
            new = [x - ai * y - aj * u
                   for row, ai in zip(rows, a) for u in (row[p] - ai * x_pp,)
                   for x, y, aj in zip(row, row_p, a)]
            new = tuple([r % D for r in new]) if mod else tuple(new)
            i = self._reflected[k] = self._intern(new)
            self._zeros[i] = sum([bit for k, bit in self.diagonal if not new[k]])
        return i

    def twist(self, key: tuple) -> int:
        """The id of qt's plane: qt_ij = beta(t_i, t_j)^-1 q_ij over D."""
        k = (key[0], key[-1])
        hit = self._twists.get(k)
        if hit is None:
            t = key[-1]
            b = self._beta_planes.get(t)
            if b is None:
                rows = [[sum(map(operator.mul, ti, col)) for col in zip(*self.beta_ints)]
                        for ti in t]
                b = self._beta_planes[t] = [sum(map(operator.mul, row, tj))
                                            for row in rows for tj in t]
            hit = self._twists[k] = self._intern(
                tuple([(r - x) % self.D for r, x in zip(self._planes[key[0]], b)]))
        return hit

    def datum(self, key: tuple, payload: int) -> Datum:
        """The datum of a key, its twisted matrix taken from the payload."""
        theta, names, D, size = self.theta, self.names, self.D, self.size
        planes, scalars, elements = self._planes, self._scalars, self._elements
        # the exponents of entry k, one per name: column k of the exponent planes
        columns = [*zip(*(planes[i] for i in key[1:-1]))] or [()] * size

        def matrix(kind, roots):
            entries = []
            for r, exps in zip(roots, columns):
                s = scalars.get((r, exps))
                if s is None:
                    s = scalars[r, exps] = Scalar._make(
                        Rational01(r, D), tuple((n, e) for n, e in zip(names, exps) if e))
                entries.append(s)
            return kind([entries[i:i + theta] for i in range(0, size, theta)])

        t, xi = [], []
        for res in key[-1]:
            hit = elements.get(res)
            if hit is None:
                x = Element._make(self.group, res)
                hit = elements[res] = (x, self.beta.chi(x))
            t.append(hit[0])
            xi.append(hit[1])
        return Datum._of_parts(matrix(BraidingMatrix, planes[key[0]]), self.group,
                               self.beta, tuple(t), matrix(ScalarMatrix, planes[payload]),
                               tuple(xi))


def weyl_orbit(E: Datum, max_nodes: int = 1024) -> OrbitGraph:
    """Breadth-first closure of a datum under all reflections.

    Node identity is exact datum equality.  Vertices with an infinite
    Cartan entry, or whose reflection has a diagonal entry 1, are
    skipped.  When the closure would exceed ``max_nodes`` the graph is
    returned with ``truncated=True``.  The search runs on the integer keys
    of ``_OrbitKernel``; one ``Datum`` is built per node found.

    Each reflection is an involution with the same Cartan row at both
    ends, and no node has a diagonal entry 1 (``BraidingMatrix`` rejects
    one), so the search computes r_p at a node only if no edge found so
    far enters it by r_p: an edge src --p--> tgt gives tgt --p--> src,
    recorded at tgt's turn without reflecting again.
    ``check_consistent_coloring`` recomputes every edge.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    kernel = _OrbitKernel([E])
    key, payload = kernel.encode(E)
    keys, payloads = [key], [payload]
    index = {key: 0}
    edges = []
    back = {}  # (tgt, p) -> src for the edges src --p--> tgt found so far
    truncated = False
    frontier = [0]
    while frontier:
        next_frontier = []
        for src in frontier:
            key, payload = keys[src], payloads[src]
            for p in range(E.theta):
                tgt = back.get((src, p))
                if tgt is not None:
                    edges.append((src, p, tgt))
                    continue
                reflected = kernel.reflect(key, payload, p)
                if reflected is None:
                    continue
                tgt = index.get(reflected[0])
                if tgt is None:
                    if len(keys) >= max_nodes:
                        truncated = True
                        continue
                    tgt = index[reflected[0]] = len(keys)
                    keys.append(reflected[0])
                    payloads.append(reflected[1])
                    next_frontier.append(tgt)
                edges.append((src, p, tgt))
                back[tgt, p] = src
        frontier = next_frontier
    nodes = [E] + [kernel.datum(k, pl) for k, pl in zip(keys[1:], payloads[1:])]
    return OrbitGraph(nodes=nodes, edges=edges, truncated=truncated)


def check_consistent_coloring(orbit: OrbitGraph) -> bool:
    """Re-verify that every stored edge is an exact reflection.

    The public nodes are encoded afresh, so a node altered after the
    search is caught; a node on another group or beta fails outright.
    Every node's twisted matrix is compared with the twist of its q and
    degrees, so a node without edges is checked too.
    """
    if not orbit.nodes:
        return not orbit.edges
    kernel = _OrbitKernel(orbit.nodes)
    encoded = [kernel.encode(node) for node in orbit.nodes]
    if None in encoded or any(payload != kernel.twist(key) for key, payload in encoded):
        return False
    for src, p, tgt in orbit.edges:
        try:
            reflected = kernel.reflect(*encoded[src], p)
        except AssertionError:
            return False
        if reflected is None or reflected[0] != encoded[tgt][0]:
            return False
    return True
