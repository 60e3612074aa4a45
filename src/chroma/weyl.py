"""Cartan entries, matrix and datum reflections, and reflection orbits.

The Cartan entry a_pj is the least n >= 0 killing
(1 + q_pp + ... + q_pp^n)(1 - q_pp^n q_pj q_jp), negated; a vertex p is
reflectable when every a_pj is finite.  Reflections are involutive, and
the twisted matrix of a reflected datum satisfies the same transformation
rule as the braiding matrix itself, which every reflection re-checks.
One integer kernel (``_OrbitKernel``) holds the rule: orbits are searched
and re-checked on its keys, and the public functions encode one datum,
reflect it once and decode the result.  A bare braiding matrix is encoded
as a datum over the trivial group, where qt = q.  Each kernel memoises its
Cartan rows, keyed by p and the products q_pj q_jp (sums on every plane of
the key), and its plane reflections, keyed by (plane, p, Cartan row, mod D
or not); the memos live and die with the kernel, so no cache outlives one
orbit search, one consistency check or one public call.
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
    """Cartan rows and reflections along one orbit, on integer tuples.

    Along an orbit theta, G, beta and the variable names never change, and
    every root of unity stays in mu_D, D = lcm(the root orders, exp G).  A
    node is one tuple of ints: planes of theta^2 entries (row-major) --
    the root numerators of q over D, then one exponent plane per variable
    name, in name order -- followed by the theta degree residue vectors.
    The root numerators of qt ride along as a payload outside the key.
    Keys are equal exactly when the data are equal.

    Every memo is a pure function of integer keys and belongs to this
    kernel alone: beta planes, ``Scalar``s and ``Element``s for decoding,
    Cartan rows and reflected planes (keyed in ``cartan_row`` and
    ``_reflect_plane``).  Re-checking the 1440 edges of the rank-4
    reference orbit, one kernel computes 94 Cartan rows instead of 1440
    and 1352 planes instead of 4320; the twisted-matrix identity is still
    checked on every reflection.
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
        # key layout: the root plane at 0, the exponent planes, the degrees
        self.size = size = theta * theta
        t0 = size * (len(self.names) + 1)
        self.planes = range(0, t0, size)
        self.exp_planes = self.planes[1:]
        self.t_slices = [slice(t0 + i * G.rank, t0 + (i + 1) * G.rank)
                         for i in range(theta)]
        self._beta_planes = {}  # degrees -> beta(t_i, t_j) over D, row-major
        self._scalars = {}      # (root numerator, exponents) -> Scalar
        self._elements = {}     # residues -> (Element, its character)
        self._rows = {}         # (p, q_pj + q_jp on every plane) -> Cartan row
        self._reflected = {}    # (plane, p, Cartan row, mod D) -> reflected plane

    def encode(self, E: Datum):
        """(key, payload) of E; None when E has another size, group or
        beta, or when its qt and q differ in their variable parts."""
        if (E.theta, E.group, E.beta) != (self.theta, self.group, self.beta):
            return None
        D, names = self.D, self.names
        roots, payload, exps = [], [], []
        for q_row, qt_row in zip(E.q.entries, E.qt.entries):
            for s, st in zip(q_row, qt_row):
                if s.exps != st.exps:
                    return None
                roots.append(s.root.over(D))
                payload.append(st.root.over(D))
                exps.append(dict(s.exps))
        key = roots + [e.get(name, 0) for name in names for e in exps]
        for x in E.t:
            key.extend(x.residues)
        return tuple(key), tuple(payload)

    def cartan_entry(self, key: tuple, p: int, j: int) -> int | None:
        """``cartan_entry`` on a key: q_pp has finite order D / gcd(r_pp, D)
        iff its exponents vanish, and q_pp^n = (q_pj q_jp)^-1 is solved by
        ``least_power`` on the key's integers."""
        if j == p:
            return 2
        theta, D, planes = self.theta, self.D, self.exp_planes
        pp, pj, jp = p * theta + p, p * theta + j, j * theta + p
        r_pp = key[pp]
        e_pp = [key[off + pp] for off in planes]
        n = least_power(D, r_pp, -(key[pj] + key[jp]) % D, e_pp,
                        [-(key[off + pj] + key[off + jp]) for off in planes])
        if n is None:
            if any(e_pp):
                return None
            n = D // math.gcd(r_pp, D) - 1
        return -n

    def cartan_row(self, key: tuple, p: int) -> list[int] | None:
        """The Cartan row at p, memoised on what it depends on: p and the
        sums q_pj + q_jp of every plane, j = p giving 2 q_pp."""
        theta, size = self.theta, self.size
        sums = (p,)
        for off in self.planes:
            start = off + p * theta
            sums += tuple(map(operator.add, key[start:start + theta],
                              key[off + p:off + size:theta]))
        try:
            return self._rows[sums]
        except KeyError:
            row = [self.cartan_entry(key, p, j) for j in range(theta)]
            row = self._rows[sums] = None if None in row else row
            return row

    def reflect(self, key: tuple, payload: tuple, p: int):
        """(key, payload) of the reflection at p; None when p is not
        reflectable or a reflected diagonal entry is 1."""
        a = self.cartan_row(key, p)
        return None if a is None else self.apply(key, payload, p, a)

    def apply(self, key: tuple, payload: tuple, p: int, a: list[int]):
        """(key, payload) of the reflection at p with Cartan row a; None
        when a reflected diagonal entry is 1.  The twisted roots must
        transform by the same rule as q: that identity is enforced."""
        theta, size = self.theta, self.size
        a_key = tuple(a)
        new = [*self._reflect_plane(key[:size], p, a_key, True)]
        for off in self.exp_planes:
            new += self._reflect_plane(key[off:off + size], p, a_key, False)
        if not all(any(new[k::size]) for k in range(0, size, theta + 1)):
            return None
        t_p = key[self.t_slices[p]]
        for ai, sl in zip(a, self.t_slices):
            new += [(x - ai * y) % o for x, y, o in zip(key[sl], t_p, self.group.orders)]
        new = tuple(new)
        new_payload = self._reflect_plane(payload, p, a_key, True)
        want = self.twist(new)
        if new_payload != want:
            k = next(k for k, (x, y) in enumerate(zip(new_payload, want)) if x != y)
            raise AssertionError(
                f"twisted matrix does not satisfy the reflection identity "
                f"at ({k // theta},{k % theta})")
        return new, new_payload

    def _reflect_plane(self, plane: tuple, p: int, a: tuple, mod: bool) -> tuple:
        """x_ij - a_i x_pj - a_j x_ip + a_i a_j x_pp over one theta^2 plane,
        reduced mod D when ``mod`` (root planes); memoised on its arguments."""
        k = (plane, p, a, mod)
        hit = self._reflected.get(k)
        if hit is None:
            theta, D = self.theta, self.D
            rows = [plane[b:b + theta] for b in range(0, self.size, theta)]
            row_p = rows[p]
            x_pp = row_p[p]
            hit = [x - ai * y - aj * u
                   for row, ai in zip(rows, a) for u in (row[p] - ai * x_pp,)
                   for x, y, aj in zip(row, row_p, a)]
            hit = self._reflected[k] = tuple(r % D for r in hit) if mod else tuple(hit)
        return hit

    def twist(self, key: tuple) -> tuple:
        """Root numerators of qt_ij = beta(t_i, t_j)^-1 q_ij over D."""
        t = key[self.t_slices[0].start:]
        b = self._beta_planes.get(t)
        if b is None:
            ts = [key[sl] for sl in self.t_slices]
            rows = [[sum(map(operator.mul, ti, col)) for col in zip(*self.beta_ints)]
                    for ti in ts]
            b = [sum(map(operator.mul, row, tj)) for row in rows for tj in ts]
            self._beta_planes[t] = b
        D = self.D
        return tuple((r - x) % D for r, x in zip(key, b))

    def datum(self, key: tuple, payload: tuple) -> Datum:
        """The datum of a key, its twisted matrix taken from the payload."""
        theta, names, D, size = self.theta, self.names, self.D, self.size
        scalars, elements = self._scalars, self._elements
        # the exponents of entry k, one per name: column k of the exponent planes
        columns = [*zip(*(key[off:off + size] for off in self.exp_planes))] or [()] * size

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
        for sl in self.t_slices:
            res = key[sl]
            hit = elements.get(res)
            if hit is None:
                x = Element._make(self.group, res)
                hit = elements[res] = (x, self.beta.chi(x))
            t.append(hit[0])
            xi.append(hit[1])
        return Datum._of_parts(matrix(BraidingMatrix, key), self.group, self.beta,
                               tuple(t), matrix(ScalarMatrix, payload), tuple(xi))


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
