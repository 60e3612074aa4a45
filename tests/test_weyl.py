import random

import pytest
from hypothesis import example, given, settings, strategies as st

import cases
from chroma import weyl
from chroma.datum import BraidingMatrix, Datum, DiagonalOne, ScalarMatrix
from chroma.groups import Bicharacter, FinAbGroup
from chroma.scalars import Cyclo, Rational01, Scalar, order_of, solve_power
from chroma.weyl import (NotReflectable, _OrbitKernel, cartan_entry,
                         cartan_row, check_consistent_coloring, reflect_datum,
                         reflect_matrix, reflectable_vertices, weyl_orbit)


def brute_cartan_entry(q, p, j, bound=200):
    """Independent oracle: scan n = 0..bound for a vanishing factor.

    The first factor 1 + q_pp + ... + q_pp^n can only vanish for a pure
    root of unity, detected exactly in the cyclotomic field; the second
    factor vanishes iff q_pp^n q_pj q_jp is the identity monomial.
    """
    if p == j:
        return 2
    qpp, prod = q[p, p], q[p, j] * q[j, p]
    for n in range(bound + 1):
        if (qpp ** n * prod).is_one():
            return -n
        if not qpp.exps:
            N = qpp.root.den
            total = Cyclo.zero(N)
            for k in range(n + 1):
                total = total + Cyclo.embed(qpp.root.scale(k), N)
            if total.is_zero():
                return -n
    return None


def oracle_cartan_row(q, p):
    """The Cartan row on ``Scalar``s alone: a_pj = -min(n1, ord(q_pp) - 1),
    n1 the least n >= 0 with q_pp^n = (q_pj q_jp)^-1; None when some a_pj
    has neither bound."""
    row = []
    for j in range(q.theta):
        if j == p:
            row.append(2)
            continue
        n1 = solve_power(q[p, p], (q[p, j] * q[j, p]).inverse())
        ord_pp = order_of(q[p, p])
        candidates = [n for n in (n1, None if ord_pp is None else ord_pp - 1)
                      if n is not None]
        if not candidates:
            return None
        row.append(-min(candidates))
    return row


def oracle_reflect(E, p):
    """The reflection of a datum from the multiplicative formula and a
    fresh ``Datum``, which derives qt and xi itself."""
    a = oracle_cartan_row(E.q, p)
    if a is None:
        raise NotReflectable(f"vertex {p} has an infinite Cartan entry")
    q = BraidingMatrix(multiplicative_reflection(E.q, p, a))
    return Datum(q, E.group, E.beta, (E.t[i] * E.t[p] ** (-a[i]) for i in range(E.theta)))


def test_cartan_examples():
    q = Scalar.variable("q")
    one = Scalar.one()
    m = BraidingMatrix([[q, q ** -1], [one, q]])
    assert cartan_entry(m, 0, 0) == 2
    assert cartan_entry(m, 0, 1) == -1  # q^n = q via the second factor
    m2 = BraidingMatrix([[Scalar.minus_one(), Scalar.minus_one() * q], [one, q]])
    assert cartan_entry(m2, 0, 1) == -1  # order-2 diagonal caps the search
    m3 = BraidingMatrix([[q, one], [one, q]])
    assert cartan_entry(m3, 0, 1) == 0
    m4 = BraidingMatrix([[q, q], [one, q]])
    assert cartan_entry(m4, 0, 1) is None
    assert cartan_row(m4, 0) is None


def test_cartan_against_brute_force():
    rng = random.Random(13)
    pool_roots = [Rational01(0, 1), Rational01(1, 2), Rational01(1, 3),
                  Rational01(1, 4), Rational01(2, 3)]
    for _ in range(300):
        entries = []
        for i in range(2):
            row = []
            for j in range(2):
                row.append(Scalar(rng.choice(pool_roots),
                                  {"q": rng.randrange(-2, 3)}))
            entries.append(row)
        for i in range(2):
            if entries[i][i].is_one():
                entries[i][i] = Scalar.minus_one()
        q = BraidingMatrix(entries)
        for p, j in ((0, 1), (1, 0)):
            assert cartan_entry(q, p, j) == brute_cartan_entry(q, p, j)


def test_reflection_rank1():
    q = BraidingMatrix([[Scalar.variable("q")]])
    assert reflect_matrix(q, 0) == q


def test_rank2_reflection_matches_reference():
    E = cases.rank2_c3_datum()
    E1 = reflect_datum(E, 0)
    w = Scalar.zeta(3, 1)
    q = Scalar.variable("q")
    assert E1.q[0, 0] == w
    assert E1.q[1, 1] == q.inverse() * w
    assert E1.q[0, 1] * E1.q[1, 0] == q * w * w
    assert [x.residues for x in E1.t] == [(2,), (2,)]


def test_reflect_datum_encodes_one_datum(monkeypatch):
    """The Cartan row comes from the kernel that reflects: one kernel, on E."""
    built = []

    class Counting(_OrbitKernel):
        def __init__(self, nodes):
            built.append(list(nodes))
            super().__init__(nodes)

    monkeypatch.setattr(weyl, "_OrbitKernel", Counting)
    E = cases.rank2_c3_datum()
    reflect_datum(E, 0)
    assert built == [[E]]


def test_involution():
    for E in (cases.rank2_c3_datum(), cases.rank4_klein_datum()):
        for p in reflectable_vertices(E):
            assert reflect_datum(reflect_datum(E, p), p) == E
            assert reflect_matrix(reflect_matrix(E.q, p), p) == E.q


def test_not_reflectable_raises():
    G = FinAbGroup.of(3)
    beta = cases.c3_beta()
    q = Scalar.variable("q")
    E = Datum(BraidingMatrix([[q, q], [Scalar.one(), q]]), G, beta,
              (G.identity(), G.identity()))
    with pytest.raises(NotReflectable):
        reflect_datum(E, 0)


def test_orbit_rank1_trivial_degree():
    G = FinAbGroup.of(3)
    E = Datum(BraidingMatrix([[Scalar.variable("q")]]), G, cases.c3_beta(),
              (G.identity(),))
    orb = weyl_orbit(E)
    assert len(orb.nodes) == 1 and not orb.truncated


def test_orbit_rank2():
    orb = weyl_orbit(cases.rank2_c3_datum())
    assert not orb.truncated
    assert check_consistent_coloring(orb)
    # reflections are involutive along every edge
    for src, p, tgt in orb.edges:
        assert reflect_datum(orb.nodes[tgt], p) == orb.nodes[src]


@pytest.mark.parametrize("max_nodes", [1024, 40])
def test_orbit_reflects_each_undirected_edge_once(monkeypatch, max_nodes):
    """The rank-4 reference orbit has 1440 directed edges, none a loop;
    the search computes one reflection per undirected edge and takes the
    reverse edge from the involution."""
    calls = []
    reflect = _OrbitKernel.reflect

    def counting(self, key, payload, p):
        calls.append((key, p))
        return reflect(self, key, payload, p)

    monkeypatch.setattr(_OrbitKernel, "reflect", counting)
    orb = weyl_orbit(cases.rank4_klein_datum(), max_nodes=max_nodes)
    monkeypatch.undo()
    edges = set(orb.edges)
    assert len(edges) == len(orb.edges)
    assert all((tgt, p, src) in edges for src, p, tgt in orb.edges)
    assert all(src != tgt for src, _, tgt in orb.edges)
    if not orb.truncated:
        assert len(orb.nodes) == 360 and len(orb.edges) == 1440
        assert len(calls) == len(set(calls)) == 720
    assert check_consistent_coloring(orb)


def test_consistency_check_reflects_every_edge(monkeypatch):
    """The check recomputes every stored edge, the reverse edges included,
    whatever the kernel memoises."""
    orb = weyl_orbit(cases.rank4_klein_datum())
    calls = []
    reflect = _OrbitKernel.reflect

    def counting(self, key, payload, p):
        calls.append((key, p))
        return reflect(self, key, payload, p)

    monkeypatch.setattr(_OrbitKernel, "reflect", counting)
    assert check_consistent_coloring(orb)
    assert len(calls) == len(orb.edges) == 1440


@pytest.mark.parametrize("make", [cases.rank4_klein_datum, cases.rank4_c12_datum])
def test_orbit_edges_match_fresh_kernel_reflections(make):
    """Every edge of one search, which reuses its kernel's memoised Cartan
    rows and plane reflections, is the reflection that ``reflect_datum``
    computes in a fresh kernel."""
    orb = weyl_orbit(make())
    assert len(orb.nodes) == 360 and len(orb.edges) == 1440
    for src, p, tgt in orb.edges:
        got = reflect_datum(orb.nodes[src], p)
        assert got == orb.nodes[tgt]
        assert got.qt == orb.nodes[tgt].qt and got.xi == orb.nodes[tgt].xi


def test_kernel_memos_key_on_the_cartan_row():
    """Two data with equal root and twisted planes but different exponent
    planes, so different Cartan rows at 0 ([2, -1] against [2, 0]): one
    kernel reflects both as the oracle does."""
    G = cases.c3_group()
    m1, one, q = Scalar.minus_one(), Scalar.one(), Scalar.variable("q")
    data = [Datum(BraidingMatrix([[m1, x], [one, m1]]), G, cases.c3_beta(),
                  (G.generator(0), G.identity())) for x in (q, one)]
    kernel = _OrbitKernel(data)
    encoded = [kernel.encode(E) for E in data]
    # one root id, one payload id, two exponent ids
    assert encoded[0][0][0] == encoded[1][0][0] and encoded[0][1] == encoded[1][1]
    assert encoded[0][0][1] != encoded[1][0][1]
    assert [kernel.cartan_row(key, 0) for key, _ in encoded] == [[2, -1], [2, 0]]
    for E, (key, payload) in zip(data, encoded):
        reflected = kernel.reflect(key, payload, 0)
        assert reflected is not None
        got, want = kernel.datum(*reflected), oracle_reflect(E, 0)
        assert got == want and got.qt == want.qt


def test_kernel_memos_key_on_mod_d():
    """A's root plane and B's exponent plane hold the same integers
    (0, 1, 2, 1), so one kernel gives them one id, and both rows at 0 are
    [2, -2].  Reflected at 0 the root plane is reduced mod D = 3 and the
    exponent plane is not: (0, 2, 1, 1) against (0, -1, -2, 7)."""
    G, beta = cases.c3_group(), cases.c3_beta()

    def z(r, e=0):
        return Scalar(Rational01(r, 3), {"q": e})

    t = (G.generator(0), G.identity())
    A = Datum(BraidingMatrix([[z(0, 1), z(1, -1)], [z(2, -1), z(1)]]), G, beta, t)
    B = Datum(BraidingMatrix([[z(1), z(0, 1)], [z(0, 2), z(2, 1)]]), G, beta, t)
    for data in ([A, B], [B, A]):
        kernel = _OrbitKernel(data)
        encoded = [kernel.encode(E) for E in data]
        assert len({key[0] for key, _ in encoded} | {key[1] for key, _ in encoded}) == 3
        for E, (key, payload) in zip(data, encoded):
            assert kernel.cartan_row(key, 0) == [2, -2]
            got, want = kernel.datum(*kernel.reflect(key, payload, 0)), oracle_reflect(E, 0)
            assert got == want == reflect_datum(E, 0)
            assert got.qt == want.qt and got.xi == want.xi


@pytest.mark.parametrize("make", [cases.rank4_klein_datum, cases.rank4_c12_datum])
def test_kernel_keys_are_equal_exactly_when_the_data_are(make):
    """All 360 nodes of one orbit encode to 360 keys in one kernel, and a
    copy of each node rebuilt from its JSON encodes to the node's key and
    payload; payload ids are equal exactly when the roots of the twisted
    matrices are."""
    orb = weyl_orbit(make())
    kernel = _OrbitKernel(orb.nodes)
    encoded = [kernel.encode(E) for E in orb.nodes]
    assert len({key for key, _ in encoded}) == len(orb.nodes) == 360
    roots = {}
    for E, pair in zip(orb.nodes, encoded):
        copy = Datum.from_json(E.to_json())
        assert copy is not E and copy == E and kernel.encode(copy) == pair
        twisted = tuple(s.root for row in E.qt.entries for s in row)
        assert roots.setdefault(pair[1], twisted) == twisted
    assert len(roots) == len(set(roots.values()))


def test_new_kernel_starts_with_empty_memos():
    E = cases.rank4_klein_datum()
    used = _OrbitKernel([E])
    key, payload = used.encode(E)
    used.datum(*used.reflect(key, payload, 0))
    memos = ("_planes", "_ids", "_zeros", "_rows", "_sums", "_reflected", "_degrees",
             "_twists", "_beta_planes", "_scalars", "_elements")
    assert all(getattr(used, m) for m in memos)
    fresh = _OrbitKernel([E])
    assert not any(getattr(fresh, m) for m in memos)


def test_orbit_truncation_flag():
    orb = weyl_orbit(cases.rank4_klein_datum(), max_nodes=5)
    assert orb.truncated
    assert len(orb.nodes) == 5


def test_orbit_deterministic():
    for E, cap in ((cases.rank2_c3_datum(), 1024), (cases.rank4_klein_datum(), 40)):
        a = weyl_orbit(E, max_nodes=cap)
        b = weyl_orbit(E, max_nodes=cap)
        assert a.nodes == b.nodes
        assert a.edges == b.edges
        assert a.truncated == b.truncated


def test_consistency_detects_corruption():
    orb = weyl_orbit(cases.rank2_c3_datum())
    assert check_consistent_coloring(orb)
    bad = list(orb.nodes)
    G = bad[1].group
    s = G.generator(0)
    bad[1] = Datum(bad[1].q, bad[1].group, bad[1].beta,
                   tuple(x * s for x in bad[1].t))
    orb.nodes = bad
    assert not check_consistent_coloring(orb)


# -- oracle for the log-space reflection ------------------------------------


def random_braiding_matrix(rng, theta):
    """Roots of orders 1..12 times q^a r^b; about half of the off-diagonal
    pairs have opposite exponents, so their products cancel to a root.
    Most diagonals are pure roots, which keeps the Cartan rows finite."""
    def entry(exps):
        n = rng.randint(1, 12)
        return Scalar(Rational01(rng.randrange(n), n), exps)

    def exps():
        return {"q": rng.randint(-2, 2), "r": rng.randint(-2, 2)}

    rows = [[None] * theta for _ in range(theta)]
    for i in range(theta):
        n = rng.randint(2, 12)
        diag = Scalar(Rational01(rng.randrange(1, n), n))
        rows[i][i] = diag if rng.random() < 0.75 else diag * entry(exps())
        for j in range(i + 1, theta):
            e = exps()
            rows[i][j] = entry(e)
            rows[j][i] = entry({k: -v for k, v in e.items()}
                               if rng.random() < 0.5 else exps())
    return BraidingMatrix(rows)


def multiplicative_reflection(m, p, a):
    theta = m.theta
    return [[m[i, j] * m[p, j] ** (-a[i]) * m[i, p] ** (-a[j])
             * m[p, p] ** (a[i] * a[j]) for j in range(theta)]
            for i in range(theta)]


def assert_canonical(entries):
    for row in entries:
        for s in row:
            assert s == Scalar(Rational01(s.root.num, s.root.den), s.exps)


def test_reflection_matches_multiplicative_formula():
    rng = random.Random(20261018)
    groups = [(FinAbGroup.of(12), [[Rational01(5, 12)]]),
              (FinAbGroup.of(3, 4), [[Rational01(1, 3), Rational01(0, 1)],
                                     [Rational01(0, 1), Rational01(3, 4)]])]
    reflected = 0
    for trial in range(300):
        theta = rng.randint(2, 4)
        q = random_braiding_matrix(rng, theta)
        G, rows = groups[trial % 2]
        beta = Bicharacter(G, rows)
        t = tuple(G.element([rng.randrange(o) for o in G.orders])
                  for _ in range(theta))
        E = Datum(q, G, beta, t)
        for p in range(theta):
            a = oracle_cartan_row(q, p)
            assert cartan_row(q, p) == a
            if a is None:
                with pytest.raises(NotReflectable):
                    reflect_datum(E, p)
                continue
            want_q = multiplicative_reflection(q, p, a)
            if any(want_q[i][i].is_one() for i in range(theta)):
                with pytest.raises(DiagonalOne):
                    reflect_matrix(q, p)
                continue
            reflected += 1
            assert reflect_matrix(q, p).entries == tuple(map(tuple, want_q))
            E1 = reflect_datum(E, p)
            assert E1.q.entries == tuple(map(tuple, want_q))
            assert E1.t == tuple(t[i] * t[p] ** (-a[i]) for i in range(theta))
            want_qt = multiplicative_reflection(E.qt, p, a)
            assert E1.qt.entries == tuple(map(tuple, want_qt))
            assert E1.qt.entries == tuple(
                tuple(Scalar.from_root(-beta.eval(E1.t[i], E1.t[j])) * want_q[i][j]
                      for j in range(theta)) for i in range(theta))
            assert_canonical(E1.q.entries)
            assert_canonical(E1.qt.entries)
            fresh = Datum(E1.q, G, beta, E1.t)
            assert (fresh, fresh.qt, fresh.xi) == (E1, E1.qt, E1.xi)
    assert reflected > 300


def _c12_datum(rows, residues):
    G = FinAbGroup.of(12)
    return Datum(BraidingMatrix(rows), G, Bicharacter(G, [[Rational01(5, 12)]]),
                 [G.element([r]) for r in residues])


@st.composite
def c12_data(draw):
    """Data shaped like ``random_braiding_matrix``'s, with degrees in C12:
    roots of order <= 12 times q^a r^b, a, b in -2..2; each diagonal is a
    pure root or not, each off-diagonal pair cancels its variables or not."""
    def root(lo=0):
        n = draw(st.integers(max(1, lo + 1), 12))
        return Rational01(draw(st.integers(lo, n - 1)), n)

    exps = st.fixed_dictionaries({"q": st.integers(-2, 2), "r": st.integers(-2, 2)})
    theta = draw(st.integers(2, 4))
    rows = [[None] * theta for _ in range(theta)]
    for i in range(theta):
        rows[i][i] = Scalar(root(1), {} if draw(st.booleans()) else draw(exps))
        for j in range(i + 1, theta):
            e = draw(exps)
            rows[i][j] = Scalar(root(), e)
            rows[j][i] = Scalar(root(), {k: -v for k, v in e.items()}
                                if draw(st.booleans()) else draw(exps))
    return _c12_datum(rows, [draw(st.integers(0, 11)) for _ in range(theta)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(c12_data())
@example(_c12_datum([[Scalar.minus_one(), Scalar.variable("q")],  # q'_11 = 1 at p = 0
                     [Scalar.one(), Scalar.minus_one() * Scalar.variable("q", -1)]],
                    [0, 1]))
def test_public_reflection_api_matches_oracles(E):
    for p in range(E.theta):
        for j in range(E.theta):
            assert cartan_entry(E.q, p, j) == brute_cartan_entry(E.q, p, j)
        try:
            want = oracle_reflect(E, p)
        except (NotReflectable, DiagonalOne) as exc:
            with pytest.raises(type(exc)):
                reflect_datum(E, p)
            continue
        got = reflect_datum(E, p)
        assert (got, got.qt, got.xi) == (want, want.qt, want.xi)
        assert reflect_datum(got, p) == E


# -- whole orbits: the integer kernel against a BFS on oracle_reflect ---------


def scalar_orbit(E, max_nodes):
    """The breadth-first orbit, built from ``oracle_reflect`` and ``Datum``
    equality alone: the same order, edges and truncation rule."""
    nodes, index, edges, truncated = [E], {E: 0}, [], False
    frontier = [0]
    while frontier:
        next_frontier = []
        for src in frontier:
            for p in range(E.theta):
                try:
                    reflected = oracle_reflect(nodes[src], p)
                except (NotReflectable, DiagonalOne):
                    continue
                if reflected not in index:
                    if len(nodes) >= max_nodes:
                        truncated = True
                        continue
                    index[reflected] = len(nodes)
                    nodes.append(reflected)
                    next_frontier.append(index[reflected])
                edges.append((src, p, index[reflected]))
        frontier = next_frontier
    return nodes, edges, truncated


def assert_orbit_matches_oracle(E, max_nodes):
    orb = weyl_orbit(E, max_nodes=max_nodes)
    nodes, edges, truncated = scalar_orbit(E, max_nodes)
    assert orb.nodes == nodes
    assert orb.edges == edges
    assert orb.truncated == truncated
    for node in orb.nodes:
        fresh = Datum(node.q, node.group, node.beta, node.t)
        assert (node.qt, node.xi) == (fresh.qt, fresh.xi)
    assert check_consistent_coloring(orb)
    return truncated


@pytest.mark.parametrize("make", [cases.rank2_c3_datum, cases.rank4_klein_datum])
@pytest.mark.parametrize("max_nodes", [1024, 5, 40])
def test_orbit_matches_scalar_bfs(make, max_nodes):
    assert_orbit_matches_oracle(make(), max_nodes)


def test_random_orbits_match_scalar_bfs():
    # the seeded data of acceptance criterion 3; five of these orbits are
    # infinite, so the uncapped comparison runs on the finite ones
    rng = random.Random(20260808)
    finite = 0
    for _ in range(50):
        E = cases.random_small_datum(rng)
        assert_orbit_matches_oracle(E, 5)
        if not assert_orbit_matches_oracle(E, 40):
            assert_orbit_matches_oracle(E, 1024)
            finite += 1
    assert finite == 45


def kernel_cartan_rows(E):
    kernel = _OrbitKernel([E])
    key, _ = kernel.encode(E)
    return [kernel.cartan_row(key, p) for p in range(E.theta)]


def test_kernel_cartan_rows_match():
    # the 300 random matrices of test_reflection_matches_multiplicative_formula
    rng = random.Random(20261018)
    groups = [(FinAbGroup.of(12), [[Rational01(5, 12)]]),
              (FinAbGroup.of(3, 4), [[Rational01(1, 3), Rational01(0, 1)],
                                     [Rational01(0, 1), Rational01(3, 4)]])]
    kinds = set()
    for trial in range(300):
        theta = rng.randint(2, 4)
        q = random_braiding_matrix(rng, theta)
        G, rows = groups[trial % 2]
        t = tuple(G.element([rng.randrange(o) for o in G.orders])
                  for _ in range(theta))
        got = kernel_cartan_rows(Datum(q, G, Bicharacter(G, rows), t))
        for p in range(theta):
            want = oracle_cartan_row(q, p)
            assert got[p] == cartan_row(q, p) == want
            kinds.add((want is None, bool(q[p, p].exps)))
    # finite rows with pure-root and with variable diagonals, and infinite rows
    assert kinds == {(False, False), (False, True), (True, True)}


def test_kernel_cartan_rows_match_small_exponents():
    # the matrices of test_cartan_against_brute_force: one variable with
    # exponents in -2..2, so q_pp^n = (q_pj q_jp)^-1 often needs n < 0
    rng = random.Random(13)
    pool_roots = [Rational01(0, 1), Rational01(1, 2), Rational01(1, 3),
                  Rational01(1, 4), Rational01(2, 3)]
    G = FinAbGroup.of(3)
    infinite = 0
    for _ in range(300):
        entries = [[Scalar(rng.choice(pool_roots), {"q": rng.randrange(-2, 3)})
                    for j in range(2)] for i in range(2)]
        for i in range(2):
            if entries[i][i].is_one():
                entries[i][i] = Scalar.minus_one()
        q = BraidingMatrix(entries)
        E = Datum(q, G, cases.c3_beta(), (G.generator(0), G.identity()))
        rows = kernel_cartan_rows(E)
        want = [oracle_cartan_row(q, 0), oracle_cartan_row(q, 1)]
        assert rows == [cartan_row(q, 0), cartan_row(q, 1)] == want
        infinite += rows.count(None)
    assert infinite > 100


def test_consistency_rejects_foreign_group_or_beta():
    # q, qt and the degree residues stay as they are, so only the group or
    # beta of the node differs from the root node's
    C6 = FinAbGroup.of(6)
    for group, beta in ((None, [[Rational01(2, 3)]]), (C6, [[Rational01(1, 6)]])):
        orb = weyl_orbit(cases.rank2_c3_datum())
        node = orb.nodes[-1]
        G = group or node.group
        orb.nodes[-1] = Datum._of_parts(
            node.q, G, Bicharacter(G, beta),
            tuple(G.element(x.residues) for x in node.t), node.qt, node.xi)
        assert not check_consistent_coloring(orb)


def test_consistency_detects_corrupted_twisted_matrix():
    # re-encoding reads the public qt: a wrong root, or a variable part
    # that differs from q's, fails the check
    for bad in (Scalar.zeta(3, 1), Scalar.variable("q")):
        orb = weyl_orbit(cases.rank2_c3_datum())
        node = orb.nodes[1]
        rows = [list(r) for r in node.qt.entries]
        rows[0][1] = rows[0][1] * bad
        node.qt = ScalarMatrix(rows)
        assert not check_consistent_coloring(orb)


def test_consistency_checks_the_twisted_matrix_of_a_node_without_edges():
    # q_pp^n q_01 q_10 = q^(n+1) is never 1, so neither vertex reflects:
    # the one node has no edge whose reflection would test its qt
    E = Datum.from_json({"q": [["q", "q"], ["1", "q"]], "group": {"orders": [3]},
                         "beta": [["1/3"]], "t": [[1], [0]]})
    orb = weyl_orbit(E)
    assert (len(orb.nodes), orb.edges) == (1, [])
    assert check_consistent_coloring(orb)
    rows = [list(r) for r in orb.nodes[0].qt.entries]
    rows[0][1] = rows[0][1] * Scalar.zeta(3, 1)
    orb.nodes[0].qt = ScalarMatrix(rows)
    assert not check_consistent_coloring(orb)
