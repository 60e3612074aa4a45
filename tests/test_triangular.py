import dataclasses
import hashlib
import itertools
import json
import math
import operator
import random

import pytest

from chroma import triangular
from chroma.cli import main
from chroma.groups import Bicharacter, FinAbGroup, QuotientMap, Subgroup, quotient
from chroma.scalars import R01_HALF, R01_ZERO, Rational01
from chroma.triangular import (CocycleTable, NotCommutationFactor, _check_reduction,
                               drinfeld_u, emit_triangular, kappa_bicharacter,
                               reduce_commutation_factor, scheunert_cocycle)


def invariant_factor_groups(max_order: int):
    """All invariant-factor shapes (d1 | d2 | ... , product <= max_order)."""
    shapes = [()]
    work = [((), 1)]
    while work:
        shape, size = work.pop()
        start = shape[-1] if shape else 2
        for d in range(start, max_order + 1):
            if shape and d % shape[-1]:
                continue
            if size * d > max_order:
                continue
            new = shape + (d,)
            shapes.append(new)
            work.append((new, size * d))
    return [FinAbGroup(s) for s in sorted(set(shapes))]


def commutation_factors(G: FinAbGroup):
    """Exhaustive enumeration of skew-symmetric bicharacters on G."""
    n = G.rank
    diag_choices = []
    for i in range(n):
        opts = [R01_ZERO]
        if G.orders[i] % 2 == 0:
            opts.append(R01_HALF)
        diag_choices.append(opts)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    upper_choices = []
    for i, j in upper:
        g = math.gcd(G.orders[i], G.orders[j])
        upper_choices.append([Rational01(k, g) for k in range(g)])
    for diag in itertools.product(*diag_choices):
        for vals in itertools.product(*upper_choices):
            B = [[R01_ZERO] * n for _ in range(n)]
            for i in range(n):
                B[i][i] = diag[i]
            for (i, j), v in zip(upper, vals):
                B[i][j] = v
                B[j][i] = -v
            yield Bicharacter(G, B)


def test_drinfeld_u_examples():
    G = FinAbGroup.of(2)
    sup = Bicharacter(G, [[R01_HALF]])
    u = drinfeld_u(sup)
    assert u[G.identity()] == R01_ZERO
    assert u[G.generator(0)] == R01_HALF
    triv = Bicharacter.trivial(G)
    assert all(v.is_zero() for v in drinfeld_u(triv).values())


def test_drinfeld_needs_commutation_factor():
    beta = Bicharacter(FinAbGroup.of(3), [[Rational01(1, 3)]])
    with pytest.raises(NotCommutationFactor):
        drinfeld_u(beta)


def test_kappa_cases():
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter(G, [[R01_HALF, R01_ZERO], [R01_ZERO, R01_HALF]])
    u = drinfeld_u(beta)
    kappa = kappa_bicharacter(u, G)
    for g in G.elements():
        for h in G.elements():
            expected = R01_HALF if (u[g] == R01_HALF and u[h] == R01_HALF) else R01_ZERO
            assert kappa.eval(g, h) == expected


def test_reduce_supercase_collapses():
    G = FinAbGroup.of(2)
    sup = Bicharacter(G, [[R01_HALF]])
    data = reduce_commutation_factor(sup)
    assert data.g_prime.order == 1
    assert data.k_subgroup.order == 1


def test_reduce_hyperbolic():
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter(G, [[R01_ZERO, R01_HALF], [R01_HALF, R01_ZERO]])
    data = reduce_commutation_factor(beta)
    assert all(v.is_zero() for v in data.u.values())
    assert data.g_prime.order == 4
    assert data.k_subgroup.order == 4
    x, y = G.generator(0), G.generator(1)
    g = data.gamma_prime
    assert (g.value(x, y) - g.value(y, x)) == beta.eval(x, y)


def test_scheunert_requires_trivial_diagonal():
    G = FinAbGroup.of(2)
    with pytest.raises(ValueError):
        scheunert_cocycle(Bicharacter(G, [[R01_HALF]]))


def test_emit_report_shape():
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter(G, [[R01_ZERO, R01_HALF], [R01_HALF, R01_ZERO]])
    report = emit_triangular(reduce_commutation_factor(beta))
    assert report["G_prime"] == {"orders": [2, 2]}
    assert len(report["K"]) == 4
    assert len(report["u"]) == 4
    assert len(report["gamma_prime"]) == 16


def check_pipeline(beta: Bicharacter):
    """Full verification for one commutation factor: the reduction data,
    the antisymmetrization identity on all pairs of the quotient, the
    2-cocycle law on all triples, and u being a homomorphism."""
    check_reduction_data(reduce_commutation_factor(beta))


def check_reduction_data(data):
    """The checks of ``check_pipeline`` on integers: u, gamma' and beta'
    become numerators over one D = lcm(exp G, exp G', every denominator in
    them), converted once, and every identity is compared mod D.  beta'
    is evaluated from its generator matrix, not through ``eval``."""
    G, Gp = data.group, data.g_prime
    gamma = dict(data.gamma_prime.items())
    matrix = data.beta_prime.matrix
    D = math.lcm(G.exponent, Gp.exponent,
                 *(r.den for r in (*data.u.values(), *gamma.values())),
                 *(b.den for row in matrix for b in row))

    def ints(roots):
        return [r.num * (D // r.den) for r in roots]

    def index_sums(group):
        """Elements by index, and the index of the sum of each pair."""
        elems = [x.residues for x in group.elements()]
        index = {x: k for k, x in enumerate(elems)}
        return elems, [[index[tuple((a + b) % o for a, b, o in zip(x, y, group.orders))]
                        for y in elems] for x in elems]

    elems, sums = index_sums(G)
    u = ints(data.u[G.element(x)] for x in elems)
    for ux, row in zip(u, sums):
        assert not any((ux + uy - u[k]) % D for uy, k in zip(u, row)), \
            "u must be a homomorphism"
    elems, sums = index_sums(Gp)
    table = [ints(gamma[(x, y)] for y in elems) for x in elems]
    B = [ints(row) for row in matrix]
    for x, row, col in zip(elems, table, zip(*table)):
        xB = [sum(map(operator.mul, x, b)) for b in zip(*B)]
        assert not any((t_xy - t_yx - sum(map(operator.mul, xB, y))) % D
                       for y, t_xy, t_yx in zip(elems, row, col)), \
            "antisymmetrization must recover beta'"
    for row_x, sums_x in zip(table, sums):
        for t_xy, row_xy, row_y, sums_y in zip(row_x, (table[k] for k in sums_x), table, sums):
            # gamma(x, y) gamma(xy, z) = gamma(y, z) gamma(x, yz) for all z
            assert not any((t_xy + a - b - row_x[k]) % D
                           for a, b, k in zip(row_xy, row_y, sums_y)), "2-cocycle identity"
    ident = elems.index(Gp.identity().residues)
    assert not any(table[ident]) and not any(row[ident] for row in table)


@pytest.mark.parametrize("orders", [(2, 2), (3, 3), (2, 4)], ids=["2x2", "3x3", "2x4"])
def test_check_catches_each_changed_gamma_entry(orders):
    # the integer checks must still see a single wrong cocycle value,
    # wherever it sits in the table
    G = FinAbGroup(orders)
    g = math.gcd(*orders)
    beta = Bicharacter(G, [[R01_ZERO, Rational01(1, g)], [Rational01(-1, g), R01_ZERO]])
    data = reduce_commutation_factor(beta)
    check_reduction_data(data)
    values = data.gamma_prime._values
    step = Rational01(1, data.g_prime.exponent)
    assert len(values) == data.g_prime.order ** 2 > 1
    for k, value in enumerate(list(values)):
        values[k] = value + step
        with pytest.raises(AssertionError):
            check_reduction_data(data)
        values[k] = value
    check_reduction_data(data)


def test_exhaustive_small_groups():
    # every commutation factor on every abelian group of order <= 12;
    # the larger sweep up to 16 runs in the acceptance suite
    for G in invariant_factor_groups(12):
        for beta in commutation_factors(G):
            check_pipeline(beta)


# ---------------------------------------------------------------------------
# the integer-exponent tables against per-term Rational01 oracles
# ---------------------------------------------------------------------------


def per_term_u(beta: Bicharacter) -> dict:
    """u(g) = beta(g, g) summed term by term in Rational01."""
    out = {}
    for g in beta.group.elements():
        v = R01_ZERO
        for i, gi in enumerate(g.residues):
            for j, gj in enumerate(g.residues):
                v = v + beta.matrix[i][j].scale(gi * gj)
        out[g.residues] = v
    return out


def per_term_gamma(beta_p: Bicharacter) -> dict:
    """gamma(x, y) = sum_{i>j} x_i y_j B_ij, term by term in Rational01."""
    G = beta_p.group
    table = {}
    for x in G.elements():
        for y in G.elements():
            v = R01_ZERO
            for i in range(G.rank):
                for j in range(i):
                    if x.residues[i] and y.residues[j]:
                        v = v + beta_p.matrix[i][j].scale(x.residues[i] * y.residues[j])
            table[(x.residues, y.residues)] = v
    return table


def seeded_commutation_factor(rng, orders) -> Bicharacter:
    """A random skew-symmetric bicharacter, diagonal in {0, 1/2}."""
    G = FinAbGroup(tuple(orders))
    n = G.rank
    B = [[R01_ZERO] * n for _ in range(n)]
    for i in range(n):
        if orders[i] % 2 == 0 and rng.random() < 0.5:
            B[i][i] = R01_HALF
        for j in range(i + 1, n):
            g = math.gcd(orders[i], orders[j])
            B[i][j] = Rational01(rng.randrange(g), g)
            B[j][i] = -B[i][j]
    return Bicharacter(G, B)


def assert_tables_match_oracle(beta: Bicharacter):
    data = reduce_commutation_factor(beta)
    assert {g.residues: v for g, v in data.u.items()} == per_term_u(beta)
    assert dict(data.gamma_prime.items()) == per_term_gamma(data.beta_prime)


def test_cocycle_table_emits_rows_in_sorted_order():
    """to_json sorts whatever order the table was built in: a shuffled
    table, and the Scheunert cocycle on C3^4 (built in report order)."""
    gamma = scheunert_cocycle(seeded_commutation_factor(random.Random("order"), (3, 3, 3, 3)))
    items = list(gamma.items())
    random.Random("shuffle").shuffle(items)
    expected = [[list(x), list(y), str(v)] for (x, y), v in sorted(items)]
    assert len(expected) == 81 * 81
    for table in (gamma, CocycleTable(gamma.group, dict(items))):
        assert table.to_json() == expected


def test_integer_tables_match_per_term_oracle_exhaustive():
    for G in invariant_factor_groups(16):
        for beta in commutation_factors(G):
            assert_tables_match_oracle(beta)


SEEDED_SHAPES = [(3, 3, 3, 3), (9, 9)]


def seeded_factors(orders) -> list[Bicharacter]:
    rng = random.Random(f"tables:{orders}")
    return [seeded_commutation_factor(rng, orders) for _ in range(6)]


@pytest.mark.parametrize("orders", SEEDED_SHAPES, ids=["3x3x3x3", "9x9"])
def test_integer_tables_match_per_term_oracle_seeded(orders):
    for beta in seeded_factors(orders):
        assert_tables_match_oracle(beta)


def test_mutant_lift_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # beta' is built from the lifts of the generators of G'; a lift that is
    # wrong (off by an element outside the radical) only on (1, 1) must
    # still trip the well-definedness self-check
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter(G, [[R01_ZERO, R01_HALF], [R01_HALF, R01_ZERO]])
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"schema": 1, "group": G.to_json(),
                                "beta": beta.to_json()}))
    assert main(["triangular", "--input", str(path)]) == 0
    capsys.readouterr()
    true_lift = QuotientMap.lift

    def mutant_lift(self, x):
        lift = true_lift(self, x)
        return lift * G.generator(0) if x.residues == (1, 1) else lift

    monkeypatch.setattr(QuotientMap, "lift", mutant_lift)
    assert main(["triangular", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: induced bicharacter is not well defined\n"


def test_quotient_by_the_whole_group_is_an_internal_error(tmp_path, monkeypatch, capsys):
    # beta is nondegenerate, so G' is all of G; a quotient by the whole
    # group passes every check on G' (it has one element) and must trip
    # the order identities |G'| |radical| = |G| and |K| = |G'|
    G = FinAbGroup.of(2, 2)
    beta = Bicharacter(G, [[R01_ZERO, R01_HALF], [R01_HALF, R01_ZERO]])
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({"schema": 1, "group": G.to_json(),
                                "beta": beta.to_json()}))
    assert main(["triangular", "--input", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(triangular, "quotient",
                        lambda group, sub: quotient(group, Subgroup.full(group)))
    assert main(["triangular", "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: |G'| must be |G| / |radical| = |K|\n"


# ---------------------------------------------------------------------------
# _check_reduction against the all-pairs sweep it replaced
# ---------------------------------------------------------------------------


def all_pairs_check_reduction(bk: Bicharacter, beta_p: Bicharacter, qm: QuotientMap) -> None:
    """The reduction's self-checks as a sweep of every pair of G' x G':
    beta_p(x, y) == bk(lift x, lift y) and beta_p(x, x) == 1 on G', and
    beta_p nondegenerate.  O(|G'|^2); the reference for the generator
    checks of ``_check_reduction``."""
    e, ep = bk.exponent, beta_p.exponent
    scale = e // ep
    Gp = beta_p.group
    points = []         # (lift x ++ x, combined row form of x)
    for x in Gp.elements():
        xr, lift = x.residues, qm.lift(x).residues
        row_p = [sum(map(operator.mul, col, xr)) for col in zip(*beta_p.ints)]
        if sum(map(operator.mul, row_p, xr)) % ep:
            raise AssertionError("reduced bicharacter must have trivial diagonal")
        row = [sum(map(operator.mul, col, lift)) for col in zip(*bk.ints)]
        points.append((lift + xr, row + [-scale * b for b in row_p]))
    for _, row in points:
        for y, _ in points:
            if sum(map(operator.mul, row, y)) % e:
                raise AssertionError("induced bicharacter is not well defined")
    if not beta_p.is_nondegenerate():
        raise AssertionError("reduced bicharacter must be nondegenerate")


def check_outcomes(bk, beta_p, qm) -> tuple:
    """The message each check fails with, or None where it passes."""
    outcomes = []
    for check in (_check_reduction, all_pairs_check_reduction):
        try:
            check(bk, beta_p, qm)
            outcomes.append(None)
        except AssertionError as exc:
            outcomes.append(str(exc))
    return tuple(outcomes)


def reduction_inputs(beta: Bicharacter):
    """(bk, beta', quotient map, radical) of the reduction of beta."""
    data = reduce_commutation_factor(beta)
    bk = beta * data.kappa
    return bk, data.beta_prime, data.quotient_map, bk.radical()


def shifted_lift(qm: QuotientMap, where, shift) -> QuotientMap:
    """``qm`` with the lift of the element with residues ``where`` moved
    by the element ``shift`` of G."""
    bad = dataclasses.replace(qm)
    bad.lift = lambda x: qm.lift(x) * shift if x.residues == where else qm.lift(x)
    return bad


def factors_up_to_16():
    return [beta for G in invariant_factor_groups(16) for beta in commutation_factors(G)]


def seeded_large_factors(count: int = 6):
    """The first ``count`` seeded factors on 3^4 and on 9 x 9 that the
    table oracle test checks."""
    return [beta for orders in SEEDED_SHAPES
            for beta in seeded_factors(orders)[:count]]


def test_check_reduction_accepts_what_the_oracle_accepts():
    for beta in factors_up_to_16() + seeded_large_factors():
        bk, beta_p, qm, _ = reduction_inputs(beta)
        assert check_outcomes(bk, beta_p, qm) == (None, None)


def corrupted_beta_prime(bk, beta_p, qm, rad):
    # every entry of beta', in turn, moved by the smallest step its
    # generator orders allow
    Gp = beta_p.group
    for k, l in itertools.product(range(Gp.rank), repeat=2):
        matrix = [list(row) for row in beta_p.matrix]
        matrix[k][l] = matrix[k][l] + Rational01(1, math.gcd(Gp.orders[k], Gp.orders[l]))
        yield bk, Bicharacter(Gp, matrix), qm


def lift_off_outside_radical(bk, beta_p, qm, rad):
    # the lift of each non-generator element of G', in turn, moved by the
    # first element of G outside the radical
    Gp = beta_p.group
    outside = next((g for g in bk.group.elements() if g not in rad), None)
    gens = {g.residues for g in Gp.generators()}
    for x in Gp.elements():
        if outside is not None and x.residues not in gens:
            yield bk, beta_p, shifted_lift(qm, x.residues, outside)


def lift_off_inside_radical(bk, beta_p, qm, rad):
    # the lift of each element of G', in turn, moved by the last element
    # of the radical: still a lift of the same coset
    inside = max(rad.elements(), key=lambda g: g.residues)
    if not inside.is_identity():
        for x in beta_p.group.elements():
            yield bk, beta_p, shifted_lift(qm, x.residues, inside)


@pytest.mark.parametrize("corrupt, rejected", [
    (corrupted_beta_prime, True), (lift_off_outside_radical, True),
    (lift_off_inside_radical, False),
], ids=["beta-prime-entry", "lift-outside-radical", "lift-inside-radical"])
def test_check_reduction_agrees_with_the_oracle_on_corruptions(corrupt, rejected):
    # one seeded factor each on 3^4 and 9 x 9 besides the exhaustive sweep
    cases = 0
    for beta in factors_up_to_16() + seeded_large_factors(1):
        for args in corrupt(*reduction_inputs(beta)):
            new, old = check_outcomes(*args)
            assert new == old and (new is not None) == rejected, (beta.matrix, new, old)
            cases += 1
    assert cases > 100


def test_check_reduction_tests_every_generator_pair():
    # bk is not skew: it agrees with beta' on the pairs (k, l) with l <= k
    # and not on (0, 1), so only the generator pair (0, 1) can fail
    G = FinAbGroup.of(3, 3)
    third = Rational01(1, 3)
    bk = Bicharacter(G, [[R01_ZERO, R01_ZERO], [-third, R01_ZERO]])
    qm = quotient(G, Subgroup.trivial(G))
    assert [qm.lift(g) for g in qm.quotient.generators()] == G.generators()
    beta_p = Bicharacter(qm.quotient, [[R01_ZERO, third], [-third, R01_ZERO]])
    assert check_outcomes(bk, beta_p, qm) == ("induced bicharacter is not well defined",) * 2


# every corner of the coordinate expansions: no generator, order-1 factors,
# G' of rank 0, and an order-1 factor before, between or after others
EDGE_CASES = {
    "trivial-group": ([], [], {"orders": []}, [[]], [[[], "0/1"]]),
    "order-1": ([1], [["0/1"]], {"orders": []}, [[0]], [[[0], "0/1"]]),
    "orders-1-2": ([1, 2], [["0/1", "0/1"], ["0/1", "1/2"]], {"orders": []}, [[0, 0]],
                   [[[0, 0], "0/1"], [[0, 1], "1/2"]]),
    "rank-0-quotient": ([2], [["1/2"]], {"orders": []}, [[0]],
                        [[[0], "0/1"], [[1], "1/2"]]),
    "orders-1-2-2": ([1, 2, 2], [["0/1", "0/1", "0/1"], ["0/1", "0/1", "1/2"],
                                 ["0/1", "1/2", "0/1"]], {"orders": [2, 2]},
                     [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]],
                     [[[0, 0, 0], "0/1"], [[0, 0, 1], "0/1"], [[0, 1, 0], "0/1"],
                      [[0, 1, 1], "0/1"]]),
    "orders-2-1-2": ([2, 1, 2], [["0/1", "0/1", "1/2"], ["0/1", "0/1", "0/1"],
                                 ["1/2", "0/1", "0/1"]], {"orders": [2, 2]},
                     [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]],
                     [[[0, 0, 0], "0/1"], [[0, 0, 1], "0/1"], [[1, 0, 0], "0/1"],
                      [[1, 0, 1], "0/1"]]),
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_triangular_edge_groups(case, tmp_path):
    orders, beta, g_prime, k, u = EDGE_CASES[case]
    src, out = tmp_path / "beta.json", tmp_path / "report.json"
    src.write_text(json.dumps({"schema": 1, "group": {"orders": orders}, "beta": beta}))
    assert main(["triangular", "--input", str(src), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["G_prime"], report["K"], report["u"]) == (g_prime, k, u)


# sha256 of `chroma triangular` reports on seeded factors with a given
# |G'|, recorded before the reduction moved to integer exponents
REPORT_DIGESTS = {
    ((2, 2, 2, 2), 16):
        "575be7dcadf22e346a4fa10655374bede120bd459c349c85e3e8843bdeb883c2",
    ((4, 4, 4), 16):
        "6004cbf518796d07b4e9cd18cca905c4811b7094c18a1790a856870c34472886",
    ((8, 8), 64):
        "4c5b4a52b7364c8b0562a5b21ec406a35d17e9dc02f458913e32e1e9422a857c",
    ((2, 2, 4, 4), 64):
        "110292b876ac26173e4af8f9cf3fb84763cb061ab5954cb0b732f7f4da6033c6",
    ((3, 3, 3, 3), 81):
        "8eade23fe7809e943efea8e1777ea793c9448cfb05f8d94a2c5af708b25942cb",
    ((9, 9), 81):
        "f3c8d555f932a7f36c425d6e26b5393ad60e81b8ee1bb2367e4e7966a2b8442f",
}


def reduced_order(beta: Bicharacter) -> int:
    bk = beta * kappa_bicharacter(drinfeld_u(beta), beta.group)
    return beta.group.order // bk.radical().order


def pinned_report_input(orders, g_prime_order) -> dict:
    rng = random.Random(f"report:{orders}:{g_prime_order}")
    beta = seeded_commutation_factor(rng, orders)
    while reduced_order(beta) != g_prime_order:
        beta = seeded_commutation_factor(rng, orders)
    return {"schema": 1, "group": beta.group.to_json(), "beta": beta.to_json()}


def triangular_report_digest(tmp_path, payload) -> str:
    src, out = tmp_path / "beta.json", tmp_path / "report.json"
    src.write_text(json.dumps(payload))
    assert main(["triangular", "--input", str(src), "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("orders,g_prime_order", list(REPORT_DIGESTS),
                         ids=["x".join(map(str, o)) + f"-r{r}" for o, r in REPORT_DIGESTS])
def test_report_digest_pinned(tmp_path, orders, g_prime_order):
    payload = pinned_report_input(orders, g_prime_order)
    assert triangular_report_digest(tmp_path, payload) == \
        REPORT_DIGESTS[(orders, g_prime_order)]
