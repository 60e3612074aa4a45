import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

import cases
from chroma.extensions import GroupAut, _ftilde_equations
from chroma.groups import FinAbGroup, Subgroup, quotient
from chroma.zlinalg import (SOLUTION_LIMIT, Congruences, _pivot, smith_normal_form,
                            solve_homogeneous_mod)


def seeded_inputs():
    """Dense and sparse integer matrices, then (orders, subgroup generators)."""
    rng = random.Random("smith")
    matrices = []
    for m, n in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4),
                 (5, 8), (8, 5), (6, 6)]:
        for _ in range(4):
            matrices.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            matrices.append([[rng.choice((0, 0, 0, 1, -1, 2, 6)) for _ in range(n)]
                             for _ in range(m)])
    relations = []
    for orders in [(2, 2, 2, 2), (3, 9), (4, 4, 4), (2, 6, 12)]:
        for k in range(3):
            relations.append((orders, [[rng.randrange(o) for o in orders]
                                       for _ in range(k + 1)]))
    return matrices, relations


def late_unit_matrices():
    """Entries 0 or of absolute value >= 2, but for one or two units placed
    in the lower right quarter: the first unit comes late in row-major order,
    after entries of absolute value 2."""
    rng = random.Random("late unit")
    matrices = []
    for m, n in [(2, 3), (3, 3), (3, 5), (4, 4), (5, 3), (5, 6), (6, 8)]:
        for _ in range(3):
            A = [[rng.choice((0, 0, 2, -2, 3, -4, 6, 9)) for _ in range(n)] for _ in range(m)]
            for _ in range(rng.randint(1, 2)):
                A[rng.randrange(m // 2, m)][rng.randrange(n // 2, n)] = rng.choice((1, -1))
            matrices.append(A)
    return matrices


def ftilde_systems():
    """The transposed distinct f-tilde rows aut-ext hands the Smith form:
    the squaring pair over g = inversion (21 x 108) and the mixed C12 pair
    over g = l^7 (36 x 358), both with h = identity."""
    systems = []
    for mp, k in [(cases.squaring_matched_pair(), -1), (cases.mixed_c12_matched_pair(), 7)]:
        rows = []
        for eq in _ftilde_equations(mp, GroupAut.by_power(mp.L, k), GroupAut.identity(mp.Gamma)):
            row = [0] * (mp.Gamma.n * mp.L.n)
            for v, c in eq:
                row[v] += c
            if any(row):
                rows.append(tuple(row))
        systems.append([list(col) for col in zip(*dict.fromkeys(rows))])
    return systems


def relation_matrix(orders, gens):
    """[diag(orders) | gens], the matrix ``quotient`` reduces."""
    n = len(orders)
    return [[orders[i] * (i == j) for j in range(n)] + [g[i] for g in gens]
            for i in range(n)]


def seeded_matrices():
    """Dense, sparse and group-relation shaped integer matrices."""
    matrices, relations = seeded_inputs()
    return (matrices + [relation_matrix(o, gens) for o, gens in relations]
            + [[[0, 0], [0, 0]]])


def matmul(X, Y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*Y)] for row in X]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(M):
    M = [[Fraction(x) for x in row] for row in M]
    n, sign = len(M), 1
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return 0
        if p != c:
            M[c], M[p], sign = M[p], M[c], -sign
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return sign * math.prod(M[i][i] for i in range(n))


def check_cheap_identities(A, snf):
    """|det U| = 1, U * U^-1 = I, D diagonal, nonnegative and in divisibility
    order, and U * A zero past the rank with row i a multiple of d_i.
    Returns U * A and the rank."""
    m, n = len(A), len(A[0])
    U = snf.U
    assert abs(det(U)) == 1
    assert matmul(U, snf.U_inv) == identity(m)
    d = snf.diagonal
    assert all(snf.D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in d)
    # d_i | d_{i+1}: the nonzero invariant factors come first
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    rank = sum(1 for x in d if x)
    UA = matmul(U, A)
    assert all(x == 0 for row in UA[rank:] for x in row)
    assert all(x % d[i] == 0 for i in range(rank) for x in UA[i])
    return UA, rank


def check_smith_form(A):
    """U * A * V == D for unimodular U and some unimodular V, checked without V:
    the rows of U * A are d_i times the first rows of a unimodular matrix."""
    n = len(A[0])
    snf = smith_normal_form(A)
    UA, rank = check_cheap_identities(A, snf)
    d = snf.diagonal
    assert [x for x in d if x] == [int(x) for x in invariant_factors(Matrix(A), domain=ZZ)
                                   if x]
    # the divided rows B have coprime r x r minors, so B extends to a
    # unimodular W and U * A * W^-1 == D
    B = [[x // d[i] for x in UA[i]] for i in range(rank)]
    g = 0
    for cols in itertools.combinations(range(n), rank):
        g = math.gcd(g, int(det([[row[c] for c in cols] for row in B])))
        if g == 1:
            break
    assert g == 1


# sha256 of repr([(D, U), ...]) over seeded_matrices(), recorded while
# smith_normal_form still built the column transform V: dropping V changes
# neither D nor U
SMITH_DIGEST = "28d1d20ba385df315dd39fd8f34104ebce67d6cc2782dfa36e84e06fc02b0494"


def test_smith_identities():
    for A in seeded_matrices():
        check_smith_form(A)


def test_smith_outputs_pinned():
    forms = [smith_normal_form(A) for A in seeded_matrices()]
    text = repr([(s.D, s.U) for s in forms])
    assert hashlib.sha256(text.encode()).hexdigest() == SMITH_DIGEST


# sha256 of repr([(D, U, U_inv), ...]), recorded while the pivot search
# still scanned the whole block and every pivot got the divisibility sweep
LATE_UNIT_DIGEST = "cc1a0b03b78ce45d1b266ab6b06613c442e6715604c3b0467b29fea95410f321"
FTILDE_DIGEST = "840cf495e7c80138e1a4c1d30632fa24e7ca950ec5c1e4acddc4f2e2a192d211"


def full_forms_digest(matrices) -> str:
    forms = [smith_normal_form(A) for A in matrices]
    return hashlib.sha256(repr([(s.D, s.U, s.U_inv) for s in forms]).encode()).hexdigest()


def test_pivot_is_the_first_least_entry():
    """``_pivot`` against a full row-major scan, on every trailing block of
    the late-unit matrices.  Checked on the pivot alone: a pivot search that
    stops early at a 2 sends the Smith loop round forever on (2, 1)."""
    for A in late_unit_matrices():
        n = len(A[0])
        for t in range(min(len(A), n)):
            block = [(abs(A[i][j]), (i, j)) for i in range(t, len(A)) for j in range(t, n)
                     if A[i][j]]
            assert _pivot(A, t, n) == (min(block)[1] if block else None)


def test_smith_late_units():
    """The search stops at the first unit, past entries of absolute value 2,
    and the result is the full scan's."""
    matrices = late_unit_matrices()
    for A in matrices:
        check_smith_form(A)
    assert full_forms_digest(matrices) == LATE_UNIT_DIGEST


def test_smith_ftilde_systems():
    """The cheap identities only: sympy and the minor check do not finish
    on 21 x 108 in minutes."""
    systems = ftilde_systems()
    assert [(len(A), len(A[0])) for A in systems] == [(21, 108), (36, 358)]
    for A in systems:
        check_cheap_identities(A, smith_normal_form(A))
    assert full_forms_digest(systems) == FTILDE_DIGEST


def test_quotient_lift_columns():
    """Column j of the lift is column i of U^-1 for the j-th kept index i:
    U maps it to e_i, and the projection undoes the lift."""
    for orders, gens in seeded_inputs()[1]:
        G = FinAbGroup(orders)
        qm = quotient(G, Subgroup.from_generators(G, [G.element(g) for g in gens]))
        snf = smith_normal_form(relation_matrix(orders, gens))
        kept = [i for i, d in enumerate(snf.diagonal) if d != 1]
        assert len(kept) == qm.quotient.rank
        for j, i in enumerate(kept):
            col = [[row[j]] for row in qm._lift_rows]
            assert matmul(snf.U, col) == [[int(k == i)] for k in range(len(orders))]
        for x in qm.quotient.elements():
            assert qm.project(qm.lift(x)) == x


def seeded_congruences():
    """(matrix, modulus) with n <= 4 unknowns and modulus <= 6: zero rows,
    modulus 1, and more equations than unknowns, as aut-ext produces."""
    rng = random.Random("congruence")
    systems = [([[0, 0, 0]], 6), ([[0, 0], [0, 0]], 4), ([[1, 2, 3]], 1),
               ([[1], [2], [3], [4], [5]], 6), ([[2, 4], [0, 0], [3, 3]], 6)]
    for n in range(1, 5):
        for m in (1, 2, n + 3, 2 * n + 4):
            for modulus in range(1, 7):
                rows = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(m)]
                rows[rng.randrange(m)] = [0] * n
                systems.append((rows, modulus))
    return systems


def test_solve_homogeneous_mod_matches_brute_force():
    """The solutions, as a set with no repeats, are all of (Z/N)^n that
    satisfy the system; their order is not part of the contract."""
    for matrix, modulus in seeded_congruences():
        solutions = solve_homogeneous_mod(matrix, modulus)
        assert len(set(solutions)) == len(solutions), (matrix, modulus)
        expected = {x for x in itertools.product(range(modulus), repeat=len(matrix[0]))
                    if all(sum(map(int.__mul__, row, x)) % modulus == 0 for row in matrix)}
        assert set(solutions) == expected, (matrix, modulus)


def test_solve_homogeneous_mod_sums_all_coordinates_in_order():
    """x = U^T z over every choice vector z, all n coordinates summed, in
    ``itertools.product`` order: the list and its order, not just the set."""
    systems = [([list(row) for row in zip(*A)], N) for A in ftilde_systems() for N in (3, 7, 21)]
    for matrix, N in systems + seeded_congruences():
        n = len(matrix[0])
        snf = smith_normal_form([list(col) for col in zip(*matrix)])
        diag = [snf.D[i][i] if i < len(matrix) else 0 for i in range(n)]
        choice_sets = [[N // math.gcd(d, N) * w for w in range(math.gcd(d, N))] for d in diag]
        expected = [tuple(sum(snf.U[k][i] * z[k] for k in range(n)) % N for i in range(n))
                    for z in itertools.product(*choice_sets)]
        assert solve_homogeneous_mod(matrix, N) == expected


def test_congruences_match_direct_evaluation():
    """Seeded forms with repeated variables, constants, coefficients that
    cancel or reduce to 0, and forms with no variable, against the sum
    evaluated form by form, on moduli 1, 2, 3, 7 and 12."""
    rng, outcomes = random.Random("congruences"), set()
    for N in (1, 2, 3, 7, 12):
        for _ in range(40):
            forms = [(rng.choice((0, 0, rng.randint(-30, 30))),
                      [(rng.randrange(5), rng.choice((1, -1, 2, N, -N - 1, rng.randint(-40, 40))))
                       for _ in range(rng.randrange(4))])
                     for _ in range(rng.randint(1, 4))]
            system = Congruences(forms, N)
            for _ in range(6):
                x = [rng.randint(-50, 50) for _ in range(5)]
                expected = all((c + sum(a * x[v] for v, a in terms)) % N == 0
                               for c, terms in forms)
                assert system.holds(x) == expected, (forms, N, x)
                outcomes.add(expected)
        assert Congruences([(0, [(0, 1)])], N).holds([N])
        assert Congruences([(N, [(0, N)])], N).holds([5])
    assert outcomes == {True, False}


def test_solve_homogeneous_mod_limit():
    assert 10 ** 6 > SOLUTION_LIMIT
    with pytest.raises(ValueError, match="solution space too large"):
        solve_homogeneous_mod([[0] * 6], 10)
