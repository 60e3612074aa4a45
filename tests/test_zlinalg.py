import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from chroma.groups import FinAbGroup, Subgroup, quotient
from chroma.zlinalg import SOLUTION_LIMIT, smith_normal_form, solve_homogeneous_mod


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


def check_smith_form(A):
    """U * A * V == D for unimodular U and some unimodular V, checked without V:
    the rows of U * A are d_i times the first rows of a unimodular matrix."""
    m, n = len(A), len(A[0])
    snf = smith_normal_form(A)
    U = snf.U
    assert abs(det(U)) == 1
    assert matmul(U, snf.U_inv) == identity(m)
    d = snf.diagonal
    assert all(snf.D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in d)
    # d_i | d_{i+1}: the nonzero invariant factors come first
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    assert [x for x in d if x] == [int(x) for x in invariant_factors(Matrix(A), domain=ZZ)
                                   if x]
    rank = sum(1 for x in d if x)
    UA = matmul(U, A)
    assert all(x == 0 for row in UA[rank:] for x in row)
    assert all(x % d[i] == 0 for i in range(rank) for x in UA[i])
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


def test_solve_homogeneous_mod_limit():
    assert 10 ** 6 > SOLUTION_LIMIT
    with pytest.raises(ValueError, match="solution space too large"):
        solve_homogeneous_mod([[0] * 6], 10)
