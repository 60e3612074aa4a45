import hashlib
import math
import random
from fractions import Fraction

from chroma.groups import FinAbGroup, Subgroup, quotient
from chroma.zlinalg import smith_normal_form


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
    m, n = len(A), len(A[0])
    snf = smith_normal_form(A)
    assert matmul(matmul(snf.U, A), snf.V) == snf.D
    assert abs(det(snf.V)) == 1
    d = snf.diagonal
    assert all(snf.D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in d)
    # d_i | d_{i+1}: the nonzero invariant factors come first
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    # the first invariant factor is the gcd of the entries
    assert d[0] == math.gcd(*(x for row in A for x in row))


# sha256 of repr([(D, U, V), ...]) over seeded_matrices(), recorded while
# smith_normal_form still maintained U^-1: dropping it changes no output
SMITH_DIGEST = "3d9a204f607fdf30f8fba35af4859bfadd20eb96ad7d1508b52f72e23d48758a"


def test_smith_identities():
    for A in seeded_matrices():
        check_smith_form(A)


def test_smith_outputs_pinned():
    forms = [smith_normal_form(A) for A in seeded_matrices()]
    text = repr([(s.D, s.U, s.V) for s in forms])
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
