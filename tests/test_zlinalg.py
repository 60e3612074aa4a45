import hashlib
import math
import random
from fractions import Fraction

from chroma.zlinalg import smith_normal_form


def seeded_matrices():
    """Dense, sparse and group-relation shaped integer matrices."""
    rng = random.Random("smith")
    out = []
    for m, n in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2), (3, 3), (4, 4),
                 (5, 8), (8, 5), (6, 6)]:
        for _ in range(4):
            out.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
            out.append([[rng.choice((0, 0, 0, 1, -1, 2, 6)) for _ in range(n)]
                        for _ in range(m)])
    for orders in [(2, 2, 2, 2), (3, 9), (4, 4, 4), (2, 6, 12)]:
        n = len(orders)
        for k in range(3):
            gens = [[rng.randrange(o) for o in orders] for _ in range(k + 1)]
            out.append([[orders[i] * (i == j) for j in range(n)] + [g[i] for g in gens]
                        for i in range(n)])
    out.append([[0, 0], [0, 0]])
    return out


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
    assert matmul(snf.U, snf.U_inv) == identity(m)
    assert abs(det(snf.V)) == 1
    d = snf.diagonal
    assert all(snf.D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    assert all(x >= 0 for x in d)
    # d_i | d_{i+1}: the nonzero invariant factors come first
    assert all(b % a == 0 if a else b == 0 for a, b in zip(d, d[1:]))
    # the first invariant factor is the gcd of the entries
    assert d[0] == math.gcd(*(x for row in A for x in row))


# sha256 of repr([(D, U, V, U_inv), ...]) over seeded_matrices(), recorded
# before the row operations were made in place: same operations, same output
SMITH_DIGEST = "6b5a7fc7f7f5755f9f6283dbe38a139c781d4c11473a49f572dae69c440d7fb4"


def test_smith_identities():
    for A in seeded_matrices():
        check_smith_form(A)


def test_smith_outputs_pinned():
    forms = [smith_normal_form(A) for A in seeded_matrices()]
    text = repr([(s.D, s.U, s.V, s.U_inv) for s in forms])
    assert hashlib.sha256(text.encode()).hexdigest() == SMITH_DIGEST
