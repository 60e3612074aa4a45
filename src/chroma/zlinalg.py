"""Integer matrix utilities: Smith normal form and homogeneous congruences.

Used for quotients of finite abelian groups and for solving the linear
exponent systems that come out of cocycle conditions modulo N.  The Smith
form keeps only its row side, U and U^-1: a quotient's lift is a column of
U^-1, and congruences run through the transpose, whose row transform is
the column transform they need.

Pivot rule: the first entry of least absolute value in the remaining
block, in row-major order.  The scan stops at the first unit, since no
entry is smaller and a later unit does not replace an earlier one; and a
unit pivot divides the whole block, so its divisibility sweep is skipped.
Both shortcuts leave the sequence of row operations, and so D, U and
U^-1, exactly as the full scan and sweep give them.
"""

from __future__ import annotations

import itertools
import math
import operator

SOLUTION_LIMIT = 100000


class SmithForm:
    """U * A * V == D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    Only the row side is kept: U and U_inv = U^-1.  V is never built.
    """

    def __init__(self, D, U, U_inv):
        self.D = D
        self.U = U
        self.U_inv = U_inv

    @property
    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _pivot(A, t: int, n: int):
    """(i, j) of the first entry of least absolute value in A[t:][t:n],
    row-major, or None when that block is zero.  Returns at the first unit."""
    pivot, best = None, 0
    for i in range(t, len(A)):
        row = A[i]
        for j in range(t, n):
            a = row[j]
            if a and (pivot is None or abs(a) < best):
                pivot, best = (i, j), abs(a)
                if best == 1:
                    return pivot
    return pivot


def smith_normal_form(matrix: list[list[int]]) -> SmithForm:
    """Compute the Smith normal form of an integer matrix.

    Returns D (m x n), U and U^-1 (m x m) with U A V = D for some
    unimodular V, and nonnegative diagonal entries in divisibility order.
    """
    A = [list(row) for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    U, U_inv = _identity(m), _identity(m)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]
        for r in U_inv:  # U_inv <- U_inv * swap
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, c):
        # row_i += c * row_j in place, touching only the nonzero entries of
        # row_j; U_inv gets the inverse op on columns
        for M in (A, U):
            target = M[i]
            for k, b in enumerate(M[j]):
                if b:
                    target[k] += c * b
        for r in U_inv:
            if r[i]:
                r[j] -= c * r[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]
        for r in U_inv:
            r[i] = -r[i]

    # column operations change A alone: no caller reads V
    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]

    def col_add(i, j, c):
        # col_i += c * col_j
        for row in A:
            row[i] += c * row[j]

    t = 0
    while t < min(m, n):
        pivot = _pivot(A, t, n)
        if pivot is None:
            break
        i, j = pivot
        row_swap(t, i)
        col_swap(t, j)
        if A[t][t] < 0:
            row_neg(t)
        again = False
        for i in range(t + 1, m):
            if A[i][t] != 0:
                q = A[i][t] // A[t][t]
                row_add(i, t, -q)
                if A[i][t] != 0:
                    again = True
        for j in range(t + 1, n):
            if A[t][j] != 0:
                q = A[t][j] // A[t][t]
                col_add(j, t, -q)
                if A[t][j] != 0:
                    again = True
        if again:
            continue
        # enforce divisibility: the pivot must divide the rest of the block,
        # as a unit always does
        p = A[t][t]
        bad = None if p == 1 else next(
            (i for i in range(t + 1, m) if any(a % p for a in A[i][t + 1:])), None)
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return SmithForm(A, U, U_inv)


def solve_homogeneous_mod(matrix: list[list[int]], modulus: int) -> list[tuple[int, ...]]:
    """All x in (Z/modulus)^n with matrix @ x == 0 (mod modulus).

    Enumerates via the Smith form of the transpose: U A^T V = D gives
    A = V^-T D^T U^-T, so x = U^T z solves the system exactly when
    d_i z_i == 0 for every i.  Raises if the solution count exceeds
    ``SOLUTION_LIMIT`` (a guard against accidental explosions).  U is
    unimodular, so distinct choices give distinct solutions.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if n == 0:
        return [()]
    snf = smith_normal_form([list(col) for col in zip(*matrix)])
    diag = [snf.D[i][i] if i < m else 0 for i in range(n)]
    choice_sets = []
    for d in diag:
        g = math.gcd(d, modulus)
        step = modulus // g
        choice_sets.append([step * w for w in range(g)])
    count = math.prod(len(cs) for cs in choice_sets)
    if count > SOLUTION_LIMIT:
        raise ValueError(f"solution space too large: {count} > {SOLUTION_LIMIT}")
    # a choice set {0} adds nothing to x: sum over the free coordinates
    # only, whose product runs in the same order as the full one
    free = [k for k, cs in enumerate(choice_sets) if len(cs) > 1]
    cols = [tuple(snf.U[k][i] for k in free) for i in range(n)]
    return [tuple(sum(map(operator.mul, z, col)) % modulus for col in cols)
            for z in itertools.product(*(choice_sets[k] for k in free))]
