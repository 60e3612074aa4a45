"""Cyclo arithmetic against sympy's polynomial remainder modulo Phi_N.

sympy is a test-only oracle: the whole module is skipped without it.
"""

import random
from fractions import Fraction

import pytest

from chroma.scalars import Cyclo, cyclotomic_polynomial

sympy = pytest.importorskip("sympy")
x = sympy.Symbol("x")


def random_coeffs(rng: random.Random, length: int) -> list[Fraction]:
    # sparse small rationals
    return [Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
            if rng.random() < 0.6 else Fraction(0) for _ in range(length)]


def as_sympy(coeffs):
    return sympy.Add(*(sympy.Rational(f.numerator, f.denominator) * x ** k
                       for k, f in enumerate(coeffs)))


def matches(c: Cyclo, expected, phi) -> bool:
    # both sides have degree < deg Phi_N, so equal residues are equal polynomials
    residue = sympy.rem(sympy.expand(expected), phi, x)
    return sympy.expand(as_sympy(c.coeffs) - residue) == 0


@pytest.mark.parametrize("N", range(1, 61))
def test_arithmetic_matches_sympy(N):
    rng = random.Random(f"oracle:{N}")
    phi = sympy.cyclotomic_poly(N, x)
    deg = len(cyclotomic_polynomial(N)) - 1
    # a longer coefficient vector than deg Phi_N exercises the reduction;
    # inverses (seconds each near N = 60) are checked in the first pass only
    for length in (deg, 2 * deg + 1):
        raw_a, raw_b = random_coeffs(rng, length), random_coeffs(rng, deg)
        a, b = Cyclo(N, raw_a), Cyclo(N, raw_b)
        A, B = as_sympy(raw_a), as_sympy(raw_b)
        assert matches(a, A, phi)
        assert matches(a * b, A * B, phi)
        assert matches(a + b, A + B, phi)
        assert matches(a - b, A - B, phi)
        assert a.is_zero() == (sympy.rem(A, phi, x) == 0)
        assert b.is_zero() == (B == 0)
        if length == deg and not b.is_zero():
            assert matches(b.inverse(), sympy.invert(B, phi, x), phi)
    # Phi_N itself and its multiples are zero in the field
    phi_coeffs = [Fraction(c) for c in cyclotomic_polynomial(N)]
    assert Cyclo(N, phi_coeffs).is_zero()
    assert Cyclo(N, [Fraction(1, 3) * c for c in phi_coeffs]) == Cyclo.zero(N)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 12, 21])
def test_canonical_form(N):
    half = Cyclo(N, [Fraction(2, 4)])
    assert half == Cyclo(N, [Fraction(1, 2)])
    assert hash(half) == hash(Cyclo(N, [Fraction(1, 2)]))
    assert (half.nums[0], half.den) == (1, 2)
    rng = random.Random(f"canonical:{N}")
    deg = len(cyclotomic_polynomial(N)) - 1
    a = Cyclo(N, random_coeffs(rng, deg) + [Fraction(5, 6)])
    zero = a - a
    assert zero == Cyclo.zero(N) and hash(zero) == hash(Cyclo.zero(N))
    assert (zero.nums, zero.den) == ((0,) * deg, 1)
    if not a.is_zero():
        product = a * a.inverse()
        assert (product.N, product.nums, product.den) == (N, Cyclo.one(N).nums, 1)
    assert (a.scale(6) / Cyclo.from_ratios(N, [(6, 1)])) == a


def test_cyclotomic_polynomial_matches_sympy():
    for N in [*range(1, 301), 2310]:
        expected = sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs()[::-1]
        assert cyclotomic_polynomial(N) == tuple(int(c) for c in expected), N
