import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chroma.scalars import (Cyclo, ParseError, Rational01, Scalar,
                            cyclotomic_polynomial, order_of, parse_scalar,
                            solve_power)


def rand_scalar(rng, vars=("q", "r")):
    root = Rational01(rng.randrange(12), rng.choice([1, 2, 3, 4, 6, 12]))
    exps = {}
    for v in vars:
        if rng.random() < 0.6:
            e = rng.randrange(-3, 4)
            if e:
                exps[v] = e
    return Scalar(root, exps)


def test_multiply_examples():
    m1 = Scalar.minus_one()
    assert m1 * m1 == Scalar.one()
    q = Scalar.variable("q")
    assert q * q.inverse() == Scalar.one()
    prod = Scalar.zeta(3, 1) * (m1 * q.inverse())
    assert prod.root == Rational01(5, 6)
    assert prod.exps == (("q", -1),)


def test_group_laws_random():
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * Scalar.one() == a
        assert a * a.inverse() == Scalar.one()


def test_fast_products_match_validating_constructor():
    rng = random.Random(7)
    for _ in range(300):
        a, b = rand_scalar(rng, ("p", "q", "r")), rand_scalar(rng, ("q", "r", "s"))
        merged = dict(a.exps)
        for name, e in b.exps:
            merged[name] = merged.get(name, 0) + e
        assert a * b == Scalar(a.root + b.root, merged)
        assert a.inverse() == Scalar(-a.root, {n: -e for n, e in a.exps})
        k = rng.randrange(-4, 5)
        assert a ** k == Scalar(a.root.scale(k), {n: e * k for n, e in a.exps})
        for s in (a * b, a.inverse(), a ** k):
            assert s.exps == tuple(sorted(s.exps))
            assert all(e != 0 for _, e in s.exps)


def test_pow_and_normalization():
    q = Scalar.variable("q")
    assert (q ** 2) * (q ** -2) == Scalar.one()
    assert str(q ** -1) == "q^-1"
    assert (Scalar.zeta(3, 1) ** 3).is_one()


def test_order_of():
    assert order_of(Scalar.zeta(3, 1)) == 3
    assert order_of(Scalar.one()) == 1
    assert order_of(Scalar.minus_one() * Scalar.variable("q")) is None
    n = order_of(Scalar.zeta(12, 8))  # zeta12^8 = zeta3^2
    assert n == 3


def test_solve_power_examples():
    q = Scalar.variable("q")
    assert solve_power(q, q) == 1
    assert solve_power(q, (q ** -1) * (q ** 2)) == 1
    m1 = Scalar.minus_one()
    assert solve_power(m1, Scalar.one()) == 0
    assert solve_power(m1, m1) == 1
    assert solve_power(q, q ** -1) is None
    assert solve_power(Scalar.one(), q) is None
    assert solve_power(Scalar.zeta(3, 1), Scalar.minus_one()) is None


def brute_solve_power(a, b, bound=200):
    acc = Scalar.one()
    for n in range(bound + 1):
        if acc == b:
            return n
        acc = acc * a
    return None


def test_solve_power_against_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        a = rand_scalar(rng)
        if rng.random() < 0.5:
            b = a ** rng.randrange(0, 40)
        else:
            b = rand_scalar(rng)
        expected = brute_solve_power(a, b)
        got = solve_power(a, b)
        if expected is not None:
            assert got == expected
        else:
            # solutions beyond the brute-force window cannot exist for
            # monomials: variable exponents pin n, roots repeat within order
            assert got is None or got > 200


def test_solve_power_on_all_pure_roots_of_order_at_most_60():
    """Every pair (a, b) of roots of unity of order <= 60 against one scan of
    a's period: the first n at which a^n hits b, or None when it never does."""
    roots = [Scalar.zeta(n, k) for n in range(1, 61) for k in range(n)
             if math.gcd(k, n) == 1]
    for a in roots:
        first = {}
        acc = Scalar.one()
        for n in range(a.root.den):
            first.setdefault(acc, n)
            acc = acc * a
        assert acc.is_one()
        for b in roots:
            assert solve_power(a, b) == first.get(b)


def test_solve_power_on_random_monomials():
    q, r = Scalar.variable("q"), Scalar.variable("r")
    assert solve_power(q * r, (q ** 2) * (r ** 3)) is None  # the variables disagree
    rng = random.Random(60)
    names = ("p", "q", "r")
    for _ in range(500):
        den = rng.randrange(1, 61)
        a = Scalar(Rational01(rng.randrange(den), den),
                   {v: rng.randrange(-3, 4) for v in names if rng.random() < 0.4})
        if rng.random() < 0.5:
            b = a ** rng.randrange(0, 60)
        else:
            den = rng.randrange(1, 61)
            b = Scalar(Rational01(rng.randrange(den), den),
                       {v: rng.randrange(-6, 7) for v in names if rng.random() < 0.4})
        # every solution is below brute_solve_power's bound of 200: a pure
        # root repeats within its order (<= 60), and a variable exponent
        # pins n to the k < 60 of b = a**k or to at most 6
        assert solve_power(a, b) == brute_solve_power(a, b)


def test_order_consistency():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_scalar(rng)
        n = order_of(a)
        if n is not None:
            assert (a ** n).is_one()
            for m in range(1, n):
                assert not (a ** m).is_one()


def test_parse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        a = rand_scalar(rng)
        assert parse_scalar(str(a)) == a
    assert parse_scalar("-1*q^-1") == Scalar.minus_one() * Scalar.variable("q", -1)
    assert parse_scalar("zeta(3,1)") == Scalar.zeta(3, 1)
    assert parse_scalar("q^2*q^-2") == Scalar.one()
    assert parse_scalar("1") == Scalar.one()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("")
    with pytest.raises(ParseError):
        parse_scalar("q^")
    with pytest.raises(ParseError):
        parse_scalar("Q")
    with pytest.raises(ParseError):
        parse_scalar("zeta(0,1)")
    with pytest.raises(ParseError):
        parse_scalar("q**2")


def test_rational01_reduction():
    r = Rational01(14, 12)
    assert (r.num, r.den) == (1, 6)
    assert Rational01(-1, 4) == Rational01(3, 4)
    assert Rational01(7, -2) == Rational01(1, 2)


def test_rational01_str_round_trips():
    for den in range(1, 25):
        for num in range(-2 * den, 2 * den + 1):
            r = Rational01(num, den)
            assert Rational01.parse(str(r)) == r


# ---------------------------------------------------------------------------
# cyclotomic arithmetic
# ---------------------------------------------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_embed_examples():
    assert (Cyclo.embed(Rational01(1, 2), 2) + Cyclo.embed(Rational01(0, 1), 2)).is_zero()
    prod = Cyclo.embed(Rational01(1, 3), 3) * Cyclo.embed(Rational01(2, 3), 3)
    assert prod == Cyclo.one(3)
    total = Cyclo.embed(Rational01(1, 3), 3) + Cyclo.embed(Rational01(2, 3), 3)
    assert total == Cyclo.from_ratios(3, [(-1, 1)])


def test_embed_requires_divisibility():
    with pytest.raises(ValueError):
        Cyclo.embed(Rational01(1, 3), 4)


def test_over_gives_the_exponent_over_a_conductor():
    assert Rational01(1, 4).over(8) == 2
    assert Rational01(3, 4).over(4) == 3
    assert Rational01(0, 1).over(7) == 0
    with pytest.raises(ValueError) as over:
        Rational01(1, 4).over(6)
    with pytest.raises(ValueError) as embed:
        Cyclo.embed(Rational01(1, 4), 6)
    assert str(over.value) == str(embed.value) == "order 4 does not divide conductor 6"


def test_inverse_and_division():
    rng = random.Random(5)
    for N in (3, 4, 5, 12):
        for _ in range(20):
            c = Cyclo(N, [Fraction(rng.randrange(-3, 4)) for _ in
                          range(len(cyclotomic_polynomial(N)) - 1)])
            if c.is_zero():
                continue
            assert (c * c.inverse()) == Cyclo.one(N)
    with pytest.raises(ZeroDivisionError):
        Cyclo.zero(5).inverse()


def complex_value(c: Cyclo) -> complex:
    z = cmath.exp(2j * math.pi / c.N)
    return sum(float(f) * z ** k for k, f in enumerate(c.coeffs))


def test_float_sanity_oracle():
    # numeric check only; the library itself never leaves exact arithmetic
    rng = random.Random(9)
    for N in (3, 4, 5, 7, 8, 12):
        for _ in range(30):
            a = Cyclo.embed(Rational01(rng.randrange(N), N), N)
            b = Cyclo.embed(Rational01(rng.randrange(N), N), N)
            c = a * b + a - b
            za, zb = complex_value(a), complex_value(b)
            assert abs(complex_value(c) - (za * zb + za - zb)) < 1e-9


def test_inverse_self_check_survives_optimize():
    """The norm check in Cyclo.inverse raises AssertionError under python -O
    too, so a broken conjugate still reaches the CLI's exit 3."""
    script = (
        "import chroma.scalars as s\n"
        "s._substitute = lambda c, k, M: s.Cyclo.one(M)\n"
        "try:\n"
        "    s.Cyclo.embed(s.Rational01(1, 3), 3).inverse()\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "the norm of a cyclotomic element is not rational\n"
