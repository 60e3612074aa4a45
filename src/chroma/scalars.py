"""Exact scalar arithmetic.

Two layers:

* ``Scalar`` -- the multiplicative group of monomials zeta * prod(v**e),
  a root of unity times a Laurent monomial in named generic variables.
  Every structure constant handled symbolically by the braiding-matrix
  machinery is such a monomial; the generic variables carry no relations
  among themselves or with the roots of unity.

* ``Cyclo`` -- elements of the cyclotomic field Q(zeta_N), stored as
  residues modulo the monic integer N-th cyclotomic polynomial Phi_N:
  integer numerators in the power basis 1, zeta, .., zeta^(deg-1) over
  one positive common denominator, with no common factor left between
  them (so zero is all-zero numerators over 1).  This form is unique,
  hence equality and hashing are structural and zero-testing is a scan
  of the numerators.  Sums, products, root-of-unity embeddings and the
  inverse (through the norm) run on Python ints.

Roots of unity are represented additively by ``Rational01``: the reduced
fraction k/N in [0, 1) stands for exp(2*pi*i*k/N).  Every law on roots
of unity is checked on integer exponents over a common conductor D, and
``Rational01.over`` is the one conversion to them: k with root = zeta_D^k,
defined only when the root's order divides D.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction


class ParseError(ValueError):
    """Raised on malformed scalar text; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")


def _parse_rational(text, what: str) -> tuple[int, int]:
    """(p, q) from a string "p/q" or "p" in ASCII digits, q > 0; anything
    else is malformed."""
    m = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"{what} {text!r} is not a \"p/q\" string")
    q = int(m.group(2) or 1)
    if q == 0:
        raise ValueError(f"zero denominator in {what} {text!r}")
    return int(m.group(1)), q


class Rational01:
    """A rational residue mod 1, i.e. the root of unity exp(2*pi*i*num/den).

    Always stored reduced with 0 <= num < den, so equality is structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int = 0, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g

    def __add__(self, other: "Rational01") -> "Rational01":
        return Rational01(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other: "Rational01") -> "Rational01":
        return Rational01(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __neg__(self) -> "Rational01":
        return Rational01(-self.num, self.den)

    def scale(self, k: int) -> "Rational01":
        return Rational01(self.num * k, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def over(self, D: int) -> int:
        """The exponent k with exp(2*pi*i*num/den) = zeta_D^k, for den | D."""
        if D % self.den:
            raise ValueError(f"order {self.den} does not divide conductor {D}")
        return D // self.den * self.num

    @property
    def order(self) -> int:
        """Multiplicative order of the root of unity."""
        return self.den

    def __eq__(self, other) -> bool:
        return (isinstance(other, Rational01)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Rational01({self.num}, {self.den})"

    def __str__(self):
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "Rational01":
        """Parse the "num/den" serialization (a bare integer is allowed)."""
        return cls(*_parse_rational(text, "root"))


R01_ZERO = Rational01(0, 1)
R01_HALF = Rational01(1, 2)


# ---------------------------------------------------------------------------
# monomial scalars
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"[a-z][a-z0-9]*\Z")


class Scalar:
    """A nonzero monomial: root of unity times a product of variable powers.

    Two scalars are equal iff their root and all exponents agree; the
    variables are mutually independent generics, so there are no hidden
    relations to normalize away beyond dropping zero exponents.
    Immutable and hashable.
    """

    __slots__ = ("root", "exps")

    def __init__(self, root: Rational01 = R01_ZERO, exps=()):
        if isinstance(exps, dict):
            exps = exps.items()
        cleaned = []
        for name, e in sorted(exps):
            if not _VAR_RE.match(name) or name == "zeta":
                raise ValueError(f"bad variable name {name!r}")
            if e != 0:
                cleaned.append((name, int(e)))
        self.root = root
        self.exps = tuple(cleaned)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "Scalar":
        return cls()

    @classmethod
    def minus_one(cls) -> "Scalar":
        return cls(R01_HALF)

    @classmethod
    def from_root(cls, root: Rational01) -> "Scalar":
        return cls(root)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "Scalar":
        return cls(Rational01(k, n))

    @classmethod
    def variable(cls, name: str, exp: int = 1) -> "Scalar":
        return cls(R01_ZERO, ((name, exp),))

    @classmethod
    def _make(cls, root: Rational01, exps: tuple) -> "Scalar":
        # ``exps`` already sorted by name, valid names, no zero exponents
        self = object.__new__(cls)
        self.root = root
        self.exps = exps
        return self

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "Scalar") -> "Scalar":
        merged = dict(self.exps)
        for name, e in other.exps:
            merged[name] = merged.get(name, 0) + e
        return Scalar._make(self.root + other.root,
                            tuple(sorted((n, e) for n, e in merged.items() if e)))

    def inverse(self) -> "Scalar":
        return Scalar._make(-self.root, tuple((n, -e) for n, e in self.exps))

    def __pow__(self, k: int) -> "Scalar":
        if k == 1:
            return self
        if k == 0:
            return Scalar._make(R01_ZERO, ())
        return Scalar._make(self.root.scale(k),
                            tuple((n, e * k) for n, e in self.exps))

    def is_one(self) -> bool:
        return self.root.is_zero() and not self.exps

    def exponent_of(self, name: str) -> int:
        for n, e in self.exps:
            if n == name:
                return e
        return 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scalar)
                and self.root == other.root and self.exps == other.exps)

    def __hash__(self):
        return hash((self.root, self.exps))

    def __repr__(self):
        return f"Scalar({self!s})"

    # -- text form ---------------------------------------------------------

    def __str__(self):
        """Emit in the scalar grammar, root first, variables alphabetically.

        "1" stands for the empty product; the rest follows
        ``factor := "-1" | "zeta(N,k)" | var("^"int)?`` joined by "*".
        """
        parts = []
        if self.root == R01_HALF:
            parts.append("-1")
        elif not self.root.is_zero():
            parts.append(f"zeta({self.root.den},{self.root.num})")
        for name, e in self.exps:
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) if parts else "1"


_ZETA_RE = re.compile(r"zeta\((\d+),(-?\d+)\)\Z")
_FACTOR_RE = re.compile(r"([a-z][a-z0-9]*)(?:\^(-?\d+))?\Z")


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar grammar; inverse of ``str(scalar)``."""
    if not isinstance(text, str):
        raise ParseError(f"scalar {text!r} is not a string", 0)
    pos = 0
    root = R01_ZERO
    exps: dict = {}
    for piece in text.split("*"):
        factor = piece.strip()
        offset = pos + piece.index(factor) if factor else pos
        pos += len(piece) + 1
        if factor == "":
            raise ParseError("empty factor", offset)
        if factor == "1":
            continue
        if factor == "-1":
            root = root + R01_HALF
            continue
        m = _ZETA_RE.match(factor)
        if m:
            n, k = int(m.group(1)), int(m.group(2))
            if n <= 0:
                raise ParseError("zeta needs a positive order", offset)
            root = root + Rational01(k, n)
            continue
        m = _FACTOR_RE.match(factor)
        if m and m.group(1) != "zeta":
            name = m.group(1)
            exps[name] = exps.get(name, 0) + (int(m.group(2)) if m.group(2) else 1)
            continue
        raise ParseError(f"cannot parse factor {factor!r}", offset)
    return Scalar._make(root, tuple(sorted((n, e) for n, e in exps.items() if e)))


def order_of(a: Scalar) -> int | None:
    """Multiplicative order of ``a``; None when infinite (generic variables)."""
    if a.exps:
        return None
    return a.root.den


def least_power(D: int, r_a: int, r_b: int, e_a=(), e_b=()) -> int | None:
    """Least n >= 0 with a**n == b, or None when no such n exists.

    a = zeta_D^r_a * prod(v**e_a) and b likewise, the exponent vectors
    aligned by variable.  The exponents pin n down over the integers when
    a has any; otherwise n*r_a == r_b (mod D) is solved with one modular
    inverse, modulo the order D / gcd(r_a, D) of a.
    """
    n = None
    for av, bv in zip(e_a, e_b):
        if not av:
            if bv:
                return None
            continue
        if bv % av or bv // av < 0 or n not in (None, bv // av):
            return None
        n = bv // av
    if n is not None:
        return n if (n * r_a - r_b) % D == 0 else None
    g = math.gcd(r_a, D)
    if r_b % g:
        return None
    order = D // g
    return r_b // g * pow(r_a // g, -1, order) % order


def solve_power(a: Scalar, b: Scalar) -> int | None:
    """Least n >= 0 with a**n == b, or None when no such n exists."""
    D = math.lcm(a.root.den, b.root.den)
    names = sorted({n for n, _ in a.exps} | {n for n, _ in b.exps})
    return least_power(D, a.root.over(D), b.root.over(D),
                       [a.exponent_of(n) for n in names], [b.exponent_of(n) for n in names])


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first.

    Phi_n(x) = Phi_m(x^(n/m)) with m the product of the primes of n, and
    for m > 1 Phi_m is the product of (1 - x^d)^mu(m/d) over d | m: each
    factor is applied in one pass to a power series cut at degree phi(m).
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    primes, rest, p = [], n, 1
    while rest > 1:
        p = p + 1 if p * p < rest else rest
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
    deg = math.prod(p - 1 for p in primes)
    divisors = [(1, (-1) ** len(primes))]  # (d, mu(m/d)) over d | m
    for p in primes:
        divisors += [(d * p, -mu) for d, mu in divisors]
    series = [1] + [0] * deg
    for d, mu in divisors:
        if mu > 0:  # times 1 - x^d
            for i in range(deg, d - 1, -1):
                series[i] -= series[i - d]
        else:  # times 1/(1 - x^d) = 1 + x^d + x^(2d) + ...
            for i in range(d, deg + 1):
                series[i] += series[i - d]
    t = n // math.prod(primes)
    return tuple(0 if i % t else series[i // t] for i in range(deg * t + 1))


@functools.lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # deg Phi_n and its nonzero lower terms (j, phi_j)
    phi = cyclotomic_polynomial(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce_mod_phi(nums: list[int], N: int) -> list[int]:
    # fold x^i for i >= deg back using x^deg = -sum_{j<deg} phi_j x^j
    deg, tail = _phi_tail(N)
    for i in range(len(nums) - 1, deg - 1, -1):
        c = nums[i]
        if c:
            base = i - deg
            for j, pj in tail:
                nums[base + j] -= c * pj
    del nums[deg:]
    return nums


def _substitute(c: "Cyclo", k: int, M: int) -> "Cyclo":
    """c with zeta_N replaced by zeta_M^k, as an element of Q(zeta_M).

    k = M/N embeds Q(zeta_N) into Q(zeta_M); M = N with k prime to N is
    the Galois automorphism sigma_k.
    """
    nums = [0] * M
    for e, a in enumerate(c.nums):
        nums[k * e % M] += a
    return Cyclo._make(M, tuple(_reduce_mod_phi(nums, M)), c.den)


def _root_nums(N: int, k: int) -> tuple:
    """The power-basis numerators of zeta_N^k, 0 <= k < N."""
    deg = _phi_tail(N)[0]
    if k < deg:
        return (0,) * k + (1,) + (0,) * (deg - k - 1)
    return tuple(_reduce_mod_phi([0] * k + [1], N))


def _conductor_mismatch(a: "Cyclo", b: "Cyclo") -> ValueError:
    return ValueError(f"conductor mismatch: {a.N} vs {b.N}")


class Cyclo:
    """An element of Q(zeta_N), reduced modulo the N-th cyclotomic polynomial.

    Stored as integer numerators ``nums`` (one per power zeta^0 ..
    zeta^(deg-1), deg = deg Phi_N) over one positive integer ``den``, in
    canonical form: gcd(den, *nums) == 1, so zero is all-zero ``nums``
    over ``den == 1``.  Equal elements therefore have equal fields, and
    ``==`` and ``hash`` are structural.  Sums, products and embeddings
    run on Python ints only; ``coeffs`` gives the rational coefficients.
    """

    __slots__ = ("N", "nums", "den")

    def __init__(self, N: int, coeffs):
        made = Cyclo.from_ratios(N, [(f.numerator, f.denominator) for f in map(Fraction, coeffs)])
        self.N, self.nums, self.den = N, made.nums, made.den

    @classmethod
    def from_ratios(cls, N: int, ratios) -> "Cyclo":
        """The sum of (p/q) zeta^e, (p, q) the e-th pair of ``ratios``, q > 0.

        The numerators go over the lcm of the q's, with no Fraction built;
        a vector longer than deg Phi_N is folded mod Phi_N, a shorter one
        padded with zeros.
        """
        den = math.lcm(*(q for _, q in ratios))
        nums = [p * (den // q) for p, q in ratios]
        deg = _phi_tail(N)[0]
        if len(nums) > deg:
            _reduce_mod_phi(nums, N)
        else:
            nums += [0] * (deg - len(nums))
        return cls._make(N, tuple(nums), den)

    @classmethod
    def _make(cls, N: int, nums: tuple, den: int) -> "Cyclo":
        # nums over den > 0, already reduced mod Phi_N; made canonical here
        if den != 1:
            g = math.gcd(den, *nums)
            if g != 1:
                nums = tuple(c // g for c in nums)
                den //= g
        self = object.__new__(cls)
        self.N = N
        self.nums = nums
        self.den = den
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficients of zeta^0 .. zeta^(deg-1)."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, N: int) -> "Cyclo":
        return cls._make(N, (0,) * _phi_tail(N)[0], 1)

    @classmethod
    def one(cls, N: int) -> "Cyclo":
        return cls._make(N, _root_nums(N, 0), 1)

    @classmethod
    def embed(cls, r: Rational01, N: int) -> "Cyclo":
        """The root of unity exp(2*pi*i*r) as an element of Q(zeta_N)."""
        return cls._make(N, _root_nums(N, r.over(N)), 1)

    # -- ring/field operations ----------------------------------------------

    def __add__(self, other: "Cyclo") -> "Cyclo":
        if self.N != other.N:
            raise _conductor_mismatch(self, other)
        d, e = self.den, other.den
        if d == e:
            nums = tuple([a + b for a, b in zip(self.nums, other.nums)])
            return Cyclo._make(self.N, nums, d)
        nums = tuple([a * e + b * d for a, b in zip(self.nums, other.nums)])
        return Cyclo._make(self.N, nums, d * e)

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        return self + -other

    def __neg__(self) -> "Cyclo":
        return Cyclo._make(self.N, tuple([-a for a in self.nums]), self.den)

    def __mul__(self, other: "Cyclo") -> "Cyclo":
        N = self.N
        if N != other.N:
            raise _conductor_mismatch(self, other)
        a, b = self.nums, other.nums
        if len(a) == 1:
            # Q(zeta_1) = Q(zeta_2) = Q: no reduction
            return Cyclo._make(N, (a[0] * b[0],), self.den * other.den)
        out = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return Cyclo._make(N, tuple(_reduce_mod_phi(out, N)), self.den * other.den)

    def scale(self, q) -> "Cyclo":
        q = Fraction(q)
        p = q.numerator
        return Cyclo._make(self.N, tuple([a * p for a in self.nums]),
                           self.den * q.denominator)

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse through the norm.

        With P the product of the conjugates sigma_k(a), k in (Z/N)^x,
        k != 1, the norm a P is rational, so a^-1 = P / (a P).
        """
        if self.is_zero():
            raise ZeroDivisionError("inverting zero cyclotomic element")
        N = self.N
        conjugates = Cyclo.one(N)
        for k in range(2, N):
            if math.gcd(k, N) == 1:
                conjugates = conjugates * _substitute(self, k, N)
        norm = self * conjugates
        if any(norm.nums[1:]):
            raise AssertionError("the norm of a cyclotomic element is not rational")
        return conjugates.scale(Fraction(norm.den, norm.nums[0]))

    def __truediv__(self, other: "Cyclo") -> "Cyclo":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cyclo) and self.N == other.N
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.N, self.nums, self.den))

    def __repr__(self):
        return f"Cyclo({self.N}, {[str(c) for c in self.coeffs]})"
