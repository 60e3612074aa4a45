"""Structure-constant (co)algebras over exact cyclotomic arithmetic.

``StructBialgebra`` stores multiplication and comultiplication tables
with coefficients in Q(zeta_N); the axiom checker runs over basis tuples,
in plain or color mode (color mode twists the product on the tensor
square by the bicharacter of the grading group).  A law holds once it
holds on the generators s of an irredundant set, on the pairs (s, j) for
a product law, given its precondition: the unit laws; for epsilon, Delta
and a morphism also associativity and the law at 1; for Delta in color
mode a graded product; for coassociativity and the counit laws every
bialgebra law and, in color mode, a graded H.  Otherwise all tuples are
swept for the first counterexample.  The parse, the term tables and the
joins walk only nonzero products: each mult row's nonempty cells.
The antipode is the convolution inverse of the identity: id^{*(dim H - 1)}
by squaring when H's exponent divides dim H, otherwise read off its
minimal polynomial; either candidate is verified on both sides.

Every product, coproduct, tensor, map image and isotypic projection runs
in the group ring of mu_N: each coefficient becomes exponent terms (e, r)
standing for r zeta_N^e, products add exponents mod N, and sums reduce
mod Phi_N in ``scalars._reduce_mod_phi``, the one fold ``Cyclo`` uses
too, in memory linear in N.  A root of unity is the one term (k, 1): k is
``Rational01.over(N)`` for a beta twist, an action scale or a character,
and is read off the power basis for a root stored as a ``Cyclo``.  The
axiom sweep, the morphism test, the antipode's convolution powers and
braided laws, and ``grade_by_action``'s projectors and change of basis
all use it; each equation lhs = rhs is one zero test of lhs - rhs, which
folds only when the terms do not cancel exactly.

``Cyclo`` is used only where a field inverse is taken or a ``Cyclo``
table is built.  ``Echelon``, the one incremental Gauss-Jordan
elimination (rank, ``grade_by_action``'s basis and its inverse, and the
antipode's Krylov fallback), accumulates (key, Cyclo) terms with
``lc_add_scaled``, which drops zeros; a projector column reaches it as
one fold of its terms.  Monomial dual-group actions are validated by
``validated_action``.

A monomial map e_j -> zeta^{x_j} e_pi(j) of an H whose table cells are
sums of distinct roots of unity is a bialgebra morphism exactly when
integer forms in x vanish mod N: ``_monomial_certificate`` builds them
once per pi from the term tables, and ``aut-ext`` checks every solution
against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .groups import Bicharacter, Character, FinAbGroup
from .scalars import Cyclo, Rational01, _parse_rational, _reduce_mod_phi, _substitute
from .zlinalg import Congruences


class ActionError(ValueError):
    pass


class NonMonomialAction(ActionError):
    pass


class NonCommutingAction(ActionError):
    pass


# ---------------------------------------------------------------------------
# monomial matrices
# ---------------------------------------------------------------------------


class MonomialMatrix:
    """A permutation matrix with root-of-unity scales: e_j -> scal[j] e_perm[j]."""

    __slots__ = ("perm", "scal")

    def __init__(self, perm, scal=None):
        self.perm = tuple(perm)
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise NonMonomialAction("permutation part is not a bijection")
        self.scal = tuple(scal) if scal is not None else (Rational01(),) * n

    @property
    def dim(self) -> int:
        return len(self.perm)

    @classmethod
    def identity(cls, n: int) -> "MonomialMatrix":
        return cls(range(n))

    def __mul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        # (self*other) e_j = self(other e_j)
        perm = tuple(self.perm[other.perm[j]] for j in range(self.dim))
        scal = tuple(other.scal[j] + self.scal[other.perm[j]] for j in range(self.dim))
        return MonomialMatrix(perm, scal)

    def __pow__(self, k: int) -> "MonomialMatrix":
        result = MonomialMatrix.identity(self.dim)
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "MonomialMatrix":
        perm = [0] * self.dim
        scal = [Rational01()] * self.dim
        for j, i in enumerate(self.perm):
            perm[i] = j
            scal[i] = -self.scal[j]
        return MonomialMatrix(perm, scal)

    def commutes_with(self, other: "MonomialMatrix") -> bool:
        return self * other == other * self

    def __eq__(self, other) -> bool:
        return (isinstance(other, MonomialMatrix)
                and self.perm == other.perm and self.scal == other.scal)

    def __hash__(self):
        return hash((self.perm, self.scal))

    def term_column(self, j: int, N: int) -> tuple:
        """The image of e_j as the one exponent term (perm[j], k, 1), zeta_N^k = scal[j]."""
        return ((self.perm[j], self.scal[j].over(N), 1),)

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "scal": [str(s) for s in self.scal]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialMatrix":
        perm = data["perm"] if isinstance(data, dict) else None
        if not isinstance(perm, list) or not all(type(k) is int for k in perm):
            raise ValueError('an action matrix must be an object with a "perm" array of '
                             "basis indices")
        scal = _array(data["scal"], len(perm), "action matrix scal")
        return cls(perm, [Rational01.parse(s) for s in scal])


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------


def lc_add_scaled(acc: dict, terms, factor: Cyclo) -> None:
    """acc += factor * sum of c e_k over the (k, c) pairs of ``terms``.

    ``terms`` is any iterable of (key, Cyclo) pairs: a mult cell,
    ``dict.items()`` or generated pairs.  Entries that become zero are
    dropped, so a combination never stores a zero coefficient.
    """
    if factor.is_zero():
        return
    for k, c in terms:
        v = acc.get(k)
        v = c * factor if v is None else v + c * factor
        if v.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = v


class Echelon:
    """Incremental Gauss-Jordan elimination of sparse vectors over Q(zeta_N).

    Each stored row is (pivot, vector, tags): the vector has coefficient 1
    at its pivot and 0 at every other row's pivot, and ``tags`` is the
    combination of input tags it equals.  Each pivot is inverted once.
    """

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, vec: dict, tags: dict | None = None) -> dict | None:
        """Reduce ``vec``, whose tag combination is ``tags``, by the rows.

        If it reduces to zero, return the tag combination that vanishes
        (the dependency); otherwise store it as a new row and return None.
        """
        vec = dict(vec)
        tags = dict(tags) if tags else {}
        for pivot, row, row_tags in self.rows:
            _clear(vec, tags, pivot, row, row_tags)
        if not vec:
            return tags
        pivot = min(vec)
        inv = vec[pivot].inverse()
        vec = {k: c * inv for k, c in vec.items()}
        tags = {k: c * inv for k, c in tags.items()}
        for _, row, row_tags in self.rows:
            _clear(row, row_tags, pivot, vec, tags)
        self.rows.append((pivot, vec, tags))
        return None


def _clear(vec: dict, tags: dict, pivot, row: dict, row_tags: dict) -> None:
    """Subtract vec[pivot] times (row, row_tags), whose pivot entry is 1."""
    f = vec.get(pivot)
    if f is not None:
        f = -f
        lc_add_scaled(vec, row.items(), f)
        lc_add_scaled(tags, row_tags.items(), f)


# ---------------------------------------------------------------------------
# the structure-constant bialgebra
# ---------------------------------------------------------------------------


@dataclass
class StructBialgebra:
    dim: int
    conductor: int
    mult: list          # mult[i][j] = tuple of (k, Cyclo)
    comult: list        # comult[i] = tuple of (j, k, Cyclo)
    unit: dict          # sparse combo
    counit: list        # dense vector of Cyclo
    grading: tuple | None = None   # Element per basis index
    group: FinAbGroup | None = None
    beta: Bicharacter | None = None

    def one(self) -> Cyclo:
        return Cyclo.one(self.conductor)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def group_algebra(cls, table: list[list[int]], identity: int,
                      conductor: int = 1) -> "StructBialgebra":
        """The group algebra of a finite group given by its Cayley table."""
        n = len(table)
        one = Cyclo.one(conductor)
        mult = [[((table[i][j], one),) for j in range(n)] for i in range(n)]
        comult = [((i, i, one),) for i in range(n)]
        return cls(dim=n, conductor=conductor, mult=mult, comult=comult,
                   unit={identity: one}, counit=[one] * n)

    def lifted(self, conductor: int) -> "StructBialgebra":
        """The same structure with coefficients in a larger cyclotomic field."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("new conductor must be a multiple of the old one")
        # one lift per coefficient object, keyed by id: the tables share
        # objects, and self keeps each one alive for the whole call
        memo: dict = {}

        def lift(c: Cyclo) -> Cyclo:
            out = memo.get(id(c))
            if out is None:
                out = memo[id(c)] = lift_cyclo(c, conductor)
            return out

        mult = [[tuple((k, lift(c)) for k, c in cell) for cell in row]
                for row in self.mult]
        comult = [tuple((j, k, lift(c)) for j, k, c in entry) for entry in self.comult]
        unit = {k: lift(c) for k, c in self.unit.items()}
        counit = [lift(c) for c in self.counit]
        return replace(self, conductor=conductor, mult=mult, comult=comult,
                       unit=unit, counit=counit)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        def coeff(c: Cyclo) -> list:
            return [str(f) for f in c.coeffs]

        data = {
            "schema": 1,
            "dim": self.dim,
            "conductor": self.conductor,
            "mult": [[[[k, coeff(c)] for k, c in cell] for cell in row]
                     for row in self.mult],
            "comult": [[[j, k, coeff(c)] for j, k, c in entry]
                       for entry in self.comult],
            "unit": [[k, coeff(c)] for k, c in sorted(self.unit.items())],
            "counit": [coeff(c) for c in self.counit],
        }
        if self.grading is not None:
            data["grading"] = [list(g.residues) for g in self.grading]
            data["group"] = self.group.to_json()
            data["beta"] = self.beta.to_json() if self.beta is not None else None
        return data

    @classmethod
    def from_json(cls, data: dict) -> "StructBialgebra":
        """Parse ``to_json`` output; any malformed table raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError("a structure must be a JSON object")
        N, dim = data["conductor"], data["dim"]
        if type(N) is not int or N < 1:
            raise ValueError(f"conductor must be a positive integer, not {N!r}")
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dim must be a nonnegative integer, not {dim!r}")

        def index(k) -> int:
            if type(k) is not int or not 0 <= k < dim:
                raise ValueError(f"basis index {k!r} is not in range({dim})")
            return k

        parsed: dict = {}  # each distinct vector, parsed once in this call

        def coeff(c) -> Cyclo:
            if isinstance(c, str):
                return Cyclo.embed(Rational01.parse(c), N)
            key = tuple(_array(c, None, "coefficient"))
            try:
                return parsed[key]
            except (KeyError, TypeError):  # TypeError: a list or object item, rejected below
                ratios = [_parse_rational(s, "coefficient") for s in key]
            value = parsed[key] = Cyclo.from_ratios(N, ratios)
            return value

        def terms(value, width: int, what: str, container: str):
            return (_array(t, width, what) for t in _array(value, None, container))

        def distinct(entries: tuple, width: int, what: str) -> tuple:
            # a repeated index would make the entry ambiguous
            if len({e[:width] for e in entries}) != len(entries):
                raise ValueError(f"{what} repeats a basis index")
            return entries

        mult = [[() if cell == [] else
                 distinct(tuple((index(k), coeff(c))
                                for k, c in terms(cell, 2, "mult term", "mult cell")),
                          1, "mult cell")
                 for cell in _array(row, dim, "mult row")]
                for row in _array(data["mult"], dim, "mult")]
        comult = [distinct(tuple((index(j), index(k), coeff(c))
                                 for j, k, c in terms(entry, 3, "comult term", "comult entry")),
                           2, "comult entry")
                  for entry in _array(data["comult"], dim, "comult")]
        unit = dict(distinct(tuple((index(k), coeff(c))
                                   for k, c in terms(data["unit"], 2, "unit term", "unit")),
                             1, "unit"))
        counit = [coeff(c) for c in _array(data["counit"], dim, "counit")]
        grading = group = beta = None
        if "grading" in data:
            if "group" not in data:
                raise ValueError('a structure with "grading" needs a "group" object')
            group = FinAbGroup.from_json(data["group"])
            grading = group.elements_from_json(_array(data["grading"], dim, "grading"),
                                               "grading")
            if data.get("beta") is not None:
                beta = Bicharacter.from_json(group, data["beta"])
        return cls(dim=dim, conductor=N, mult=mult, comult=comult,
                   unit=unit, counit=counit, grading=grading, group=group,
                   beta=beta)


def _array(value, length: int | None, what: str) -> list:
    """``value`` checked to be a JSON array, of ``length`` items if given."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "" if length is None else f" of length {length}"
        raise ValueError(f"{what} must be an array{size}")
    return value


def lift_cyclo(c: Cyclo, M: int) -> Cyclo:
    """Embed Q(zeta_N) into Q(zeta_M) for N | M via zeta_N = zeta_M^(M/N)."""
    if M == c.N:
        return c
    if M % c.N:
        raise ValueError("target conductor must be a multiple")
    return _substitute(c, M // c.N, M)


# ---------------------------------------------------------------------------
# exponent terms: exact sums in the group ring of mu_N
# ---------------------------------------------------------------------------
#
# Every coefficient of Q(zeta_N) is written as terms (e, r), meaning
# r zeta_N^e with e mod N and r rational: a root of unity is one term
# (k, 1), anything else its power-basis terms (e, nums[e]/den).  A
# combination is a tuple of (key, e, r); products add exponents mod N and
# multiply weights, and sums accumulate in a dict keyed by (key, e), so
# they live in Q[x]/(x^N - 1).  Only ``_nonzero_keys`` reduces mod Phi_N:
# for the zero test and for the conversion back to ``Cyclo``.


def _root_exponent(nums: tuple, N: int):
    """k with ``nums`` the power-basis numerators of zeta_N^k, or None: a
    lone 1 at index j is zeta^j, and any other root zeta^k has k >= deg,
    so m = N - k <= N - deg multiplications by zeta take it to 1."""
    deg = len(nums)
    if nums.count(0) == deg - 1 and 1 in nums:
        return nums.index(1)
    if not any(nums):
        return None
    one, v = [1] + [0] * (deg - 1), list(nums)
    for m in range(1, N - deg + 1):
        v = _reduce_mod_phi([0] + v, N)
        if v == one:
            return N - m
    return None


def _terms(c: Cyclo, N: int) -> tuple:
    """c as terms (e, r) with c = sum of r zeta_N^e; zero has none."""
    if c.N != N:
        raise ValueError(f"conductor mismatch: {c.N} vs {N}")
    if c.den == 1:
        k = _root_exponent(c.nums, N)
        if k is not None:
            return ((k, 1),)
        return tuple((e, a) for e, a in enumerate(c.nums) if a)
    return tuple((e, Fraction(a, c.den)) for e, a in enumerate(c.nums) if a)


def _combo_terms(pairs, N: int) -> tuple:
    """The (key, e, r) terms of the (key, Cyclo) pairs ``pairs``."""
    return tuple((k, e, r) for k, c in pairs for e, r in _terms(c, N))


def _term_tables(H: StructBialgebra) -> tuple:
    """H's mult, comult, unit and counit as term combinations, and each
    mult row's nonempty cells as (j, cell) pairs.

    Comult keys are pairs (j, k); counit values are combinations over the
    one key ().  The joins of the axiom sweep walk only the nonempty cells:
    in the bases of a bicrossed product most products are zero.  Built
    once per structure and kept on it, so the axiom sweep, the morphism
    check, the antipode and its braided laws share one build.  Each
    coefficient object is written as terms once per build: parsed tables
    share one ``Cyclo`` per distinct vector, and H keeps every one alive,
    so its ``id`` is a sound key.
    """
    tables = getattr(H, "_tables", None)
    if tables is None:
        N = H.conductor
        memo: dict = {}

        def combo(pairs) -> tuple:
            out = []
            for k, c in pairs:
                terms = memo.get(id(c))
                if terms is None:
                    terms = memo[id(c)] = _terms(c, N)
                out += [(k, e, r) for e, r in terms]
            return tuple(out)

        mult = [[combo(cell) if cell else () for cell in row] for row in H.mult]
        comult = [combo(((j, k), c) for j, k, c in entry) for entry in H.comult]
        tables = H._tables = (mult, comult, combo(H.unit.items()),
                              [combo((((), c),)) for c in H.counit],
                              [[(j, cell) for j, cell in enumerate(row) if cell] for row in mult])
    return tables


def _add_terms(acc: dict, x, e0: int, r0, N: int) -> None:
    """acc += r0 zeta^e0 x."""
    for k, e, r in x:
        key = (k, (e0 + e) % N)
        acc[key] = acc.get(key, 0) + r0 * r


def _add_mapped(acc: dict, x, columns, N: int) -> None:
    """acc += the image of x under e_a -> columns[a]."""
    for a, ea, ra in x:
        for k, e, r in columns[a]:
            key = (k, (ea + e) % N)
            acc[key] = acc.get(key, 0) + ra * r


def _add_product(acc: dict, x, y, mult, e0: int, r0, N: int) -> None:
    """acc += r0 zeta^e0 x y, the product in H through its term table ``mult``."""
    for a, ea, ra in x:
        row = mult[a]
        for b, eb, rb in y:
            f = r0 * ra * rb
            shift = e0 + ea + eb
            for k, e, r in row[b]:
                key = (k, (shift + e) % N)
                acc[key] = acc.get(key, 0) + f * r


def _add_tensor(acc: dict, x, y, e0: int, r0, N: int) -> None:
    """acc += r0 zeta^e0 (x (x) y), keyed by pairs."""
    for a, ea, ra in x:
        f = r0 * ra
        for b, eb, rb in y:
            key = ((a, b), (e0 + ea + eb) % N)
            acc[key] = acc.get(key, 0) + f * rb


def _nonzero_keys(acc: dict, N: int) -> dict:
    """The keys k at which the sum of w zeta^e over acc's ((k, e), w) is
    nonzero, each with that sum's power-basis coefficients.

    Exact cancellation is the common case.  Otherwise each key's weights
    are summed into an exponent vector of length N and folded once mod
    Phi_N: at N = 2, for instance, 1 + zeta = 0.
    """
    if not any(acc.values()):
        return {}
    folded: dict = {}
    for (k, e), w in acc.items():
        if w:
            vec = folded.get(k)
            if vec is None:
                vec = folded[k] = [0] * N
            vec[e] += w
    return {k: vec for k, vec in folded.items() if any(_reduce_mod_phi(vec, N))}


def _as_cyclo(acc: dict, N: int) -> dict:
    """acc's sums as a combination key -> nonzero Cyclo."""
    return {k: Cyclo.from_ratios(N, [(w.numerator, w.denominator) for w in vec])
            for k, vec in _nonzero_keys(acc, N).items()}


def _sum(equation, *t) -> dict:
    """The accumulator that equation(acc, *t) fills, from empty."""
    acc: dict = {}
    equation(acc, *t)
    return acc


def _holds(equation, N: int, *t) -> bool:
    """Whether lhs - rhs, as equation(acc, *t) accumulates it, vanishes."""
    acc: dict = {}
    equation(acc, *t)
    return not _nonzero_keys(acc, N)


def _cyclo_columns(cols: list, N: int) -> list:
    """Term columns as combinations key -> nonzero Cyclo."""
    return [_as_cyclo(_sum(_add_terms, col, 0, 1, N), N) for col in cols]


def _twist_table(H: StructBialgebra) -> list:
    """twist[b][a] = the exponent of beta(|b|, |a|) in mu_N."""
    degrees = set(H.grading)
    exponent = {(g, h): H.beta.eval(g, h).over(H.conductor) for g in degrees for h in degrees}
    return [[exponent[g, h] for h in H.grading] for g in H.grading]


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def _algebra_generators(H: StructBialgebra) -> list:
    """An irredundant set of basis indices that, with the unit, generate H
    as an algebra.  An index is reached when it is a generator, the unit's one
    basis element, or a nonzero multiple of a single-term product of two
    reached ones.  One pass from the last index down makes each unreached
    index in turn a pick and adds its closure.  From the last pick back, a
    pick goes when the earlier picks and the kept later ones reach it: a
    closure that starts from what the earlier picks reached and stops once
    it reaches the pick.
    """
    n = H.dim
    products: list = [[] for _ in range(n)]  # (b, k): e_a e_b or e_b e_a is c e_k, c != 0
    for a, row in enumerate(H.mult):
        for b, cell in enumerate(row):
            if len(cell) == 1 and not cell[0][1].is_zero():
                products[a].append((b, cell[0][0]))
                products[b].append((a, cell[0][0]))

    def close(reached: list, todo: list, stop=None) -> bool:
        """Mark ``todo`` and all it reaches; whether ``stop`` is reached."""
        while todo:
            a = todo.pop()
            if not reached[a]:
                if a == stop:
                    return True
                reached[a] = True
                todo += [k for b, k in products[a] if reached[b] and not reached[k]]
        return False

    reached = [False] * n
    close(reached, [u for u, c in H.unit.items() if len(H.unit) == 1 and not c.is_zero()])
    picks = []  # (pick, what the earlier picks reached)
    for k in reversed(range(n)):
        if not reached[k]:
            picks.append((k, reached[:]))
            close(reached, [k])
    generators: list = []
    for k, before in reversed(picks):
        if not close(before, generators[:], k):
            generators.append(k)
    return generators


def _product_law(equation, precondition: bool, generators: list, n: int, N: int, arity=2):
    """The first (i, j), or (i,) at ``arity`` 1, failing the law ``equation``, or None.

    Given the precondition, the x that satisfy the law for all y form a
    subalgebra (1 by the precondition, ab by associativity or the law
    itself); at arity 1, the x on which two unital algebra maps agree.  So
    only the generator rows (s, j), or (s,), are tested.  Else all tuples
    are swept, skipping the generator rows before the first failing one,
    ce, which held; ce = (-1,) skips none.
    """
    rest = [range(n)] * (arity - 1)
    rows = itertools.product(sorted(generators), *rest)
    ce = next((t for t in rows if not _holds(equation, N, *t)), None) if precondition else (-1,)
    tuples = (t for t in itertools.product(range(n), *rest) if t[0] not in generators or t >= ce)
    return next((t for t in tuples if not _holds(equation, N, *t)), None) if ce else None


def _algebra_laws(H: StructBialgebra) -> tuple:
    """(``_algebra_generators(H)``, the first (i,) failing a unit law, the
    first (i, j, k) failing associativity), None where a law holds; kept on
    H like ``_term_tables`` for ``check_axioms`` and ``_morphism_check``."""
    laws = getattr(H, "_laws", None)
    if laws is None:
        n, N = H.dim, H.conductor
        mult, _, unit, _, nonempty = _term_tables(H)
        basis = [((i, 0, 1),) for i in range(n)]

        def unit_law(acc, x, y, i):
            # x y - e_i, with x or y the unit and the other e_i
            _add_product(acc, x, y, mult, 0, 1, N)
            _add_terms(acc, basis[i], 0, -1, N)

        def associativity(acc, i, j):
            # (e_i e_j) e_k - e_i (e_j e_k) for every k at once, keyed by (k, m)
            row_i = mult[i]
            for l, e1, r1 in row_i[j]:
                for k, cell in nonempty[l]:
                    for m, e2, r2 in cell:
                        key = ((k, m), (e1 + e2) % N)
                        acc[key] = acc.get(key, 0) + r1 * r2
            for k, cell in nonempty[j]:
                for l, e1, r1 in cell:
                    for m, e2, r2 in row_i[l]:
                        key = ((k, m), (e1 + e2) % N)
                        acc[key] = acc.get(key, 0) - r1 * r2

        unit_ce = next(((i,) for i in range(n) if not (_holds(unit_law, N, unit, basis[i], i)
                                                     and _holds(unit_law, N, basis[i], unit, i))),
                       None)
        generators = _algebra_generators(H)
        ce = _product_law(associativity, unit_ce is None, generators, n, N)
        if ce:  # with the least k at which (e_i e_j) e_k != e_i (e_j e_k)
            ce += (min(_nonzero_keys(_sum(associativity, *ce), N))[0],)
        laws = H._laws = (generators, unit_ce, ce)
    return laws


def check_axioms(H: StructBialgebra, mode: str = "plain") -> dict:
    """Exhaustive (co)algebra and bialgebra axioms; per-axiom results.

    In color mode the compatibility of the coproduct with the product is
    taken in the braided sense: (x (x) x')(y (x) y') =
    beta(|x'|, |y|) xy (x) x'y'.  Returns a dict axiom -> {"ok", "counterexample"}
    plus an "all_ok" summary flag; the counterexample is the first failing
    basis tuple.  Each equation is one zero test of lhs - rhs in exponent
    terms.

    The product laws (associativity, epsilon and Delta multiplicative) are
    tested only on the pairs (s, j), s in ``_algebra_generators(H)``, once
    a precondition holds (``_product_law``): for associativity the unit
    laws (``_algebra_laws``); for epsilon also associativity and
    epsilon(1) = 1; for Delta the unit laws, associativity,
    Delta(1) = 1 (x) 1 and, in color mode, a graded product.  Otherwise
    all n^2 pairs are swept.  Coassociativity and the counit laws, given
    all of these laws and in color mode a graded H, are tested on the
    generators alone, else on all n indices.  Either way the counterexample
    is the first failing tuple (for associativity (i, j, the least k)).
    Associativity walks only the nonempty mult cells, and Delta's law meets
    each term (a2, b2) of Delta(e_j) only with the terms (a, b) of
    Delta(e_i) with e_a e_a2 != 0, indexed on first use of the row i.
    """
    if mode not in ("plain", "color"):
        raise ValueError("mode must be 'plain' or 'color'")
    if mode == "color" and (H.grading is None or H.beta is None):
        raise ValueError("color mode needs grading and braiding data")
    report: dict = {}
    n, N = H.dim, H.conductor
    mult, comult, unit, counit, nonempty = _term_tables(H)
    generators, unit_ce, ce = _algebra_laws(H)

    def record(name, counterexample, ok=None):
        report[name] = {"ok": counterexample is None if ok is None else ok,
                        "counterexample": counterexample}

    def product_law(name, equation, precondition, arity=2):
        record(name, _product_law(equation, precondition, generators, n, N, arity))

    def coassociativity(acc, i):
        for (j, k), e, r in comult[i]:
            for (a, b), e2, r2 in comult[j]:
                key = ((a, b, k), (e + e2) % N)
                acc[key] = acc.get(key, 0) + r * r2
            for (a, b), e2, r2 in comult[k]:
                key = ((j, a, b), (e + e2) % N)
                acc[key] = acc.get(key, 0) - r * r2

    def counit_laws(acc, i):
        # (id (x) counit) Delta(e_i) = e_i at keys (0, k), (counit (x) id) Delta(e_i) = e_i
        # at keys (1, k): one zero test for both counit laws
        for (j, k), e, r in comult[i]:
            for side, x, y in ((0, j, k), (1, k, j)):
                for _, e2, r2 in counit[y]:
                    _add_terms(acc, (((side, x), 0, 1),), e + e2, r * r2, N)
        _add_terms(acc, (((0, i), 0, 1), ((1, i), 0, 1)), 0, -1, N)

    def counit_of_unit(acc):
        _add_mapped(acc, unit, counit, N)
        _add_terms(acc, (((), 0, 1),), 0, -1, N)

    def counit_multiplicative(acc, i, j):
        _add_mapped(acc, mult[i][j], counit, N)
        for _, e, r in counit[i]:
            _add_terms(acc, counit[j], e, -r, N)

    def unit_comultiplicative(acc):
        _add_mapped(acc, unit, comult, N)
        _add_tensor(acc, unit, unit, 0, -1, N)

    twist = _twist_table(H) if mode == "color" else [[0] * n] * n
    partners: dict = {}

    def coproduct_multiplicative(acc, i, j):
        # Delta(e_i e_j) = Delta(e_i) Delta(e_j), beta-twisted in color mode; partners[i][a2]
        # holds (e_a e_a2, row b, e1 + beta(|b|, |a2|)'s exponent, r1) if e_a e_a2 != 0
        index = partners.get(i)
        if index is None:
            index = partners[i] = {}
            for (a, b), e1, r1 in comult[i]:
                for a2, x in nonempty[a]:
                    index.setdefault(a2, []).append((x, mult[b], e1 + twist[b][a2], r1))
        _add_mapped(acc, mult[i][j], comult, N)
        for (a2, b2), e2, r2 in comult[j]:
            for x, row_b, e1, r1 in index.get(a2, ()):
                y = row_b[b2]
                if y:
                    _add_tensor(acc, x, y, e1 + e2, -r1 * r2, N)

    record("unit", unit_ce)
    record("associativity", ce)
    associative = unit_ce is None and ce is None  # a unital associative algebra
    if _holds(counit_of_unit, N):
        product_law("counit_multiplicative", counit_multiplicative, associative)
    else:
        record("counit_multiplicative", ("unit",))
    record("unit_comultiplicative", None, _holds(unit_comultiplicative, N))

    # grading compatibility: the first violation, in sweep order; the
    # product's half comes first, since the coproduct's precondition needs it
    deg = H.grading
    ce = None if deg is None else next(
        (("mult", i, j, k) for i, row in enumerate(H.mult) for j, cell in enumerate(row)
         for k, _ in cell if deg[k] != deg[i] * deg[j]), None)
    # the braided H (x) H is associative only for a graded product
    product_law("coproduct_multiplicative", coproduct_multiplicative,
                associative and report["unit_comultiplicative"]["ok"]
                and (mode == "plain" or ce is None))

    if deg is not None:
        ce = ce or next(itertools.chain(
            (("comult", i, j, k) for i in range(n) for j, k, _ in H.comult[i]
             if deg[j] * deg[k] != deg[i]),
            (("unit", i) for i in H.unit if not deg[i].is_identity()),
            (("counit", i) for i in range(n)
             if not H.counit[i].is_zero() and not deg[i].is_identity())), None)
        record("grading", ce)

    # given every law so far, and a graded H in color mode, both sides of each
    # coalgebra law are unital algebra maps from H to its (braided) tensor powers
    bialgebra = all(v["ok"] for k, v in report.items() if k != "grading" or mode == "color")
    product_law("coassociativity", coassociativity, bialgebra, 1)
    product_law("counit", counit_laws, bialgebra, 1)

    report["all_ok"] = all(v["ok"] for k, v in report.items() if k != "all_ok")
    return report


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------


def _convolve(f: list, g: list, mult: list, comult: list, N: int) -> list:
    """The columns of the convolution f * g, as sums of exponent terms.

    ``f`` and ``g`` give the image of e_j as a term combination at index j;
    (f * g)(e_i) is the sum of r zeta^e f(e_j) g(e_k) over the terms of
    Delta(e_i), through H's term tables ``mult`` and ``comult``.
    """
    out = []
    for terms in comult:
        acc: dict = {}
        for (j, k), e, r in terms:
            _add_product(acc, f[j], g[k], mult, e, r, N)
        out.append(acc)
    return out


def _same_columns(f: list, g: list, N: int) -> bool:
    """Whether the term columns ``f`` and ``g`` are equal, one zero test each."""
    def difference(acc, x, y):
        _add_terms(acc, x, 0, 1, N)
        _add_terms(acc, y, 0, -1, N)
    return all(_holds(difference, N, x, y) for x, y in zip(f, g))


def _term_columns(accs: list) -> list:
    return [tuple((k, e, w) for (k, e), w in acc.items() if w) for acc in accs]


def solve_antipode(H: StructBialgebra, mode: str = "plain"):
    """The antipode as a list of columns S(e_j), or None when absent.

    The antipode is the convolution inverse of id.  A semisimple,
    cosemisimple H has a finite exponent e with id^{*e} = eta epsilon
    (Etingof-Gelaki), and Kashina conjectured that e divides dim H, so the
    first candidate is id^{*(dim H - 1)}, computed by squaring in
    O(log dim H) convolutions.  Otherwise S comes from the
    minimal polynomial of id in the convolution algebra (exact Gaussian
    elimination on the Krylov vectors id^{*m}, up to the first relation).
    Either candidate must satisfy S * id = id * S = eta epsilon, so the
    output is the unique two-sided inverse, and the candidates change only
    speed.  In color mode the braided antipode laws are verified as well
    and a failure raises.
    """
    n, N = H.dim, H.conductor
    mult, comult, unit, counit, _ = _term_tables(H)
    identity = [((i, 0, 1),) for i in range(n)]
    # id^{*0} = eta epsilon: e_i -> epsilon(e_i) 1 maps through ``unit`` as
    # the column of the counit's one key ()
    eta_epsilon = _term_columns(_sum(_add_mapped, c, {(): unit}, N) for c in counit)
    if _same_columns(eta_epsilon, [()] * n, N):
        return None     # there is no convolution unit
    for candidate in (_inverse_by_squaring, _krylov_inverse):
        cols = candidate(identity, eta_epsilon, mult, comult, N)
        if cols is not None and all(
                _same_columns(_term_columns(_convolve(f, g, mult, comult, N)), eta_epsilon, N)
                for f, g in ((cols, identity), (identity, cols))):
            break
    else:
        return None
    S = _cyclo_columns(cols, N)
    if mode == "color":
        if not verify_color_antipode(H, S):
            raise AssertionError("antipode violates the braided antipode laws")
    return S


def _inverse_by_squaring(identity: list, unit: list, mult: list, comult: list, N: int) -> list:
    """id^{*(n-1)} for n = dim H, left to right over the bits of n - 1 from
    id^{*0} = ``unit``: id's inverse when exp H divides n."""
    m = len(identity) - 1
    out = identity if m else unit
    for bit in bin(m)[3:]:
        out = _term_columns(_convolve(out, out, mult, comult, N))
        if bit == "1":
            out = _term_columns(_convolve(out, identity, mult, comult, N))
    return out


def _krylov_inverse(identity: list, unit: list, mult: list, comult: list, N: int):
    """The convolution inverse of id as term columns, or None, from the
    first linear relation among its powers id^{*m}, m = 0, 1, ..."""
    n = len(identity)
    one = Cyclo.one(N)
    powers, power = [], unit
    echelon = Echelon()
    for m in range(n * n + 2):
        powers.append(_cyclo_columns(power, N))
        relation = echelon.add({(i, k): c for i, col in enumerate(powers[m])
                                for k, c in col.items()}, {m: one})
        if relation is not None:
            break
        power = _term_columns(_convolve(power, identity, mult, comult, N))
    else:
        raise RuntimeError("convolution powers failed to close")
    # relation: sum_k relation[k] id^{*k} == 0 with relation[m] == 1, so
    # S = -(1/relation[0]) sum_{k>=1} relation[k] id^{*(k-1)}
    if 0 not in relation:
        return None
    scale = -relation[0].inverse()
    S = []
    for i in range(n):
        col: dict = {}
        for k, c in relation.items():
            if k:
                lc_add_scaled(col, powers[k - 1][i].items(), c * scale)
        S.append(_combo_terms(col.items(), N))
    return S


def verify_color_antipode(H: StructBialgebra, S: list) -> bool:
    """S(xy) = beta(|x|,|y|) S(y) S(x) and the braided coproduct law.

    Each equation is one zero test of lhs - rhs in exponent terms.
    """
    if H.grading is None or H.beta is None:
        raise ValueError("color antipode laws need grading and braiding")
    n, N = H.dim, H.conductor
    mult, comult, *_ = _term_tables(H)
    twist = _twist_table(H)
    cols = [_combo_terms(col.items(), N) for col in S]

    def anti_multiplicative(acc, i, j):
        # S(e_i e_j) - beta(|i|, |j|) S(e_j) S(e_i)
        _add_mapped(acc, mult[i][j], cols, N)
        _add_product(acc, cols[j], cols[i], mult, twist[i][j], -1, N)

    def braided_comultiplicative(acc, i):
        # Delta(S(e_i)) - sum r zeta^e beta(|j|, |k|) S(e_k) (x) S(e_j)
        _add_mapped(acc, cols[i], comult, N)
        for (j, k), e, r in comult[i]:
            _add_tensor(acc, cols[k], cols[j], e + twist[j][k], -r, N)

    return (all(_holds(anti_multiplicative, N, i, j)
                for i, j in itertools.product(range(n), repeat=2))
            and all(_holds(braided_comultiplicative, N, i) for i in range(n)))


def antipode_matrix_invertible(H: StructBialgebra, S: list) -> bool:
    return matrix_rank([dict(col) for col in S]) == H.dim


def matrix_rank(columns: list[dict]) -> int:
    """Rank of a set of sparse columns over the cyclotomic field."""
    echelon = Echelon()
    for col in columns:
        echelon.add(col)
    return len(echelon.rows)


# ---------------------------------------------------------------------------
# Yetter-Drinfeld flip criterion and bosonization
# ---------------------------------------------------------------------------


def check_flip(H: StructBialgebra) -> bool:
    """True iff the induced braiding on H (x) H is the plain flip.

    With the coaction read off the grading and the action
    e_g . v = beta(g, |v|) v, the braiding sends x (x) y to
    beta(|x|, |y|) y (x) x, so it is the flip iff beta vanishes on all
    pairs of occupied degrees.
    """
    if H.grading is None or H.beta is None:
        raise ValueError("flip criterion needs grading and braiding data")
    return H.beta.is_trivial_on(H.grading)


def _smash_basis(H: StructBialgebra):
    """(conductor, elements of G, index) of the basis x_i # e_g of H # kG,
    with index(i, g) = i*|G| + the position of g in G's enumeration."""
    if H.grading is None or H.beta is None or H.group is None:
        raise ValueError("bosonization needs grading and braiding data")
    G = H.group
    elements = list(G.elements())
    ng = len(elements)
    return (math.lcm(H.conductor, G.exponent), elements,
            lambda i, g: i * ng + G.index_of(g))


def bosonize(H: StructBialgebra) -> StructBialgebra:
    """The smash product H # kG of a color bialgebra with its grading group.

    Basis x_i # e_g at index i*|G| + index(g); the product twists by
    beta(g, |y|) and the coproduct shifts the group leg by the degree of
    the right tensorand.  The output is a plain (ungraded) bialgebra.
    """
    N, elements, idx = _smash_basis(H)
    base = H.lifted(N)
    dim = base.dim * len(elements)
    mult = [[() for _ in range(dim)] for _ in range(dim)]
    for i in range(base.dim):
        for gi in elements:
            row_idx = idx(i, gi)
            for j in range(base.dim):
                factor = Cyclo.embed(H.beta.eval(gi, base.grading[j]), N)
                for gj in elements:
                    target_g = gi * gj
                    cell = tuple((idx(k, target_g), c * factor)
                                 for k, c in base.mult[i][j])
                    mult[row_idx][idx(j, gj)] = cell
    comult = []
    for i in range(base.dim):
        for g in elements:
            entry = []
            for j, k, c in base.comult[i]:
                left_g = base.grading[k] * g
                entry.append((idx(j, left_g), idx(k, g), c))
            comult.append(tuple(entry))
    identity = H.group.identity()
    unit = {idx(i, identity): c for i, c in base.unit.items()}
    counit = [base.counit[i] for i in range(base.dim) for _ in elements]
    return StructBialgebra(dim=dim, conductor=N, mult=mult, comult=comult,
                           unit=unit, counit=counit)


def bosonization_antipode_formula(H: StructBialgebra, S: list) -> list:
    """The closed-form antipode of H # kG from the antipode S of H.

    S(x # e_g) = beta(g^{-1} |x|^{-1}, |x|) S(x) # e_{g^{-1} |x|^{-1}}
    for homogeneous x; S must preserve degrees, which is checked.
    """
    N, elements, idx = _smash_basis(H)
    out = [dict() for _ in range(H.dim * len(elements))]
    for i in range(H.dim):
        deg = H.grading[i]
        for k in S[i]:
            if H.grading[k] != deg:
                raise AssertionError("antipode does not preserve degrees")
        for g in elements:
            target_g = g.inverse() * deg.inverse()
            factor = Cyclo.embed(H.beta.eval(target_g, deg), N)
            out[idx(i, g)] = {idx(k, target_g): lift_cyclo(c, N) * factor
                              for k, c in S[i].items()}
    return out


# ---------------------------------------------------------------------------
# grading a bialgebra by a dual-group action
# ---------------------------------------------------------------------------


def validated_action(dim: int, action: dict, group: FinAbGroup) -> list:
    """The (character, matrix) pairs of a monomial action of the dual group.

    ``action`` must map every element of the dual group to a ``dim``-sized
    MonomialMatrix, and the matrices must pairwise commute; otherwise an
    ActionError (a ValueError) is raised.
    """
    mats = []
    for a in FinAbGroup(group.orders).elements():
        if a not in action:
            raise ActionError("action table must cover the whole dual group")
        m = action[a]
        if not isinstance(m, MonomialMatrix):
            raise NonMonomialAction("action entries must be monomial matrices")
        if m.dim != dim:
            raise ActionError("action matrix size mismatch")
        mats.append((a, m))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not mats[i][1].commutes_with(mats[j][1]):
                raise NonCommutingAction("action matrices must commute")
    return mats


def projector_column(mats: list, group: FinAbGroup, g, j: int, N: int) -> dict:
    """P_g e_j for the isotypic projector P_g = (1/|G|) sum_a a(g)^{-1} rho(a).

    ``mats`` comes from ``validated_action``; N must be divisible by the
    group exponent and by the orders of the matrix scales.
    """
    terms = [(m.perm[j], (m.scal[j] - Character(group, a.residues)(g)).over(N), 1)
             for a, m in mats]
    return _as_cyclo(_sum(_add_terms, terms, 0, Fraction(1, group.order), N), N)


def grade_by_action(H: StructBialgebra, action: dict, group: FinAbGroup,
                    beta: Bicharacter | None = None) -> StructBialgebra:
    """Change basis so a genuine monomial dual-group action becomes a grading.

    ``action`` maps every element of the dual group to a MonomialMatrix;
    the matrices must pairwise commute.  The image columns of the
    projectors P_g = (1/|G|) sum_a a(g)^{-1} rho(a) are collected into a
    homogeneous basis; failure to decompose means the table was not an
    action and raises.
    """
    n = H.dim
    mats = validated_action(n, action, group)
    scal_orders = [s.den for _, m in mats for s in m.scal]
    N = math.lcm(H.conductor, group.exponent, *scal_orders)
    cols: list = []  # the kept columns T e_0, T e_1, ... as terms
    degrees: list = []
    echelon = Echelon()
    one = Cyclo.one(N)
    for g in group.elements():
        for j in range(n):
            # tagged with its index in T, should it be kept
            col = projector_column(mats, group, g, j, N)
            if echelon.add(col, {len(cols): one}) is None:
                cols.append(_combo_terms(col.items(), N))
                degrees.append(g)
    if len(cols) != n:
        raise ActionError(
            f"projector images span dimension {len(cols)} != {n}; "
            "the table is not a group action")
    # full rank: the row with pivot k is e_k = sum_j tags[j] T e_j, so its
    # tags are column k of T^-1
    T_inv = [_combo_terms(tags.items(), N) for _, _, tags in sorted(
        echelon.rows, key=lambda row: row[0])]

    def eigenvector(acc, rho, a, g, col):
        # rho(a) col - a(g) col
        _add_mapped(acc, col, rho, N)
        _add_terms(acc, col, Character(group, a.residues)(g).over(N), -1, N)

    # every chosen column must be a genuine simultaneous eigenvector
    for a, m in mats:
        rho = [m.term_column(j, N) for j in range(n)]
        if not all(_holds(eigenvector, N, rho, a, g, col) for col, g in zip(cols, degrees)):
            raise ActionError(
                "projector image is not an eigenvector; the table is not "
                "a group action")
    mult, comult, unit, counit, _ = _term_tables(H.lifted(N))

    def product(acc, a, b):
        # T^-1 (T e_a T e_b)
        prod = _sum(_add_product, cols[a], cols[b], mult, 0, 1, N)
        _add_mapped(acc, ((k, e, w) for (k, e), w in prod.items()), T_inv, N)

    def coproduct(acc, a):
        # (T^-1 (x) T^-1) Delta(T e_a)
        for ((j, k), e), w in _sum(_add_mapped, cols[a], comult, N).items():
            _add_tensor(acc, T_inv[j], T_inv[k], e, w, N)

    def cyclo(equation, *t) -> dict:
        return _as_cyclo(_sum(equation, *t), N)

    return StructBialgebra(
        dim=n, conductor=N,
        mult=[[tuple(sorted(cyclo(product, a, b).items())) for b in range(n)]
              for a in range(n)],
        comult=[tuple((j, k, c) for (j, k), c in sorted(cyclo(coproduct, a).items()))
                for a in range(n)],
        unit=cyclo(_add_mapped, unit, T_inv, N),
        counit=[cyclo(_add_mapped, col, counit, N).get((), Cyclo.zero(N))
                for col in cols],
        grading=tuple(degrees), group=group, beta=beta)


# ---------------------------------------------------------------------------
# morphism certification
# ---------------------------------------------------------------------------


def is_bialgebra_morphism(H: StructBialgebra, columns: list[dict]) -> bool:
    """Does e_j -> columns[j] define a bialgebra endomorphism of H?"""
    return _morphism_check(H, [_combo_terms(col.items(), H.conductor) for col in columns])


def _morphism_check(H: StructBialgebra, cols: list) -> bool:
    """``is_bialgebra_morphism`` on term columns.  f(xy) = f(x) f(y) is a
    product law (``_product_law``) whose precondition is f unital, tested
    first, and H's unit laws and associativity (``_algebra_laws``); without
    them all n^2 pairs are swept."""
    n, N = H.dim, H.conductor
    mult, comult, unit, counit, _ = _term_tables(H)

    def unital(acc):
        _add_mapped(acc, unit, cols, N)
        _add_terms(acc, unit, 0, -1, N)

    def counital(acc, i):
        _add_mapped(acc, cols[i], counit, N)
        _add_terms(acc, counit[i], 0, -1, N)

    def multiplicative(acc, i, j):
        _add_mapped(acc, mult[i][j], cols, N)
        _add_product(acc, cols[i], cols[j], mult, 0, -1, N)

    def comultiplicative(acc, i):
        _add_mapped(acc, cols[i], comult, N)
        for (j, k), e, r in comult[i]:
            _add_tensor(acc, cols[j], cols[k], e, -r, N)

    generators, *failures = _algebra_laws(H)
    return (_holds(unital, N)
            and all(_holds(counital, N, i) for i in range(n))
            and _product_law(multiplicative, failures == [None, None], generators, n, N) is None
            and all(_holds(comultiplicative, N, i) for i in range(n)))


def _root_terms(combo) -> dict:
    """A term combination of distinct keys and weight 1 as key -> exponent."""
    out = {k: e for k, e, r in combo if r == 1}
    if len(out) != len(combo):
        raise AssertionError("a table cell is not a sum of distinct roots of unity")
    return out


def _monomial_certificate(H: StructBialgebra, perm) -> Congruences | None:
    """The bialgebra-morphism laws of f: e_j -> zeta_N^{x_j} e_perm[j],
    perm a permutation of H's basis and N = H.conductor, as integer forms
    in x; None when a law fails for every x.

    Read from H's term tables alone, each cell a sum of distinct keys with
    weight 1 (else ``AssertionError``).  Both sides of a law are then such
    sums: it holds exactly when they have the same keys and, at each key,
    exponents equal mod N, one form per key.  Its laws: f unital, counital
    at every e_i, multiplicative on all n^2 pairs and comultiplicative at
    every e_i; no precondition on H is assumed.
    """
    N = H.conductor
    _, comult, unit, counit, cells = _term_tables(H)
    forms: list = []

    def equate(lhs: dict, rhs: dict, minus: tuple) -> bool:
        """One form per key for lhs = rhs, or False when their keys differ.
        lhs maps a key to (e, terms), the root zeta^(e + sum a x_v) there;
        rhs maps it to e, and the right side's x-part is ``minus`` negated."""
        if lhs.keys() != rhs.keys():
            return False
        forms.extend((e - rhs[k], terms + minus) for k, (e, terms) in lhs.items())
        return True

    def image(combo) -> dict:
        return {perm[k]: (e, ((k, 1),)) for k, e in _root_terms(combo).items()}

    if not equate(image(unit), _root_terms(unit), ()):
        return None
    for i, row in enumerate(cells):
        pi = perm[i]
        # epsilon(f(e_i)) = zeta^{x_i} epsilon(e_{pi i}) against epsilon(e_i)
        if not equate({k: (e, ((i, 1),)) for k, e in _root_terms(counit[pi]).items()},
                      _root_terms(counit[i]), ()):
            return None
        # f(e_i e_j) against zeta^{x_i + x_j} e_{pi i} e_{pi j}: a pair of
        # two empty cells holds, and one empty cell against a nonempty one
        # fails, left unmatched here or in ``targets``
        targets = dict(cells[pi])
        for j, cell in row:
            target = targets.pop(perm[j], None)
            if target is None or not equate(image(cell), _root_terms(target),
                                            ((i, -1), (j, -1))):
                return None
        if targets:
            return None
        # (f (x) f)(Delta e_i) against zeta^{x_i} Delta(e_{pi i})
        if not equate({(perm[j], perm[k]): (e, ((j, 1), (k, 1)))
                       for (j, k), e in _root_terms(comult[i]).items()},
                      _root_terms(comult[pi]), ((i, -1),)):
            return None
    return Congruences(forms, N)
