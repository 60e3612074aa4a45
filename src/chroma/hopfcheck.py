"""Structure-constant (co)algebras over exact cyclotomic arithmetic.

``StructBialgebra`` stores multiplication and comultiplication tables
with coefficients in Q(zeta_N); the axiom checker runs exhaustively over
basis tuples, in plain or color mode (color mode twists the product on
the tensor square by the bicharacter of the grading group).  The
antipode is obtained as the convolution inverse of the identity via its
minimal polynomial, then verified on both sides.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .groups import Bicharacter, FinAbGroup
from .scalars import Cyclo, Rational01, _power_table


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

    def column(self, j: int, N: int) -> dict:
        return {self.perm[j]: Cyclo.embed(self.scal[j], N)}

    def to_json(self) -> dict:
        return {"perm": list(self.perm), "scal": [str(s) for s in self.scal]}

    @classmethod
    def from_json(cls, data: dict) -> "MonomialMatrix":
        return cls(data["perm"], [Rational01.parse(s) for s in data["scal"]])


# ---------------------------------------------------------------------------
# sparse linear combinations
# ---------------------------------------------------------------------------


def lc_add_scaled(acc: dict, combo: dict, factor: Cyclo) -> None:
    if factor.is_zero():
        return
    for k, c in combo.items():
        v = acc.get(k)
        v = c * factor if v is None else v + c * factor
        if v.is_zero():
            acc.pop(k, None)
        else:
            acc[k] = v


def lc_equal(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    return all(a[k] == b[k] for k in a)


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

    def zero(self) -> Cyclo:
        return Cyclo.zero(self.conductor)

    def root(self, r: Rational01) -> Cyclo:
        return Cyclo.embed(r, self.conductor)

    # -- basic operations ---------------------------------------------------

    def product_combo(self, x: dict, y: dict) -> dict:
        acc: dict = {}
        for i, ci in x.items():
            row = self.mult[i]
            for j, cj in y.items():
                f = ci * cj
                if f.is_zero():
                    continue
                for k, m in row[j]:
                    v = acc.get(k)
                    v = m * f if v is None else v + m * f
                    if v.is_zero():
                        acc.pop(k, None)
                    else:
                        acc[k] = v
        return acc

    def coproduct_combo(self, x: dict) -> dict:
        acc: dict = {}
        for i, ci in x.items():
            for j, k, c in self.comult[i]:
                v = acc.get((j, k))
                v = c * ci if v is None else v + c * ci
                if v.is_zero():
                    acc.pop((j, k), None)
                else:
                    acc[(j, k)] = v
        return acc

    def counit_combo(self, x: dict) -> Cyclo:
        total = self.zero()
        for i, ci in x.items():
            total = total + self.counit[i] * ci
        return total

    def basis_combo(self, i: int) -> dict:
        return {i: self.one()}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def group_algebra(cls, table: list[list[int]], identity: int,
                      conductor: int = 1, grading=None, group=None,
                      beta=None) -> "StructBialgebra":
        """The group algebra of a finite group given by its Cayley table."""
        n = len(table)
        one = Cyclo.one(conductor)
        mult = [[((table[i][j], one),) for j in range(n)] for i in range(n)]
        comult = [((i, i, one),) for i in range(n)]
        unit = {identity: one}
        counit = [one for _ in range(n)]
        return cls(dim=n, conductor=conductor, mult=mult, comult=comult,
                   unit=unit, counit=counit, grading=grading, group=group,
                   beta=beta)

    def lifted(self, conductor: int) -> "StructBialgebra":
        """The same structure with coefficients in a larger cyclotomic field."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("new conductor must be a multiple of the old one")

        def lift(c: Cyclo) -> Cyclo:
            return lift_cyclo(c, conductor)

        mult = [[tuple((k, lift(c)) for k, c in cell) for cell in row]
                for row in self.mult]
        comult = [tuple((j, k, lift(c)) for j, k, c in entry) for entry in self.comult]
        unit = {k: lift(c) for k, c in self.unit.items()}
        counit = [lift(c) for c in self.counit]
        return StructBialgebra(dim=self.dim, conductor=conductor, mult=mult,
                               comult=comult, unit=unit, counit=counit,
                               grading=self.grading, group=self.group,
                               beta=self.beta)

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

        def coeff(c) -> Cyclo:
            if isinstance(c, str):
                return Cyclo.embed(Rational01.parse(c), N)
            return Cyclo(N, [_rational(s) for s in _array(c, None, "coefficient")])

        def terms(value, width: int, what: str):
            return (_array(t, width, what) for t in _array(value, None, what))

        mult = [[tuple((index(k), coeff(c)) for k, c in terms(cell, 2, "mult term"))
                 for cell in _array(row, dim, "mult row")]
                for row in _array(data["mult"], dim, "mult")]
        comult = [tuple((index(j), index(k), coeff(c))
                        for j, k, c in terms(entry, 3, "comult term"))
                  for entry in _array(data["comult"], dim, "comult")]
        unit = {index(k): coeff(c) for k, c in terms(data["unit"], 2, "unit term")}
        counit = [coeff(c) for c in _array(data["counit"], dim, "counit")]
        grading = None
        group = None
        beta = None
        if "grading" in data:
            group = FinAbGroup.from_json(data["group"])
            grading = tuple(group.element(r)
                            for r in _array(data["grading"], dim, "grading"))
            if data.get("beta") is not None:
                beta = Bicharacter.from_json(group, data["beta"])
        return cls(dim=dim, conductor=N, mult=mult, comult=comult,
                   unit=unit, counit=counit, grading=grading, group=group,
                   beta=beta)


_RATIONAL_RE = re.compile(r"-?[0-9]+(?:/([0-9]+))?\Z")


def _rational(text) -> Fraction:
    """A coefficient string "p/q" or "p"; anything else is malformed."""
    m = _RATIONAL_RE.match(text) if isinstance(text, str) else None
    if m is None:
        raise ValueError(f"coefficient {text!r} is not a \"p/q\" string")
    if m.group(1) is not None and int(m.group(1)) == 0:
        raise ValueError(f"zero denominator in coefficient {text!r}")
    return Fraction(text)


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
    step = M // c.N
    table = _power_table(M)
    nums = [0] * len(table[0])
    for k, a in enumerate(c.nums):
        if a:
            for j, t in enumerate(table[k * step % M]):
                nums[j] += a * t
    return Cyclo._make(M, tuple(nums), c.den)


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


def check_axioms(H: StructBialgebra, mode: str = "plain") -> dict:
    """Exhaustive (co)algebra and bialgebra axioms; per-axiom results.

    In color mode the compatibility of the coproduct with the product is
    taken in the braided sense: (x (x) x')(y (x) y') =
    beta(|x'|, |y|) xy (x) x'y'.  Returns a dict axiom -> {"ok", "counterexample"}
    plus an "all_ok" summary flag.
    """
    if mode not in ("plain", "color"):
        raise ValueError("mode must be 'plain' or 'color'")
    if mode == "color" and (H.grading is None or H.beta is None):
        raise ValueError("color mode needs grading and braiding data")
    report: dict = {}
    n = H.dim

    def record(name, ok, counterexample=None):
        report[name] = {"ok": ok, "counterexample": counterexample}

    # associativity
    ok, ce = True, None
    for i in range(n):
        for j in range(n):
            ij = dict(H.mult[i][j])
            for k in range(n):
                lhs = H.product_combo(ij, H.basis_combo(k))
                rhs = H.product_combo(H.basis_combo(i), dict(H.mult[j][k]))
                if not lc_equal(lhs, rhs):
                    ok, ce = False, (i, j, k)
                    break
            if not ok:
                break
        if not ok:
            break
    record("associativity", ok, ce)

    # unit
    ok, ce = True, None
    for i in range(n):
        e = H.basis_combo(i)
        if not lc_equal(H.product_combo(H.unit, e), e) or \
           not lc_equal(H.product_combo(e, H.unit), e):
            ok, ce = False, (i,)
            break
    record("unit", ok, ce)

    # coassociativity
    ok, ce = True, None
    for i in range(n):
        left: dict = {}
        right: dict = {}
        for j, k, c in H.comult[i]:
            for a, b, c2 in H.comult[j]:
                key = (a, b, k)
                v = left.get(key)
                v = c * c2 if v is None else v + c * c2
                if v.is_zero():
                    left.pop(key, None)
                else:
                    left[key] = v
            for a, b, c2 in H.comult[k]:
                key = (j, a, b)
                v = right.get(key)
                v = c * c2 if v is None else v + c * c2
                if v.is_zero():
                    right.pop(key, None)
                else:
                    right[key] = v
        if not lc_equal(left, right):
            ok, ce = False, (i,)
            break
    record("coassociativity", ok, ce)

    # counit
    ok, ce = True, None
    for i in range(n):
        left: dict = {}
        right: dict = {}
        for j, k, c in H.comult[i]:
            v = c * H.counit[j]
            if not v.is_zero():
                w = right.get(k)
                w = v if w is None else w + v
                if w.is_zero():
                    right.pop(k, None)
                else:
                    right[k] = w
            v = c * H.counit[k]
            if not v.is_zero():
                w = left.get(j)
                w = v if w is None else w + v
                if w.is_zero():
                    left.pop(j, None)
                else:
                    left[j] = w
        e = H.basis_combo(i)
        if not lc_equal(left, e) or not lc_equal(right, e):
            ok, ce = False, (i,)
            break
    record("counit", ok, ce)

    # counit is an algebra map
    ok, ce = True, None
    if not (H.counit_combo(H.unit) - H.one()).is_zero():
        ok, ce = False, ("unit",)
    else:
        for i in range(n):
            for j in range(n):
                lhs = H.counit_combo(dict(H.mult[i][j]))
                rhs = H.counit[i] * H.counit[j]
                if not (lhs - rhs).is_zero():
                    ok, ce = False, (i, j)
                    break
            if not ok:
                break
    record("counit_multiplicative", ok, ce)

    # coproduct of the unit
    unit_tensor: dict = {}
    for a, ca in H.unit.items():
        for b, cb in H.unit.items():
            v = ca * cb
            if not v.is_zero():
                unit_tensor[(a, b)] = v
    record("unit_comultiplicative",
           lc_equal(H.coproduct_combo(H.unit), unit_tensor), None)

    # coproduct is an algebra map (beta-twisted in color mode)
    ok, ce = True, None
    use_beta = mode == "color"
    for i in range(n):
        di = H.comult[i]
        for j in range(n):
            dj = H.comult[j]
            lhs = H.coproduct_combo(dict(H.mult[i][j]))
            rhs: dict = {}
            for a, b, c1 in di:
                for a2, b2, c2 in dj:
                    f = c1 * c2
                    if use_beta:
                        tw = H.beta.eval(H.grading[b], H.grading[a2])
                        if not tw.is_zero():
                            f = f * H.root(tw)
                    if f.is_zero():
                        continue
                    for p, cp in H.mult[a][a2]:
                        fp = f * cp
                        if fp.is_zero():
                            continue
                        for q, cq in H.mult[b][b2]:
                            v = fp * cq
                            if v.is_zero():
                                continue
                            key = (p, q)
                            w = rhs.get(key)
                            w = v if w is None else w + v
                            if w.is_zero():
                                rhs.pop(key, None)
                            else:
                                rhs[key] = w
            if not lc_equal(lhs, rhs):
                ok, ce = False, (i, j)
                break
        if not ok:
            break
    record("coproduct_multiplicative", ok, ce)

    # grading compatibility
    if H.grading is not None:
        ok, ce = True, None
        for i in range(n):
            for j in range(n):
                target = H.grading[i] * H.grading[j]
                for k, _ in H.mult[i][j]:
                    if H.grading[k] != target:
                        ok, ce = False, ("mult", i, j, k)
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            for i in range(n):
                for j, k, _ in H.comult[i]:
                    if H.grading[j] * H.grading[k] != H.grading[i]:
                        ok, ce = False, ("comult", i, j, k)
                        break
                if not ok:
                    break
        if ok:
            for i, c in H.unit.items():
                if not H.grading[i].is_identity():
                    ok, ce = False, ("unit", i)
                    break
        if ok:
            for i in range(n):
                if not H.counit[i].is_zero() and not H.grading[i].is_identity():
                    ok, ce = False, ("counit", i)
                    break
        record("grading", ok, ce)

    report["all_ok"] = all(v["ok"] for k, v in report.items() if k != "all_ok")
    return report


# ---------------------------------------------------------------------------
# antipode
# ---------------------------------------------------------------------------


def _convolve(H: StructBialgebra, f: list, g: list) -> list:
    out = []
    for i in range(H.dim):
        acc: dict = {}
        for j, k, c in H.comult[i]:
            prod = H.product_combo(f[j], g[k])
            lc_add_scaled(acc, prod, c)
        out.append(acc)
    return out


def _unit_counit_map(H: StructBialgebra) -> list:
    out = []
    for i in range(H.dim):
        combo: dict = {}
        lc_add_scaled(combo, H.unit, H.counit[i])
        out.append(combo)
    return out


def _identity_map(H: StructBialgebra) -> list:
    return [H.basis_combo(i) for i in range(H.dim)]


def _flatten(mapping: list) -> dict:
    flat = {}
    for i, combo in enumerate(mapping):
        for k, c in combo.items():
            flat[(i, k)] = c
    return flat


def solve_antipode(H: StructBialgebra, mode: str = "plain"):
    """The antipode as a list of columns S(e_j), or None when absent.

    Computed from the minimal polynomial of the identity in the
    convolution algebra (exact Gaussian elimination on the Krylov
    vectors); both one-sided convolution inverses are then verified so
    the output is the unique two-sided inverse.  In color mode the
    braided antipode laws are verified as well and a failure raises.
    """
    powers = [_unit_counit_map(H), _identity_map(H)]
    basis: list = []  # (pivot, rowdict, comb: dict power-index -> Cyclo)
    relation = None
    max_steps = H.dim * H.dim + 2
    for m in range(max_steps):
        while len(powers) <= m:
            powers.append(_convolve(H, powers[-1], powers[1]))
        row = dict(_flatten(powers[m]))
        comb = {m: H.one()}
        for pivot, brow, bcomb in basis:
            if pivot in row:
                factor = row[pivot] * brow[pivot].inverse()
                for k, c in brow.items():
                    v = row.get(k)
                    v = -(c * factor) if v is None else v - c * factor
                    if v.is_zero():
                        row.pop(k, None)
                    else:
                        row[k] = v
                for k, c in bcomb.items():
                    v = comb.get(k)
                    v = -(c * factor) if v is None else v - c * factor
                    if v.is_zero():
                        comb.pop(k, None)
                    else:
                        comb[k] = v
        if not row:
            relation = comb
            break
        pivot = min(row)
        basis.append((pivot, row, comb))
    if relation is None:
        raise RuntimeError("convolution powers failed to close")
    m = max(relation)
    # relation: sum_k relation[k] * id^{*k} == 0 with relation[m] != 0
    lead_inv = relation[m].inverse()
    alphas = {k: -(c * lead_inv) for k, c in relation.items() if k != m}
    alpha0 = alphas.get(0)
    if alpha0 is None or alpha0.is_zero():
        return None
    inv0 = alpha0.inverse()
    S = [dict() for _ in range(H.dim)]
    # S = (1/alpha_0) (id^{*(m-1)} - sum_{k>=1} alpha_k id^{*(k-1)})
    for i in range(H.dim):
        acc: dict = {}
        lc_add_scaled(acc, powers[m - 1][i], inv0)
        for k, a in alphas.items():
            if k >= 1:
                lc_add_scaled(acc, powers[k - 1][i], -(a * inv0))
        S[i] = acc
    uc = _unit_counit_map(H)
    left = _convolve(H, S, _identity_map(H))
    right = _convolve(H, _identity_map(H), S)
    for i in range(H.dim):
        if not lc_equal(left[i], uc[i]) or not lc_equal(right[i], uc[i]):
            return None
    if mode == "color":
        if not verify_color_antipode(H, S):
            raise AssertionError("antipode violates the braided antipode laws")
    return S


def apply_map(S: list, combo: dict, H: StructBialgebra) -> dict:
    out: dict = {}
    for i, c in combo.items():
        lc_add_scaled(out, S[i], c)
    return out


def verify_color_antipode(H: StructBialgebra, S: list) -> bool:
    """S(xy) = beta(|x|,|y|) S(y) S(x) and the braided coproduct law."""
    if H.grading is None or H.beta is None:
        raise ValueError("color antipode laws need grading and braiding")
    n = H.dim
    for i in range(n):
        for j in range(n):
            lhs = apply_map(S, dict(H.mult[i][j]), H)
            factor = H.root(H.beta.eval(H.grading[i], H.grading[j]))
            rhs_raw = H.product_combo(S[j], S[i])
            rhs: dict = {}
            lc_add_scaled(rhs, rhs_raw, factor)
            if not lc_equal(lhs, rhs):
                return False
    for i in range(n):
        lhs = H.coproduct_combo(S[i])
        rhs: dict = {}
        for j, k, c in H.comult[i]:
            factor = c * H.root(H.beta.eval(H.grading[j], H.grading[k]))
            for a, ca in S[k].items():
                for b, cb in S[j].items():
                    v = factor * ca * cb
                    if v.is_zero():
                        continue
                    key = (a, b)
                    w = rhs.get(key)
                    w = v if w is None else w + v
                    if w.is_zero():
                        rhs.pop(key, None)
                    else:
                        rhs[key] = w
        if not lc_equal(lhs, rhs):
            return False
    return True


def antipode_matrix_invertible(H: StructBialgebra, S: list) -> bool:
    return matrix_rank([dict(col) for col in S]) == H.dim


def matrix_rank(columns: list[dict]) -> int:
    """Rank of a set of sparse columns over the cyclotomic field."""
    echelon: list[tuple[int, dict]] = []
    for col in columns:
        col = dict(col)
        for pivot, row in echelon:
            if pivot in col:
                factor = col[pivot] * row[pivot].inverse()
                for k, c in row.items():
                    v = col.get(k)
                    v = -(c * factor) if v is None else v - c * factor
                    if v.is_zero():
                        col.pop(k, None)
                    else:
                        col[k] = v
        if col:
            echelon.append((min(col), col))
    return len(echelon)


def invert_columns(columns: list[dict], dim: int, one: Cyclo) -> list[dict]:
    """Inverse of the matrix whose j-th column is ``columns[j]`` (sparse).

    Gauss-Jordan with exact arithmetic; raises on singular input.
    Returns the inverse, again as a list of columns.
    """
    # augmented rows: row r of [A | I]
    rows = [dict() for _ in range(dim)]
    for j, col in enumerate(columns):
        for i, c in col.items():
            rows[i][j] = c
    aug = [dict() for _ in range(dim)]
    for i in range(dim):
        aug[i][i] = one
    pivot_of_col = {}
    used_rows = set()
    for col in range(dim):
        pivot = None
        for r in range(dim):
            if r not in used_rows and col in rows[r]:
                pivot = r
                break
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        used_rows.add(pivot)
        pivot_of_col[col] = pivot
        inv = rows[pivot][col].inverse()
        rows[pivot] = {k: c * inv for k, c in rows[pivot].items()}
        aug[pivot] = {k: c * inv for k, c in aug[pivot].items()}
        for r in range(dim):
            if r == pivot or col not in rows[r]:
                continue
            factor = rows[r][col]
            for k, c in rows[pivot].items():
                v = rows[r].get(k)
                v = -(c * factor) if v is None else v - c * factor
                if v.is_zero():
                    rows[r].pop(k, None)
                else:
                    rows[r][k] = v
            for k, c in aug[pivot].items():
                v = aug[r].get(k)
                v = -(c * factor) if v is None else v - c * factor
                if v.is_zero():
                    aug[r].pop(k, None)
                else:
                    aug[r][k] = v
    # rows[pivot_of_col[c]] is now e_c; the inverse matrix has entries
    # inv[c][k] = aug[pivot_of_col[c]][k]; return as columns
    inv_cols = [dict() for _ in range(dim)]
    for c in range(dim):
        r = pivot_of_col[c]
        for k, v in aug[r].items():
            inv_cols[k][c] = v
    return inv_cols


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
    degrees = set(H.grading)
    for g in degrees:
        for h in degrees:
            if not H.beta.eval(g, h).is_zero():
                return False
    return True


def bosonize(H: StructBialgebra) -> StructBialgebra:
    """The smash product H # kG of a color bialgebra with its grading group.

    Basis x_i # e_g at index i*|G| + index(g); the product twists by
    beta(g, |y|) and the coproduct shifts the group leg by the degree of
    the right tensorand.  The output is a plain (ungraded) bialgebra.
    """
    if H.grading is None or H.beta is None or H.group is None:
        raise ValueError("bosonization needs grading and braiding data")
    G = H.group
    N = math.lcm(H.conductor, G.exponent)
    base = H.lifted(N)
    elements = list(G.elements())
    g_index = {g.residues: idx for idx, g in enumerate(elements)}
    ng = len(elements)
    dim = base.dim * ng

    def idx(i, g):
        return i * ng + g_index[g.residues]

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
    identity = G.identity()
    unit = {idx(i, identity): c for i, c in base.unit.items()}
    counit = [base.counit[i] for i in range(base.dim) for _ in elements]
    return StructBialgebra(dim=dim, conductor=N, mult=mult, comult=comult,
                           unit=unit, counit=counit)


def bosonization_antipode_formula(H: StructBialgebra, S: list) -> list:
    """The closed-form antipode of H # kG from the antipode S of H.

    S(x # e_g) = beta(g^{-1} |x|^{-1}, |x|) S(x) # e_{g^{-1} |x|^{-1}}
    for homogeneous x; S must preserve degrees, which is checked.
    """
    if H.grading is None or H.beta is None or H.group is None:
        raise ValueError("needs grading and braiding data")
    G = H.group
    N = math.lcm(H.conductor, G.exponent)
    elements = list(G.elements())
    g_index = {g.residues: idx for idx, g in enumerate(elements)}
    ng = len(elements)

    def idx(i, g):
        return i * ng + g_index[g.residues]

    out = [dict() for _ in range(H.dim * ng)]
    for i in range(H.dim):
        deg = H.grading[i]
        for k in S[i]:
            if H.grading[k] != deg:
                raise AssertionError("antipode does not preserve degrees")
        for g in elements:
            target_g = g.inverse() * deg.inverse()
            factor = Cyclo.embed(H.beta.eval(target_g, deg), N)
            combo = {}
            for k, c in S[i].items():
                combo[idx(k, target_g)] = lift_cyclo(c, N) * factor
            out[idx(i, g)] = combo
    return out


# ---------------------------------------------------------------------------
# grading a bialgebra by a dual-group action
# ---------------------------------------------------------------------------


def grade_by_action(H: StructBialgebra, action: dict, group: FinAbGroup,
                    beta: Bicharacter | None = None) -> StructBialgebra:
    """Change basis so a genuine monomial dual-group action becomes a grading.

    ``action`` maps every element of the dual group to a MonomialMatrix;
    the matrices must pairwise commute.  The image columns of the
    projectors P_g = (1/|G|) sum_a a(g)^{-1} rho(a) are collected into a
    homogeneous basis; failure to decompose means the table was not an
    action and raises.
    """
    from .groups import Character

    dual = FinAbGroup(group.orders)
    mats = []
    for a in dual.elements():
        if a not in action:
            raise ActionError("action table must cover the whole dual group")
        m = action[a]
        if not isinstance(m, MonomialMatrix):
            raise NonMonomialAction("action entries must be monomial matrices")
        if m.dim != H.dim:
            raise ActionError("action matrix size mismatch")
        mats.append((a, m))
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not mats[i][1].commutes_with(mats[j][1]):
                raise NonCommutingAction("action matrices must commute")
    scal_orders = [s.den for _, m in mats for s in m.scal]
    N = math.lcm(H.conductor, group.exponent, *scal_orders)
    base = H.lifted(N)
    inv_order = Fraction(1, group.order)
    chosen_cols: list[dict] = []
    chosen_degs: list = []
    echelon: list[tuple[int, dict]] = []
    for g in group.elements():
        # P_g columns
        for j in range(H.dim):
            col: dict = {}
            for a, m in mats:
                val = Character(group, a.residues)(g)
                coeff = Cyclo.embed(-val, N) if not val.is_zero() else Cyclo.one(N)
                i, s = m.perm[j], m.scal[j]
                entry = Cyclo.embed(s, N) * coeff
                v = col.get(i)
                v = entry if v is None else v + entry
                if v.is_zero():
                    col.pop(i, None)
                else:
                    col[i] = v
            col = {k: c.scale(inv_order) for k, c in col.items()}
            if not col:
                continue
            reduced = dict(col)
            for pivot, row in echelon:
                if pivot in reduced:
                    factor = reduced[pivot] * row[pivot].inverse()
                    for k, c in row.items():
                        v = reduced.get(k)
                        v = -(c * factor) if v is None else v - c * factor
                        if v.is_zero():
                            reduced.pop(k, None)
                        else:
                            reduced[k] = v
            if reduced:
                echelon.append((min(reduced), reduced))
                chosen_cols.append(col)
                chosen_degs.append(g)
    if len(chosen_cols) != H.dim:
        raise ActionError(
            f"projector images span dimension {len(chosen_cols)} != {H.dim}; "
            "the table is not a group action")
    # every chosen column must be a genuine simultaneous eigenvector
    for col, g in zip(chosen_cols, chosen_degs):
        for a, m in mats:
            val = Character(group, a.residues)(g)
            image: dict = {}
            for j, c in col.items():
                key = m.perm[j]
                entry = Cyclo.embed(m.scal[j], N) * c
                v = image.get(key)
                v = entry if v is None else v + entry
                if v.is_zero():
                    image.pop(key, None)
                else:
                    image[key] = v
            expected = {k: Cyclo.embed(val, N) * c for k, c in col.items()}
            if not lc_equal(image, expected):
                raise ActionError(
                    "projector image is not an eigenvector; the table is not "
                    "a group action")
    T = chosen_cols
    T_inv = invert_columns(T, H.dim, Cyclo.one(N))

    def through_inverse(combo: dict) -> dict:
        out: dict = {}
        for i, c in combo.items():
            lc_add_scaled(out, T_inv[i], c)
        return out

    mult = [[() for _ in range(H.dim)] for _ in range(H.dim)]
    for a in range(H.dim):
        for b in range(H.dim):
            prod = base.product_combo(T[a], T[b])
            new = through_inverse(prod)
            mult[a][b] = tuple(sorted(new.items()))
    comult = []
    for a in range(H.dim):
        acc: dict = {}
        for i, ci in T[a].items():
            for j, k, c in base.comult[i]:
                v = acc.get((j, k))
                w = c * ci
                v = w if v is None else v + w
                if v.is_zero():
                    acc.pop((j, k), None)
                else:
                    acc[(j, k)] = v
        new: dict = {}
        for (j, k), c in acc.items():
            for p, cp in T_inv[j].items():
                for q, cq in T_inv[k].items():
                    v = c * cp * cq
                    if v.is_zero():
                        continue
                    key = (p, q)
                    w = new.get(key)
                    w = v if w is None else w + v
                    if w.is_zero():
                        new.pop(key, None)
                    else:
                        new[key] = w
        comult.append(tuple((j, k, c) for (j, k), c in sorted(new.items())))
    unit = through_inverse(base.unit)
    counit = []
    for a in range(H.dim):
        total = Cyclo.zero(N)
        for i, c in T[a].items():
            total = total + base.counit[i] * c
        counit.append(total)
    return StructBialgebra(dim=H.dim, conductor=N, mult=mult, comult=comult,
                           unit=unit, counit=counit,
                           grading=tuple(chosen_degs), group=group, beta=beta)


# ---------------------------------------------------------------------------
# morphism certification
# ---------------------------------------------------------------------------


def monomial_to_columns(m: MonomialMatrix, N: int) -> list[dict]:
    return [m.column(j, N) for j in range(m.dim)]


def is_bialgebra_morphism(H: StructBialgebra, columns: list[dict]) -> bool:
    """Does e_j -> columns[j] define a bialgebra endomorphism of H?"""
    def image(combo: dict) -> dict:
        out: dict = {}
        for i, c in combo.items():
            lc_add_scaled(out, columns[i], c)
        return out

    if not lc_equal(image(H.unit), H.unit):
        return False
    for i in range(H.dim):
        if not (H.counit_combo(columns[i]) - H.counit[i]).is_zero():
            return False
    for i in range(H.dim):
        for j in range(H.dim):
            if not lc_equal(image(dict(H.mult[i][j])),
                            H.product_combo(columns[i], columns[j])):
                return False
    for i in range(H.dim):
        lhs: dict = {}
        for fi, c in columns[i].items():
            for j, k, c2 in H.comult[fi]:
                v = lhs.get((j, k))
                w = c * c2
                v = w if v is None else v + w
                if v.is_zero():
                    lhs.pop((j, k), None)
                else:
                    lhs[(j, k)] = v
        rhs: dict = {}
        for j, k, c in H.comult[i]:
            for p, cp in columns[j].items():
                for q, cq in columns[k].items():
                    v = c * cp * cq
                    if v.is_zero():
                        continue
                    key = (p, q)
                    w = rhs.get(key)
                    w = v if w is None else w + v
                    if w.is_zero():
                        rhs.pop(key, None)
                    else:
                        rhs[key] = w
        if not lc_equal(lhs, rhs):
            return False
    return True
