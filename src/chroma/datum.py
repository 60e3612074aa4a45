"""Braiding matrices over generic scalars and their colored realizations.

A datum couples a braiding matrix q (with q_ii != 1) to a nondegenerate
bicharacter beta on a finite abelian group and degree assignments t_i.
The derived twisted matrix is qt_ij = beta(t_i, t_j)^{-1} q_ij and the
derived characters are xi_i = chi_{t_i}.
"""

from __future__ import annotations

from .groups import Bicharacter, Element, FinAbGroup
from .scalars import Scalar, parse_scalar


class DegenerateBeta(ValueError):
    """The bicharacter of a datum must be nondegenerate."""


class DiagonalOne(ValueError):
    """Braiding matrices must have q_ii != 1."""


class DimensionMismatch(ValueError):
    """Sizes of q, t and the group data disagree."""


class ScalarMatrix:
    """A square matrix of nonzero scalars (monomials are nonzero by type)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        theta = len(rows)
        if any(len(r) != theta for r in rows):
            raise DimensionMismatch("scalar matrix must be square")
        self.entries = rows

    @property
    def theta(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.entries == other.entries

    def __hash__(self):
        return hash((type(self).__name__, self.entries))

    def __repr__(self):
        body = "; ".join(", ".join(str(s) for s in row) for row in self.entries)
        return f"{type(self).__name__}[{body}]"

    def to_json(self) -> list:
        return [[str(s) for s in row] for row in self.entries]

    @classmethod
    def from_json(cls, rows: list):
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ValueError("scalar matrix must be an array of arrays of scalars")
        return cls([[parse_scalar(s) for s in row] for row in rows])


class BraidingMatrix(ScalarMatrix):
    """A scalar matrix with the braiding constraint q_ii != 1."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        for i in range(self.theta):
            if self.entries[i][i].is_one():
                raise DiagonalOne(f"q_{i}{i} = 1 is not allowed")


def twist_matrix(q: BraidingMatrix, t: tuple[Element, ...],
                 beta: Bicharacter) -> ScalarMatrix:
    """qt_ij = beta(t_i, t_j)^{-1} * q_ij (its diagonal may contain 1)."""
    rows = []
    for i, row in enumerate(q.entries):
        rows.append([Scalar._make(s.root - beta.eval(t[i], t[j]), s.exps)
                     for j, s in enumerate(row)])
    return ScalarMatrix(rows)


def untwist_matrix(qt: ScalarMatrix, t: tuple[Element, ...],
                   beta: Bicharacter) -> BraidingMatrix:
    """q_ij = beta(t_i, t_j) * qt_ij; inverse of ``twist_matrix``."""
    rows = []
    for i in range(qt.theta):
        rows.append([Scalar.from_root(beta.eval(t[i], t[j])) * qt[i, j]
                     for j in range(qt.theta)])
    return BraidingMatrix(rows)


class Datum:
    """The full colored datum (q, G, beta, t) with derived qt and xi."""

    __slots__ = ("q", "group", "beta", "t", "qt", "xi")

    def __init__(self, q: BraidingMatrix, group: FinAbGroup,
                 beta: Bicharacter, t):
        t = tuple(t)
        if beta.group != group:
            raise DimensionMismatch("bicharacter group differs from datum group")
        if len(t) != q.theta:
            raise DimensionMismatch("need one degree per matrix row")
        for x in t:
            if x.group != group:
                raise DimensionMismatch("degree from the wrong group")
        if not beta.is_nondegenerate():
            raise DegenerateBeta("datum requires a nondegenerate bicharacter")
        self.q, self.group, self.beta, self.t = q, group, beta, t
        self.qt = twist_matrix(q, t, beta)
        self.xi = tuple(beta.chi(x) for x in t)

    @classmethod
    def _of_parts(cls, q: BraidingMatrix, group: FinAbGroup, beta: Bicharacter,
                  t: tuple, qt: ScalarMatrix, xi: tuple) -> "Datum":
        # every field already derived, on the group and beta of a validated datum
        self = object.__new__(cls)
        self.q, self.group, self.beta, self.t, self.qt, self.xi = q, group, beta, t, qt, xi
        return self

    @property
    def theta(self) -> int:
        return self.q.theta

    def __eq__(self, other) -> bool:
        return (isinstance(other, Datum)
                and self.q == other.q and self.group == other.group
                and self.beta == other.beta and self.t == other.t)

    def __hash__(self):
        return hash((self.q, self.group, self.beta, self.t))

    def __repr__(self):
        degs = ",".join(str(x.residues) for x in self.t)
        return f"Datum(q={self.q!r}, t=[{degs}])"

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "q": self.q.to_json(),
            "group": self.group.to_json(),
            "beta": self.beta.to_json(),
            "t": [list(x.residues) for x in self.t],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Datum":
        group = FinAbGroup.from_json(data["group"])
        beta = Bicharacter.from_json(group, data["beta"])
        q = BraidingMatrix.from_json(data["q"])
        if not q.theta:
            raise DimensionMismatch("a datum needs rank at least 1: q must not be empty")
        return cls(q, group, beta, group.elements_from_json(data["t"], "t"))


def datum_from_twisted(qt: ScalarMatrix, group: FinAbGroup,
                       beta: Bicharacter, t) -> Datum:
    """Build a datum from the twisted matrix (q recovered by untwisting)."""
    t = tuple(t)
    return Datum(untwist_matrix(qt, t, beta), group, beta, t)
