"""Finite abelian groups in invariant-factor form.

A group is a product of cyclic factors Z/orders[i], written
multiplicatively; elements are residue vectors.  The dual group has the
same orders, with the canonical pairing a(g) = sum a_i g_i / orders_i
(as an exponent mod 1).  Bicharacters are stored by their exponents on
the generator pairs.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .scalars import Rational01, R01_ZERO
from .zlinalg import smith_normal_form


class DomainError(ValueError):
    """An element was used with a group it does not belong to."""


@dataclass(frozen=True)
class FinAbGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if any(o < 1 for o in self.orders):
            raise ValueError("orders must be >= 1")
        object.__setattr__(self, "orders", tuple(int(o) for o in self.orders))

    @classmethod
    def of(cls, *orders: int) -> "FinAbGroup":
        return cls(tuple(orders))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def exponent(self) -> int:
        return math.lcm(*self.orders) if self.orders else 1

    def identity(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def element(self, residues) -> "Element":
        return Element(self, tuple(residues))

    def elements_from_json(self, rows, what: str) -> tuple["Element", ...]:
        """Elements from a JSON list of integer residue vectors."""
        if not isinstance(rows, list) or not all(
                isinstance(r, list) and len(r) == self.rank
                and all(type(x) is int for x in r) for r in rows):
            raise ValueError(f"{what} must be a list of integer vectors of length {self.rank}")
        return tuple(self.element(r) for r in rows)

    def generator(self, i: int) -> "Element":
        res = [0] * self.rank
        res[i] = 1
        return Element(self, tuple(res))

    def generators(self) -> list["Element"]:
        return [self.generator(i) for i in range(self.rank)]

    def elements(self):
        """All elements, first coordinate varying fastest."""
        make = Element._make
        for combo in itertools.product(*(range(o) for o in reversed(self.orders))):
            yield make(self, combo[::-1])

    def linear_images(self, rows, width: int) -> list[list[int]]:
        """sum_k x_k rows[k], an integer vector of length ``width``, for
        every element x, in ``elements()`` order.  Built one coordinate at
        a time, each image one vector addition from an earlier one: O(width)
        per element, not O(rank * width).  The first coordinate's multiples
        start the expansion, so a rank-1 group builds one list per element."""
        if not self.orders:
            return [[0] * width]
        images = [[c * b for b in rows[0]] for c in range(self.orders[0])]
        for o, row in zip(self.orders[1:], rows[1:]):
            images = [list(map(operator.add, v, step))
                      for step in ([c * b for b in row] for c in range(o)) for v in images]
        return images

    def index_of(self, g: "Element") -> int:
        idx = 0
        base = 1
        for r, o in zip(g.residues, self.orders):
            idx += r * base
            base *= o
        return idx

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}

    @classmethod
    def from_json(cls, data: dict) -> "FinAbGroup":
        if not isinstance(data, dict):
            raise ValueError("group must be a JSON object")
        orders = data["orders"]
        if not isinstance(orders, list):
            raise ValueError("group orders must be a list")
        for o in orders:
            if isinstance(o, bool) or not isinstance(o, int):
                raise ValueError(f"group order {o!r} is not an integer")
        return cls(tuple(orders))


@dataclass(frozen=True)
class Element:
    group: FinAbGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        if len(self.residues) != self.group.rank:
            raise DomainError("residue vector has wrong length")
        object.__setattr__(
            self, "residues",
            tuple(int(r) % o for r, o in zip(self.residues, self.group.orders)))

    @classmethod
    def _make(cls, group: FinAbGroup, residues: tuple) -> "Element":
        # residues already reduced mod the orders: skip the validation
        self = object.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "residues", residues)
        return self

    def _check(self, other: "Element"):
        if self.group != other.group:
            raise DomainError("elements from different groups")

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.group, tuple(a + b for a, b in zip(self.residues, other.residues)))

    def inverse(self) -> "Element":
        return Element(self.group, tuple(-r for r in self.residues))

    def __pow__(self, k: int) -> "Element":
        return Element(self.group, tuple(r * k for r in self.residues))

    def is_identity(self) -> bool:
        return all(r == 0 for r in self.residues)

    def order(self) -> int:
        return math.lcm(*(o // math.gcd(r, o) for r, o in zip(self.residues, self.group.orders))) \
            if self.residues else 1

    def __repr__(self):
        return f"Element{self.residues}"


@dataclass(frozen=True)
class Character:
    """A character of ``group`` under the canonical pairing.

    chi(g) is the root of unity with exponent sum(residues[i]*g[i]/orders[i]).
    The dual group is again ``FinAbGroup(orders)``; arithmetic on
    characters is done on its elements (``as_element``).
    """

    group: FinAbGroup
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "residues",
            tuple(int(r) % o for r, o in zip(self.residues, self.group.orders)))

    @classmethod
    def trivial(cls, group: FinAbGroup) -> "Character":
        return cls(group, (0,) * group.rank)

    def __call__(self, g: Element) -> Rational01:
        if g.group != self.group:
            raise DomainError("character applied to foreign element")
        num = 0
        den = 1
        for r, x, o in zip(self.residues, g.residues, self.group.orders):
            num = num * o + r * x * den
            den *= o
        return Rational01(num, den)

    def is_trivial(self) -> bool:
        return all(r == 0 for r in self.residues)

    def as_element(self) -> Element:
        """The same data as an element of the (self-dual) parameter group."""
        return Element(self.group, self.residues)


class Bicharacter:
    """A bimultiplicative map G x G -> roots of unity.

    ``matrix[i][j]`` is the exponent of the value on the generator pair
    (g_i, g_j); bimultiplicativity forces orders[i]*matrix[i][j] and
    orders[j]*matrix[i][j] to be integers, which is checked.  Every entry
    is therefore a multiple of 1/exponent(G); evaluation sums those
    integer multiples and reduces once.  The integer view is public:
    ``exponent`` is exponent(G) and ``ints[i][j]`` = exponent * matrix[i][j].
    """

    __slots__ = ("group", "matrix", "exponent", "ints")

    def __init__(self, group: FinAbGroup, matrix):
        rows = tuple(tuple(m) for m in matrix)
        if len(rows) != group.rank or any(len(r) != group.rank for r in rows):
            raise ValueError("bicharacter matrix has wrong shape")
        for i, row in enumerate(rows):
            for j, b in enumerate(row):
                oi, oj = group.orders[i], group.orders[j]
                if (oi * b.num) % b.den or (oj * b.num) % b.den:
                    raise ValueError(
                        f"entry ({i},{j}) = {b} is not compatible with orders "
                        f"{oi}, {oj}")
        self.group = group
        self.matrix = rows
        e = self.exponent = group.exponent
        self.ints = tuple(tuple(b.over(e) for b in row) for row in rows)

    @classmethod
    def trivial(cls, group: FinAbGroup) -> "Bicharacter":
        z = R01_ZERO
        return cls(group, [[z] * group.rank for _ in range(group.rank)])

    def eval(self, g: Element, h: Element) -> Rational01:
        if g.group != self.group or h.group != self.group:
            raise DomainError("bicharacter applied to foreign elements")
        total = 0
        for gi, row in zip(g.residues, self.ints):
            if gi:
                for hj, b in zip(h.residues, row):
                    if hj:
                        total += gi * hj * b
        e = self.exponent
        return Rational01(total, e) if total % e else R01_ZERO

    def is_trivial_on(self, elements) -> bool:
        """Whether beta(g, h) = 1 for all g, h among ``elements``."""
        elements = set(elements)
        return all(self.eval(g, h).is_zero() for g in elements for h in elements)

    def chi(self, g: Element) -> Character:
        """The character h -> beta(h, g)."""
        return self._character(self.ints, g)

    def chi_o(self, g: Element) -> Character:
        """The character h -> beta(g, h)."""
        return self._character(tuple(zip(*self.ints)), g)

    def _character(self, rows, g: Element) -> Character:
        # residue i is orders[i] * (sum_j rows[i][j] g_j / exponent mod 1),
        # an integer because orders[i] kills every entry of row i
        e = self.exponent
        res = tuple((o * (sum(b * gj for b, gj in zip(row, g.residues)) % e)) // e
                    for o, row in zip(self.group.orders, rows))
        return Character(self.group, res)

    def chi_hom(self) -> "Homomorphism":
        return Homomorphism(self.group, self.group,
                            tuple(self.chi(g).as_element() for g in self.group.generators()))

    def radical(self) -> "Subgroup":
        """{g : beta(g, h) = 1 for all h}; its members, in enumeration
        order, are also its generators."""
        G, e = self.group, self.exponent
        # beta(g, g_j) = sum_i g_i ints[i][j] / e, the row of g
        rows = G.linear_images(self.ints, G.rank)
        members = [g for g, row in zip(G.elements(), rows) if not any(map(e.__rmod__, row))]
        return Subgroup._of_members(G, members)

    def is_nondegenerate(self) -> bool:
        """chi: G -> G^ is injective, i.e. onto, without listing G.

        chi(g) has residues sum_j C_ij g_j mod orders[i] with C_ij =
        orders[i] * matrix[i][j]; it is onto iff the columns of
        [C | diag(orders)] span Z^rank, i.e. every invariant factor is 1.
        """
        G, e = self.group, self.exponent
        relations = [[o * b // e for b in row] + [o * (i == k) for k in range(G.rank)]
                     for i, (o, row) in enumerate(zip(G.orders, self.ints))]
        return all(d == 1 for d in smith_normal_form(relations).diagonal)

    def is_commutation_factor(self) -> bool:
        n = self.group.rank
        for i in range(n):
            for j in range(i, n):
                if not (self.matrix[i][j] + self.matrix[j][i]).is_zero():
                    return False
        return True

    def __mul__(self, other: "Bicharacter") -> "Bicharacter":
        if self.group != other.group:
            raise DomainError("bicharacters on different groups")
        return Bicharacter(self.group,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.matrix, other.matrix)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Bicharacter)
                and self.group == other.group and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.group, self.matrix))

    def to_json(self) -> list:
        return [[str(b) for b in row] for row in self.matrix]

    @classmethod
    def from_json(cls, group: FinAbGroup, rows: list) -> "Bicharacter":
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("beta must be an array of arrays of roots")
        return cls(group, [[Rational01.parse(b) for b in row] for row in rows])


class Subgroup:
    """A subgroup: elements that generate it (``perp`` and ``quotient`` read
    only these), and its full enumerated element set."""

    __slots__ = ("group", "generators", "element_set")

    def __init__(self, group: FinAbGroup, generators, element_set: frozenset):
        self.group = group
        self.generators = tuple(generators)
        self.element_set = element_set

    @classmethod
    def from_generators(cls, group: FinAbGroup, generators) -> "Subgroup":
        gens = tuple(generators)
        seen = {group.identity().residues}
        frontier = [group.identity()]
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = current * g
                if nxt.residues not in seen:
                    seen.add(nxt.residues)
                    frontier.append(nxt)
        return cls(group, gens, frozenset(seen))

    @classmethod
    def from_elements(cls, group: FinAbGroup, elements) -> "Subgroup":
        return cls.from_generators(group, tuple(elements))

    @classmethod
    def _of_members(cls, group: FinAbGroup, members) -> "Subgroup":
        # ``members`` is already the whole subgroup: no closure needed
        return cls(group, members, frozenset(g.residues for g in members))

    @classmethod
    def trivial(cls, group: FinAbGroup) -> "Subgroup":
        return cls(group, (), frozenset({group.identity().residues}))

    @classmethod
    def full(cls, group: FinAbGroup) -> "Subgroup":
        return cls.from_generators(group, group.generators())

    @property
    def order(self) -> int:
        return len(self.element_set)

    def __contains__(self, g: Element) -> bool:
        return g.group == self.group and g.residues in self.element_set

    def elements(self):
        for res in sorted(self.element_set):
            yield Element(self.group, res)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup)
                and self.group == other.group
                and self.element_set == other.element_set)

    def __hash__(self):
        return hash((self.group, self.element_set))


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism determined by generator images; validated on creation."""

    src: FinAbGroup
    dst: FinAbGroup
    images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.images) != self.src.rank:
            raise ValueError("one image per source generator required")
        for img, o in zip(self.images, self.src.orders):
            if img.group != self.dst:
                raise DomainError("image lies in the wrong group")
            if not (img ** o).is_identity():
                raise ValueError("images do not respect generator orders")

    def __call__(self, g: Element) -> Element:
        if g.group != self.src:
            raise DomainError("argument from the wrong group")
        out = self.dst.identity()
        for r, img in zip(g.residues, self.images):
            if r:
                out = out * (img ** r)
        return out

    def is_injective(self) -> bool:
        seen = set()
        for g in self.src.elements():
            v = self(g).residues
            if v in seen:
                return False
            seen.add(v)
        return True

    def is_surjective(self) -> bool:
        return len({self(g).residues for g in self.src.elements()}) == self.dst.order

    def kernel(self) -> Subgroup:
        return Subgroup._of_members(
            self.src, [g for g in self.src.elements() if self(g).is_identity()])


def perp(sub: Subgroup) -> Subgroup:
    """Characters trivial on the subgroup, as a subgroup of the dual group."""
    G = sub.group
    dual = FinAbGroup(G.orders)
    e = G.exponent
    # testing on generators suffices since characters are homomorphisms;
    # a(s) = sum_i a_i s_i (e / orders_i) / e
    test_points = [tuple(s * (e // o) for s, o in zip(g.residues, G.orders))
                   for g in sub.generators]
    members = [a for a in dual.elements()
               if not any(sum(map(operator.mul, a.residues, s)) % e for s in test_points)]
    return Subgroup._of_members(dual, members)


@dataclass
class QuotientMap:
    quotient: FinAbGroup
    project: Homomorphism
    _lift_rows: list[list[int]]

    def lift(self, x: Element) -> Element:
        """A preimage of x under the projection (not a homomorphism)."""
        if x.group != self.quotient:
            raise DomainError("lift applied to foreign element")
        return Element(self.project.src, tuple(sum(map(operator.mul, row, x.residues))
                                               for row in self._lift_rows))


def quotient(G: FinAbGroup, sub: Subgroup) -> QuotientMap:
    """G / sub in invariant-factor form, with projection and a lift."""
    if sub.group != G:
        raise DomainError("subgroup of a different group")
    n = G.rank
    if n == 0:
        q = FinAbGroup(())
        return QuotientMap(q, Homomorphism(G, q, ()), [])
    gens = [list(g.residues) for g in sub.generators]
    # relation matrix: columns are diag(orders) plus subgroup generators
    M = [[G.orders[i] * int(i == j) for j in range(n)] + [g[i] for g in gens]
         for i in range(n)]
    snf = smith_normal_form(M)
    diag = [snf.D[i][i] for i in range(n)]
    kept = [i for i, d in enumerate(diag) if d != 1]
    q_orders = tuple(diag[i] for i in kept)
    Q = FinAbGroup(q_orders)
    images = []
    for j in range(n):
        res = tuple(snf.U[i][j] % diag[i] if diag[i] else snf.U[i][j] for i in kept)
        images.append(Element(Q, res))
    proj = Homomorphism(G, Q, tuple(images))
    # U maps column i of U^-1 to e_i, which projects to generator i of Q
    lift_rows = [[row[i] for i in kept] for row in snf.U_inv]
    return QuotientMap(Q, proj, lift_rows)
