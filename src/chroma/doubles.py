"""Symbolic presentations of the doubles attached to a datum, and the
predicates deciding when their coinvariant algebras are color Hopf algebras.

The doubles themselves are infinite dimensional and never materialized;
what is computable is the presentation data (relation coefficients,
coproduct rules, pairing values on generators), the enumeration of
retractions onto the group algebra, and the finite color criteria.
The retraction counts are taken from |G| (|G|^theta choices of images)
without enumerating the retractions or the group.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from .datum import Datum, DegenerateBeta
from .groups import Character, Element
from .scalars import Scalar


@dataclass(frozen=True)
class Retraction:
    """Images of the free generators K_i in G (these determine the retraction)."""

    images: tuple[Element, ...]

    def is_trivial(self) -> bool:
        return all(g.is_identity() for g in self.images)


def presentation(E: Datum, variant: str = "double") -> dict:
    """The full presentation: generators, relations, coproducts, pairing.

    Symbols are fixed as E1..Etheta, F1..Ftheta, K_i, L_i plus the group
    elements, so emission is reproducible.  Coefficients are exact
    scalars in the text grammar.

    ``variant="reduced"`` flags the quotient in which each dual generator
    is identified with the inverse of the matching group element; the
    dual conjugation relations become redundant there and are omitted.
    """
    if variant not in ("double", "reduced"):
        raise ValueError("variant must be 'double' or 'reduced'")
    theta = E.theta
    qt = E.qt
    G = E.group
    gens = {
        "E": [f"E{i + 1}" for i in range(theta)],
        "F": [f"F{i + 1}" for i in range(theta)],
        "K": [f"K{i + 1}" for i in range(theta)],
        "L": [f"L{i + 1}" for i in range(theta)],
        "group": G.to_json(),
    }
    rel_kk = []
    rel_ll = []
    for i in range(theta):
        for j in range(theta):
            rel_kk.append({"i": i + 1, "j": j + 1,
                           "E_coeff": str(qt[i, j]),
                           "F_coeff": str(qt[i, j].inverse())})
            rel_ll.append({"i": i + 1, "j": j + 1,
                           "E_coeff": str(qt[j, i].inverse()),
                           "F_coeff": str(qt[j, i])})
    rel_group = []
    for t in G.generators():
        for j in range(theta):
            value = E.beta.eval(t, E.t[j])
            rel_group.append({"t": list(t.residues), "j": j + 1,
                              "E_coeff": str(Scalar.from_root(value)),
                              "F_coeff": str(Scalar.from_root(-value))})
    rel_dual = []
    for a in G.generators():  # dual generators under the canonical pairing
        for j in range(theta):
            value = Character(G, a.residues)(E.t[j])
            rel_dual.append({"xi": list(a.residues), "j": j + 1,
                             "E_coeff": str(Scalar.from_root(-value)),
                             "F_coeff": str(Scalar.from_root(value))})
    rel_ef = []
    for i in range(theta):
        rel_ef.append({
            "i": i + 1,
            "commutator": {
                "positive": {"group": list(E.t[i].residues), "K": i + 1},
                "negative": {"xi": list(E.xi[i].residues), "L": i + 1},
            },
        })
    comul = []
    for i in range(theta):
        comul.append({
            "E": {"terms": [["E", i + 1, "1"], [f"K{i + 1}*t{i + 1}", "E", i + 1]]},
            "F": {"terms": [["F", i + 1, f"L{i + 1}*xi{i + 1}"], ["1", "F", i + 1]]},
            "t_i": list(E.t[i].residues),
            "xi_i": list(E.xi[i].residues),
        })
    pairing = {
        "mu_EF": [[-1 if i == j else 0 for j in range(theta)] for i in range(theta)],
        "mu_E_group": 0,
        "mu_group_F": 0,
        "mu_KL": [[str(qt[i, j]) for j in range(theta)] for i in range(theta)],
    }
    relations = {
        "K_conjugation": rel_kk,
        "L_conjugation": rel_ll,
        "group_conjugation": rel_group,
        "dual_conjugation": rel_dual,
        "EF_commutator": rel_ef,
    }
    if variant == "reduced":
        relations.pop("dual_conjugation")
        relations["dual_identification"] = "chi^o_t identified with t^-1"
    return {
        "schema": 1,
        "variant": variant,
        "theta": theta,
        "generators": gens,
        "datum": E.to_json(),
        "relations": relations,
        "coproducts": comul,
        "pairing": pairing,
    }


def presentation_digest(E: Datum) -> str:
    data = json.dumps(presentation(E), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def _require_nondegenerate(E: Datum) -> None:
    if not E.beta.is_nondegenerate():
        raise DegenerateBeta("retraction enumeration needs nondegenerate beta")


def retractions(E: Datum) -> list[Retraction]:
    """All group homomorphisms from the free part to G (|G|^theta of them)."""
    _require_nondegenerate(E)
    pool = list(E.group.elements())  # the candidate images of each K_i
    return [Retraction(images) for images in itertools.product(pool, repeat=E.theta)]


def retraction_values(E: Datum, r: Retraction) -> dict:
    """The induced images: pi(K_i) = pibar(K_i), pi(L_i) = t_i^2 pibar(K_i).

    The character xi_i = chi_{t_i} pulls back to t_i under chi, so the
    L-images collapse to t_i^2 pibar(K_i); compatibility with the E-F
    commutator, pi(t_i K_i) == pi(xi_i L_i), then holds identically and
    is re-checked.
    """
    pi_k = list(r.images)
    pi_l = [E.t[i] * E.t[i] * r.images[i] for i in range(E.theta)]
    for i in range(E.theta):
        left = E.t[i] * pi_k[i]
        right = (E.t[i].inverse()) * pi_l[i]  # chi^{-1}(xi_i)^{-1} * pi(L_i)
        if left != right:
            raise AssertionError("retraction does not respect the EF commutator")
    return {
        "K": [list(g.residues) for g in pi_k],
        "L": [list(g.residues) for g in pi_l],
    }


def is_color_coinvariants(r: Retraction) -> bool:
    """Coinvariants form a color Hopf algebra iff the retraction is trivial."""
    return r.is_trivial()


def color_retraction_count(E: Datum) -> tuple[int, int]:
    """(number of retractions, number giving a color Hopf algebra).

    Counted, not enumerated: a retraction picks each of its theta images
    from G independently, and it gives a color Hopf algebra iff every
    image is the one identity of G.
    """
    _require_nondegenerate(E)
    return E.group.order ** E.theta, 1


def _square_root(target: Element) -> list[int]:
    """Residues of the first g in ``G.elements()`` order with g * g == target.

    Coordinatewise 2x = c (mod o): for odd o the unique root is c(o+1)/2;
    for even o the roots are c/2 and c/2 + o/2.  The target is always
    t_i^{-2}, a square, so c is even wherever o is.  The first element
    listed takes the least root in every coordinate.
    """
    return [c * (o + 1) // 2 % o if o % 2 else c // 2
            for c, o in zip(target.residues, target.group.orders)]


def single_copy_color_check(E: Datum) -> dict:
    """Checks for the one-copy quotient: q~ symmetry, retraction, color.

    With a symmetric twisted matrix the products K_i L_i become central
    and can be killed; a splitting onto kG then needs pibar(K_i)^2 =
    t_i^{-2}, which t_i^{-1} solves, so one always exists; the coinvariants
    are color iff every t_i is an involution.  When symmetry fails the
    other fields are suppressed.
    """
    theta = E.theta
    qt = E.qt
    symmetric = all(qt[i, j] == qt[j, i] for i in range(theta) for j in range(theta))
    report: dict = {"symmetric": symmetric}
    if not symmetric:
        report["retraction_exists"] = None
        report["color"] = None
        return report
    report["retraction_exists"] = True
    report["witness"] = [_square_root(E.t[i] ** (-2)) for i in range(theta)]
    report["color"] = all((E.t[i] * E.t[i]).is_identity() for i in range(theta))
    return report
