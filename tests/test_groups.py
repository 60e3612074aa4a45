import itertools
import math
import random
from fractions import Fraction

import pytest

from chroma.groups import (Bicharacter, Character, DomainError, Element,
                           FinAbGroup, Homomorphism, Subgroup, perp, quotient)
from chroma.scalars import Rational01

import cases
from test_triangular import commutation_factors, invariant_factor_groups


def all_subgroups(G: FinAbGroup):
    """Every subgroup, by closing generator sets incrementally."""
    found = {Subgroup.trivial(G).element_set: Subgroup.trivial(G)}
    work = [Subgroup.trivial(G)]
    elems = list(G.elements())
    while work:
        S = work.pop()
        for g in elems:
            if g in S:
                continue
            bigger = Subgroup.from_generators(G, list(S.generators) + [g])
            if bigger.element_set not in found:
                found[bigger.element_set] = bigger
                work.append(bigger)
    return list(found.values())


def test_element_arithmetic():
    G = FinAbGroup.of(2, 4)
    a = G.element((1, 3))
    b = G.element((1, 2))
    assert (a * b).residues == (0, 1)
    assert a.inverse().residues == (1, 1)
    assert (a ** 4).residues == (0, 0)
    assert a.order() == 4
    with pytest.raises(DomainError):
        a * FinAbGroup.of(3).element((1,))


def test_element_enumeration_order():
    # first coordinate varies fastest (fixes the glyph convention downstream)
    G = FinAbGroup.of(2, 2)
    assert [g.residues for g in G.elements()] == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_character_evaluation():
    G = FinAbGroup.of(4)
    chi = Character(G, (1,))
    assert chi(G.element((1,))) == Rational01(1, 4)
    assert chi(G.element((2,))) == Rational01(1, 2)
    assert Character.trivial(G)(G.element((3,))).is_zero()


def test_bicharacter_eval_examples():
    # C4 with beta(g^i, g^j) = (-1)^{ij}
    G = FinAbGroup.of(4)
    beta = Bicharacter(G, [[Rational01(1, 2)]])
    g = G.generator(0)
    assert beta.eval(g, g) == Rational01(1, 2)
    assert beta.eval(G.identity(), g).is_zero()
    # the Klein example: beta(n, s) = 1 but beta(s, n) = -1
    beta4 = cases.klein_beta()
    K = beta4.group
    s, n = K.generator(0), K.generator(1)
    assert beta4.eval(n, s).is_zero()
    assert beta4.eval(s, n) == Rational01(1, 2)
    assert not beta4.is_commutation_factor()


def test_bicharacter_integrality_enforced():
    G = FinAbGroup.of(2, 4)
    with pytest.raises(ValueError):
        Bicharacter(G, [[Rational01(0, 1), Rational01(1, 4)],
                        [Rational01(0, 1), Rational01(0, 1)]])


def test_bilinearity_random():
    rng = random.Random(2)
    G = FinAbGroup.of(2, 4)
    beta = Bicharacter(G, [[Rational01(1, 2), Rational01(1, 2)],
                           [Rational01(1, 2), Rational01(1, 4)]])
    elems = list(G.elements())
    for _ in range(100):
        g, h, l = (rng.choice(elems) for _ in range(3))
        assert beta.eval(g * h, l) == beta.eval(g, l) + beta.eval(h, l)
        assert beta.eval(g, h * l) == beta.eval(g, h) + beta.eval(g, l)


def test_chi_maps():
    beta = cases.klein_beta()
    G = beta.group
    for g in G.elements():
        for h in G.elements():
            assert beta.chi(g)(h) == beta.eval(h, g)
            assert beta.chi_o(g)(h) == beta.eval(g, h)
    triv = Bicharacter.trivial(G)
    for g in G.elements():
        assert triv.chi(g).is_trivial()
        assert triv.chi_o(g).is_trivial()


def test_chi_hom_injective_iff_nondegenerate():
    nondeg = cases.c3_beta()
    hom = nondeg.chi_hom()
    assert nondeg.is_nondegenerate() and hom.is_injective()
    G = FinAbGroup.of(4)
    deg = Bicharacter(G, [[Rational01(1, 2)]])
    assert not deg.is_nondegenerate()
    assert not deg.chi_hom().is_injective()


def test_radical_and_commutation():
    G = FinAbGroup.of(2)
    triv = Bicharacter.trivial(G)
    assert triv.radical().order == 2
    assert not triv.is_nondegenerate()
    # (-1)^{ij} on C4: radical {1, g^2}, symmetric so a commutation factor
    C4 = FinAbGroup.of(4)
    beta = Bicharacter(C4, [[Rational01(1, 2)]])
    assert sorted(beta.radical().element_set) == [(0,), (2,)]
    assert beta.is_commutation_factor()


def test_perp_examples():
    G = FinAbGroup.of(4)
    g = G.generator(0)
    assert perp(Subgroup.trivial(G)).order == 4
    assert perp(Subgroup.full(G)).order == 1
    S = Subgroup.from_generators(G, [g ** 2])
    P = perp(S)
    assert P.order == 2
    for a in P.elements():
        assert Character(G, a.residues)(g ** 2).is_zero()


def test_quotient_examples():
    G = FinAbGroup.of(4)
    S = Subgroup.from_generators(G, [G.element((2,))])
    qm = quotient(G, S)
    assert qm.quotient.orders == (2,)
    assert qm.project.is_surjective()
    assert qm.project.kernel() == S
    for x in qm.quotient.elements():
        assert qm.project(qm.lift(x)) == x


def test_quotient_snf_nontrivial():
    G = FinAbGroup.of(2, 4)
    S = Subgroup.from_generators(G, [G.element((1, 2))])
    qm = quotient(G, S)
    assert qm.quotient.order == G.order // S.order
    assert qm.project.kernel() == S
    for x in qm.quotient.elements():
        assert qm.project(qm.lift(x)) == x


def test_subgroup_perp_product_order():
    groups = [FinAbGroup.of(*o) for o in
              [(2,), (3,), (4,), (6,), (8,), (9,), (12,), (2, 2), (2, 4),
               (3, 3), (2, 2, 2), (2, 6), (2, 2, 4), (4, 4), (36,), (2, 16)]]
    for G in groups:
        for S in all_subgroups(G):
            assert S.order * perp(S).order == G.order
            qm = quotient(G, S)
            assert qm.quotient.order * S.order == G.order
            assert qm.project.kernel() == S


def test_homomorphism_validation():
    G = FinAbGroup.of(4)
    H = FinAbGroup.of(2)
    hom = Homomorphism(G, H, (H.element((1,)),))
    assert hom(G.element((3,))).residues == (1,)
    with pytest.raises(ValueError):
        Homomorphism(H, G, (G.element((1,)),))  # order-2 generator to order-4 image


def per_term_eval(beta, g, h):
    total = Rational01(0, 1)
    for i, gi in enumerate(g.residues):
        for j, hj in enumerate(h.residues):
            total = total + beta.matrix[i][j].scale(gi * hj)
    return total


def per_term_character(beta, g, transpose):
    G = beta.group
    res = []
    for i, o in enumerate(G.orders):
        e = Rational01(0, 1)
        for j, gj in enumerate(g.residues):
            entry = beta.matrix[j][i] if transpose else beta.matrix[i][j]
            e = e + entry.scale(gj)
        res.append(Fraction(o * e.num, e.den))
    assert all(r.denominator == 1 for r in res)
    return Character(G, tuple(int(r) for r in res))


def seeded_bicharacter(rng, G: FinAbGroup) -> Bicharacter:
    """A random bicharacter, not necessarily skew-symmetric."""
    return Bicharacter(G, [[Rational01(rng.randrange(math.gcd(oi, oj)), math.gcd(oi, oj))
                            for oj in G.orders] for oi in G.orders])


@pytest.mark.parametrize("orders", [(2, 4), (3, 9), (12, 12)])
def test_eval_matches_per_term_sum(orders):
    rng = random.Random(sum(orders))
    G = FinAbGroup(orders)
    elems = list(G.elements())
    for _ in range(20):
        beta = seeded_bicharacter(rng, G)
        for _ in range(40):
            g, h = rng.choice(elems), rng.choice(elems)
            assert beta.eval(g, h) == per_term_eval(beta, g, h)
            assert beta.chi(g) == per_term_character(beta, g, False)
            assert beta.chi_o(g) == per_term_character(beta, g, True)
    zero = Bicharacter.trivial(G)
    assert zero.eval(elems[-1], elems[-1]) == Rational01(0, 1)


SMALL_GROUPS = [(2,), (4,), (6,), (2, 2), (2, 4), (3, 9), (4, 4), (2, 2, 2), (2, 6, 6)]


def group_id(orders) -> str:
    return "x".join(map(str, orders))


@pytest.mark.parametrize("orders", SMALL_GROUPS, ids=group_id)
def test_radical_matches_brute_force(orders):
    rng = random.Random(f"radical:{orders}")
    G = FinAbGroup(orders)
    elems = list(G.elements())
    for _ in range(12):
        beta = seeded_bicharacter(rng, G)
        members = [g for g in elems if all(beta.eval(g, h).is_zero() for h in elems)]
        rad = beta.radical()
        # the members, in enumeration order, are the generators
        assert rad.generators == tuple(members)
        assert rad.element_set == frozenset(g.residues for g in members)
        assert rad == Subgroup.from_elements(G, members)


@pytest.mark.parametrize("orders", SMALL_GROUPS[:-1], ids=group_id)
def test_perp_matches_brute_force(orders):
    rng = random.Random(f"perp:{orders}")
    G = FinAbGroup(orders)
    elems = list(G.elements())
    subgroups = all_subgroups(G) + [seeded_bicharacter(rng, G).radical()
                                    for _ in range(4)]
    for S in subgroups:
        members = [a for a in elems
                   if all(Character(G, a.residues)(s).is_zero() for s in S.elements())]
        P = perp(S)
        assert P.generators == tuple(members)
        assert P.element_set == frozenset(a.residues for a in members)


def enumerated_nondegenerate(beta: Bicharacter) -> bool:
    G = beta.group
    return not any(all(beta.eval(g, e).is_zero() for e in G.generators())
                   for g in G.elements() if not g.is_identity())


def test_nondegenerate_matches_enumeration():
    for G in invariant_factor_groups(16):
        for beta in commutation_factors(G):
            assert beta.is_nondegenerate() == enumerated_nondegenerate(beta), beta.matrix
    rng = random.Random("nondegenerate")
    for orders in SMALL_GROUPS + [(3, 3, 3), (2, 4, 8), (12, 12)]:
        G = FinAbGroup(orders)
        for _ in range(20):
            beta = seeded_bicharacter(rng, G)
            assert beta.is_nondegenerate() == enumerated_nondegenerate(beta), beta.matrix
