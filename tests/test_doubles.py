import json

import pytest

import cases
from chroma.datum import BraidingMatrix, Datum, DegenerateBeta
from chroma.doubles import (Retraction, color_retraction_count,
                            is_color_coinvariants, presentation,
                            presentation_digest, retraction_values,
                            retractions, single_copy_color_check)
from chroma.groups import Bicharacter, FinAbGroup
from chroma.scalars import Rational01, Scalar
from test_triangular import invariant_factor_groups


def rank1_trivial_datum():
    G = FinAbGroup(())
    beta = Bicharacter(G, [])
    return Datum(BraidingMatrix([[Scalar.variable("q")]]), G, beta,
                 (G.identity(),))


def test_rank1_presentation_reduces_to_plain_double():
    pres = presentation(rank1_trivial_datum())
    rel = pres["relations"]
    assert rel["K_conjugation"][0]["E_coeff"] == "q"
    assert rel["K_conjugation"][0]["F_coeff"] == "q^-1"
    # no group or dual conjugation relations on the trivial group
    assert rel["group_conjugation"] == []
    assert rel["dual_conjugation"] == []
    comm = rel["EF_commutator"][0]["commutator"]
    assert comm["positive"] == {"group": [], "K": 1}
    assert comm["negative"] == {"xi": [], "L": 1}


def test_rank2_presentation_coefficients():
    E = cases.rank2_c3_datum()
    pres = presentation(E)
    rel = pres["relations"]
    # conjugation by the group generator scales E_1 by beta(s, t_1) = omega
    by_j = {(tuple(r["t"]), r["j"]): r for r in rel["group_conjugation"]}
    assert by_j[((1,), 1)]["E_coeff"] == "zeta(3,1)"
    assert by_j[((1,), 2)]["E_coeff"] == "1"
    assert by_j[((1,), 1)]["F_coeff"] == "zeta(3,2)"
    # K-conjugation carries the twisted matrix
    kk = {(r["i"], r["j"]): r for r in rel["K_conjugation"]}
    assert kk[(1, 2)]["E_coeff"] == "q^-1"
    assert kk[(2, 1)]["E_coeff"] == "1"
    # pairing values on the generators
    assert pres["pairing"]["mu_EF"] == [[-1, 0], [0, -1]]
    assert pres["pairing"]["mu_E_group"] == 0
    assert pres["pairing"]["mu_KL"][0][1] == "q^-1"


def test_presentation_deterministic():
    E = cases.rank2_c3_datum()
    a = json.dumps(presentation(E), sort_keys=True)
    b = json.dumps(presentation(E), sort_keys=True)
    assert a == b
    assert presentation_digest(E) == presentation_digest(E)


def test_presentation_reduced_variant():
    E = cases.rank2_c3_datum()
    pres = presentation(E, "reduced")
    assert pres["variant"] == "reduced"
    assert "dual_conjugation" not in pres["relations"]
    assert "dual_identification" in pres["relations"]
    with pytest.raises(ValueError):
        presentation(E, "bogus")


def test_retraction_enumeration():
    E = cases.rank2_c3_datum()
    rs = retractions(E)
    assert len(rs) == 9
    trivial = [r for r in rs if r.is_trivial()]
    assert len(trivial) == 1
    assert is_color_coinvariants(trivial[0])
    assert sum(1 for r in rs if is_color_coinvariants(r)) == 1
    total, colored = color_retraction_count(E)
    assert (total, colored) == (9, 1)


def test_retraction_enumeration_trivial_group():
    rs = retractions(rank1_trivial_datum())
    assert len(rs) == 1 and rs[0].is_trivial()


def test_retraction_values_respect_commutator():
    E = cases.rank2_c3_datum()
    for r in retractions(E):
        values = retraction_values(E, r)  # raises on violation
        for i in range(E.theta):
            expected = (E.t[i] * E.t[i] * r.images[i]).residues
            assert values["L"][i] == list(expected)


def test_single_copy_symmetric_case():
    E = cases.rank2_c3_symmetric_datum()
    report = single_copy_color_check(E)
    assert report["symmetric"] is True
    assert report["retraction_exists"] is True
    # witness is forced: the square root of t_1^{-2} = s in C3 is s^2
    assert report["witness"] == [[2], [0]]
    assert report["color"] is False


def test_single_copy_asymmetric_suppresses_fields():
    report = single_copy_color_check(cases.rank2_c3_datum())
    assert report == {"symmetric": False, "retraction_exists": None,
                      "color": None}


def test_single_copy_color_cases():
    # all degrees trivial: color
    G = FinAbGroup.of(3)
    q = Scalar.variable("q")
    E = Datum(BraidingMatrix([[q]]), G, cases.c3_beta(), (G.identity(),))
    rep = single_copy_color_check(E)
    assert rep["color"] is True and rep["retraction_exists"] is True
    # an order-2 degree over C2 is still color
    C2 = FinAbGroup.of(2)
    beta2 = Bicharacter(C2, [[Rational01(1, 2)]])
    E2 = Datum(BraidingMatrix([[q]]), C2, beta2, (C2.generator(0),))
    rep2 = single_copy_color_check(E2)
    assert rep2["color"] is True
    # color implies a retraction exists (the trivial images witness it)
    assert rep2["retraction_exists"] is True


@pytest.mark.parametrize("make", [
    rank1_trivial_datum, cases.rank2_c3_datum, cases.rank2_c3_symmetric_datum,
    cases.rank4_klein_datum,
], ids=["rank1-trivial", "rank2-c3", "rank2-c3-symmetric", "rank4-klein"])
def test_retraction_count_matches_enumeration(make):
    E = make()
    rs = retractions(E)
    assert color_retraction_count(E) == (len(rs), sum(r.is_trivial() for r in rs))


def test_retraction_count_keeps_beta_check():
    E = cases.rank2_c3_datum()
    G = FinAbGroup.of(3)
    E.beta = Bicharacter.trivial(G)
    with pytest.raises(DegenerateBeta):
        color_retraction_count(E)


def test_single_copy_witness_matches_search():
    """The coordinatewise square root is the first g in G.elements() with
    g * g == t^-2, for every t in every group of order <= 16."""
    q = Scalar.variable("q")
    pairs = 0
    for G in invariant_factor_groups(16):
        beta = Bicharacter(G, [[Rational01(int(i == j), o) for j in range(G.rank)]
                               for i, o in enumerate(G.orders)])
        for t in G.elements():
            rep = single_copy_color_check(Datum(BraidingMatrix([[q]]), G, beta, (t,)))
            target = t ** (-2)
            root = next((g for g in G.elements() if g * g == target), None)
            assert rep["retraction_exists"] is (root is not None)
            assert rep.get("witness") == (None if root is None else [list(root.residues)])
            pairs += 1
    assert pairs == 241

