"""An independent oracle for the bicrossed-product identities.

``extensions`` writes each identity once and reuses it: the twisted Kac
identity behind ``kac_condition``, ``color_compatibility`` and two entries
of ``check_split_color_extension``; the two laws of ``validate_z``; the
2-cocycle law of ``TauCocycle``; and one builder of the four ftilde
conditions behind ``ExtAutomorphism.validate`` and ``aut_ext_solve``.  The
oracle below spells every identity out entry by entry, one loop per
condition, on ``Rational01`` values.  Its verdicts must equal the
library's on each input and on each single-entry mutant of it.

A mutant shifts one table entry by the generator of the group its values
live in: a root of unity by 1/N for the input's root order N, a degree of
ztilde by the first generator of the grading group.
"""

import warnings

import pytest

import cases
from chroma.extensions import (ExtAutomorphism, GroupAut, SigmaCocycle, TauCocycle,
                               ZMap, aut_ext_solve, check_split_color_extension,
                               color_compatibility, default_root_bound,
                               kac_condition, validate_z)
from chroma.groups import Bicharacter, FinAbGroup
from chroma.scalars import Rational01

# ---------------------------------------------------------------------------
# the oracle: one loop per condition
# ---------------------------------------------------------------------------


def oracle_sigma_cocycle(sigma, mp):
    L, Gamma = mp.L, mp.Gamma
    for l in L.elements():
        for g in Gamma.elements():
            if not sigma.value(l, Gamma.identity, g).is_zero():
                return False
            if not sigma.value(l, g, Gamma.identity).is_zero():
                return False
    for g in Gamma.elements():
        for h in Gamma.elements():
            if not sigma.value(L.identity, g, h).is_zero():
                return False
    for l in L.elements():
        for g in Gamma.elements():
            for h in Gamma.elements():
                for k in Gamma.elements():
                    lhs = sigma.value(l, g, h) + sigma.value(l, Gamma.mul(g, h), k)
                    rhs = sigma.value(mp.la(l, g), h, k) + \
                        sigma.value(l, g, Gamma.mul(h, k))
                    if lhs != rhs:
                        return False
    return True


def oracle_tau_cocycle(tau, mp):
    L, Gamma = mp.L, mp.Gamma
    for g in Gamma.elements():
        for l in L.elements():
            if not tau.value(g, L.identity, l).is_zero():
                return False
            if not tau.value(g, l, L.identity).is_zero():
                return False
    for l in L.elements():
        for t in L.elements():
            if not tau.value(Gamma.identity, l, t).is_zero():
                return False
    for g in Gamma.elements():
        for v in L.elements():
            for w in L.elements():
                for m in L.elements():
                    lhs = tau.value(mp.ra(m, g), v, w) + \
                        tau.value(g, L.mul(v, w), m)
                    rhs = tau.value(g, w, m) + tau.value(g, v, L.mul(w, m))
                    if lhs != rhs:
                        return False
    return True


def oracle_kac_condition(mp, sigma, tau):
    L, Gamma = mp.L, mp.Gamma
    for s in L.elements():
        for t in L.elements():
            st = L.mul(s, t)
            for x in Gamma.elements():
                tx = mp.ra(t, x)
                t_lact_x = mp.la(t, x)
                s_prime = mp.la(s, tx)
                for y in Gamma.elements():
                    lhs = sigma.value(st, x, y) + tau.value(Gamma.mul(x, y), s, t)
                    rhs = sigma.value(s, tx, mp.ra(t_lact_x, y)) \
                        + sigma.value(t, x, y) \
                        + tau.value(x, s, t) \
                        + tau.value(y, s_prime, t_lact_x)
                    if lhs != rhs:
                        return False
    return True


def oracle_validate_z(z):
    mp = z.mp
    L, Gamma = mp.L, mp.Gamma
    for l in L.elements():
        for g in Gamma.elements():
            for h in Gamma.elements():
                if z.degree(l, Gamma.mul(g, h)) != \
                        z.degree(l, g) * z.degree(mp.la(l, g), h):
                    return False
    for l in L.elements():
        for t in L.elements():
            for g in Gamma.elements():
                if z.degree(L.mul(l, t), g) != \
                        z.degree(l, mp.ra(t, g)) * z.degree(t, g):
                    return False
    return True


def oracle_color_compatibility(mp, sigma, tau, z, beta):
    if not oracle_validate_z(z):
        return False
    L, Gamma = mp.L, mp.Gamma
    for l in L.elements():
        for t in L.elements():
            lt = L.mul(l, t)
            for g in Gamma.elements():
                tg = mp.ra(t, g)          # t |> gamma
                t_la_g = mp.la(t, g)      # t <| gamma
                l2 = mp.la(l, tg)         # l <| (t |> gamma)
                for h in Gamma.elements():
                    rh = mp.ra(t_la_g, h)  # (t <| gamma) |> eta
                    lhs = sigma.value(lt, g, h) + tau.value(Gamma.mul(g, h), l, t)
                    rhs = beta.eval(z.degree(t, g), z.degree(l2, rh)) \
                        + tau.value(g, l, t) \
                        + tau.value(h, l2, t_la_g) \
                        + sigma.value(l, tg, rh) \
                        + sigma.value(t, g, h)
                    if lhs != rhs:
                        return False
    return True


def oracle_split(mp, sigma, tau, ztilde, group, beta):
    L, Gamma = mp.L, mp.Gamma
    report = {}
    ok = True
    for gam in Gamma.elements():
        for l in L.elements():
            for t in L.elements():
                if ztilde[gam][L.mul(l, t)] != ztilde[gam][l] * ztilde[gam][t]:
                    ok = False
    report["ztilde_homomorphisms"] = ok
    ok = True
    for gam in Gamma.elements():
        for eta in Gamma.elements():
            ge = Gamma.mul(gam, eta)
            for l in L.elements():
                if ztilde[ge][l] != ztilde[gam][l] * ztilde[eta][mp.la(l, gam)]:
                    ok = False
    report["ztilde_cocycle"] = ok
    ok = True
    for l in L.elements():
        for t in L.elements():
            lt = L.mul(l, t)
            for gam in Gamma.elements():
                for eta in Gamma.elements():
                    lhs = sigma.value(lt, gam, eta)
                    rhs = beta.eval(ztilde[gam][t], ztilde[eta][mp.la(l, gam)]) \
                        + sigma.value(l, gam, eta) + sigma.value(t, gam, eta)
                    if lhs != rhs:
                        ok = False
    report["sigma_compatibility"] = ok
    ok = True
    for gam in Gamma.elements():
        for v in L.elements():
            for w in L.elements():
                for m in L.elements():
                    lhs = tau.value(gam, v, w) + tau.value(gam, L.mul(v, w), m)
                    rhs = tau.value(gam, w, m) + tau.value(gam, v, L.mul(w, m))
                    if lhs != rhs:
                        ok = False
    report["tau_pointwise_cocycle"] = ok
    ok = True
    for gam in Gamma.elements():
        for eta in Gamma.elements():
            ge = Gamma.mul(gam, eta)
            for l in L.elements():
                for t in L.elements():
                    if tau.value(ge, l, t) != \
                            tau.value(gam, l, t) + tau.value(eta, mp.la(l, gam), mp.la(t, gam)):
                        ok = False
    report["tau_gamma_cocycle"] = ok
    report["ok"] = all(report.values())
    return report


def oracle_ext_automorphism(aut, mp):
    L, Gamma = mp.L, mp.Gamma
    g, h, f = aut.g, aut.h, aut.ftilde
    if len(f) != Gamma.n or any(len(row) != L.n for row in f):
        return False
    for l in L.elements():
        for gam in Gamma.elements():
            if mp.la(g(l), h(gam)) != g(mp.la(l, gam)):
                return False
            if mp.ra(g(l), h(gam)) != h(mp.ra(l, gam)):
                return False
    ginv = aut.g.inverse()
    for gam in Gamma.elements():
        if not f[gam][L.identity].is_zero():
            return False
    for l in L.elements():
        if not f[Gamma.identity][l].is_zero():
            return False
    for gam in Gamma.elements():
        for eta in Gamma.elements():
            ge = Gamma.mul(gam, eta)
            for l in L.elements():
                if f[ge][l] != f[gam][l] + f[eta][mp.la(l, h(gam))]:
                    return False
    for gam in Gamma.elements():
        for l in L.elements():
            for t in L.elements():
                if f[gam][L.mul(l, t)] != \
                        f[mp.ra(ginv(t), gam)][l] + f[gam][t]:
                    return False
    return True


# ---------------------------------------------------------------------------
# inputs, mutants and the comparison
# ---------------------------------------------------------------------------


def _nested_list(table):
    return [_nested_list(x) if isinstance(x, (list, tuple)) else x for x in table]


def _mutants(table, shift):
    """Every copy of the nested table with one entry x replaced by shift(x)."""
    def paths(t, prefix):
        for i, x in enumerate(t):
            if isinstance(x, (list, tuple)):
                yield from paths(x, prefix + (i,))
            else:
                yield prefix + (i,)

    out = []
    for path in paths(table, ()):
        copy = _nested_list(table)
        target = copy
        for i in path[:-1]:
            target = target[i]
        target[path[-1]] = shift(target[path[-1]])
        out.append(copy)
    return out


def _verdicts(checks, mp, sigma, tau, ztilde, group, beta):
    kac, cocycle_s, cocycle_t, vz, color, split = checks
    z = ZMap.from_cocycle(mp, group, ztilde)
    out = {"kac_condition": kac(mp, sigma, tau),
           "sigma_cocycle": cocycle_s(sigma, mp),
           "tau_cocycle": cocycle_t(tau, mp),
           "validate_z": vz(z),
           "color_compatibility": color(mp, sigma, tau, z, beta)}
    out.update(split(mp, sigma, tau, ztilde, group, beta))
    return out


LIBRARY = (kac_condition, lambda s, mp: s.validate(mp), lambda t, mp: t.validate(mp),
           validate_z, color_compatibility, check_split_color_extension)
ORACLE = (oracle_kac_condition, oracle_sigma_cocycle, oracle_tau_cocycle,
          oracle_validate_z, oracle_color_compatibility, oracle_split)


def _squaring_input():
    mp = cases.squaring_matched_pair()
    G = FinAbGroup.of(2)
    ztilde = [[G.identity()] * mp.L.n for _ in range(mp.Gamma.n)]
    return (mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp), ztilde, G,
            Bicharacter.trivial(G), default_root_bound(mp), False)


def _ring_input(make):
    fam = make()
    mp = fam.mp
    ztilde = [[fam.z.degree(l, g) for l in mp.L.elements()] for g in mp.Gamma.elements()]
    return (mp, fam.sigma, TauCocycle.trivial(mp), ztilde, fam.group, fam.beta,
            fam.group.exponent, True)


INPUTS = {"squaring": _squaring_input,
          "mod3": lambda: _ring_input(cases.mod3_ring_family),
          "mod5": lambda: _ring_input(cases.mod5_ring_family)}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_bicrossed_identities_match_the_oracle(name):
    mp, sigma, tau, ztilde, group, beta, N, mutate_z = INPUTS[name]()
    def step(v):
        return v + Rational01(1, N)

    variants = [(sigma, tau, ztilde)]
    variants += [(SigmaCocycle(m), tau, ztilde) for m in _mutants(sigma.table, step)]
    variants += [(sigma, TauCocycle(m), ztilde) for m in _mutants(tau.table, step)]
    if mutate_z:
        variants += [(sigma, tau, m)
                     for m in _mutants(ztilde, lambda x: x * group.generator(0))]
    seen = {}
    for s, t, zt in variants:
        expected = _verdicts(ORACLE, mp, s, t, zt, group, beta)
        assert _verdicts(LIBRARY, mp, s, t, zt, group, beta) == expected
        for key, verdict in expected.items():
            seen.setdefault(key, set()).add(verdict)
    # the unmutated input passes the identities it was built for, and the
    # mutants make each Kac-type identity fail somewhere
    base = _verdicts(ORACLE, mp, *variants[0], group, beta)
    assert base["color_compatibility"] and base["ok"]
    for key in ("kac_condition", "sigma_cocycle", "tau_cocycle", "color_compatibility",
                "sigma_compatibility", "tau_pointwise_cocycle", "tau_gamma_cocycle"):
        assert False in seen[key], key
    if mutate_z:
        assert seen["validate_z"] == seen["ztilde_cocycle"] == {True, False}


# aut_ext_solve's solution count for the C12 pair over mu_3, summed over
# g = identity and g = l -> l^7 (h = identity)
SOLUTION_COUNT = 6


def test_ext_automorphism_validate_matches_the_oracle():
    """f-tilde verdicts on the solver's solutions for the C12 pair, on the
    displayed automorphisms of ``cases`` (which do not come from the
    solver), and on every single-entry mutant of each."""
    mp = cases.mixed_c12_matched_pair()
    N = 3
    h = GroupAut.identity(mp.Gamma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        solutions = [a for g in (GroupAut.identity(mp.L), GroupAut.by_power(mp.L, 7))
                     for a in aut_ext_solve(mp, g, h, N)]
    valid = solutions + [cases.c12_displayed_automorphism(k) for k in (1, 2)]
    autos = list(valid)
    for a in valid:
        autos += [ExtAutomorphism(a.g, a.h, m)
                  for m in _mutants(a.ftilde, lambda v: v + Rational01(1, N))]
        # the same ftilde over a g that breaks the left-action compatibility
        autos.append(ExtAutomorphism(GroupAut.by_power(mp.L, 5), a.h, a.ftilde))
    verdicts = [oracle_ext_automorphism(a, mp) for a in autos]
    assert [a.validate(mp) for a in autos] == verdicts
    assert all(verdicts[:len(valid)]) and not all(verdicts)
    assert len(solutions) == SOLUTION_COUNT
