"""Seeded job lists for the four benchmark workloads.

A job is one ``chroma.cli.main(argv)`` call on a JSON input file that
``build`` writes into the work directory.  Every job records the outcome
it must produce, known from how its input was built: the exit code (0 for
valid structures, 1 for deliberate single-entry mutants) and the report
fields that must hold.  The same workload and seed give byte-identical
input files, and the program sees only those files.

The job mix of each workload, and the reason for it, is in README.md.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field


@dataclass
class Job:
    id: str                     # stable name, also the key of the committed digest
    argv: list                  # cli arguments without --input / --output
    input: str                  # input file name inside the work directory
    exit: int = 0               # expected exit code
    invariants: dict = field(default_factory=dict)  # report key -> expected value


WORKLOADS = ("orbit", "triangular", "bicrossed", "color")


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of one workload into ``workdir``; return its jobs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    inputs: dict[str, dict] = {}
    jobs = _BUILDERS[workload](rng, inputs)
    os.makedirs(workdir, exist_ok=True)
    for name, data in inputs.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
    return jobs


def _r(num: int, den: int) -> str:
    """A root of unity exp(2 pi i num/den) in the "num/den" input grammar."""
    g = math.gcd(num % den, den)
    return f"{(num % den) // g}/{den // g}"


def _units(n: int) -> list[int]:
    return [k for k in range(1, n) if math.gcd(k, n) == 1] or [0]


# ---------------------------------------------------------------------------
# orbit: rank-4 reference matrix recoloured, the rank-2 C3 family, small
# random data in the style of the involution acceptance criterion
# ---------------------------------------------------------------------------

# The rank-4 reference datum over C2 x C2 (tests/cases.py); its reflection
# orbit has 360 nodes and 1440 edges.  The orbit job runs on it unchanged:
# recoloured with seeded data, the same orbit took 2.4-3.0 s.
RANK4_Q = [["q", "q^-1", "1", "1"],
           ["1", "-1", "-1", "1"],
           ["1", "1", "-1", "-1*q"],
           ["1", "1", "1", "-1*q^-1"]]
RANK4_REFERENCE = {"schema": 1, "q": RANK4_Q, "group": {"orders": [2, 2]},
                   "beta": [["1/2", "1/2"], ["0/1", "1/2"]],
                   "t": [[0, 0], [1, 0], [0, 1], [1, 0]]}
# Group shapes the rank-4 matrix is recoloured over for the other jobs:
# |G| = 144, and four times (4, 4), whose check-double jobs are the 2nd-5th
# slowest of a round and so set the tail.  An orbit at |G| = 144 takes
# 4-6 s, too long for a round (README.md).
RANK4_SHAPES = ((12, 12), (4, 4), (4, 4), (4, 4), (4, 4))
# check-double enumerates |G|^theta retractions: 65536 at |G| = 16 and
# rank 4 is about 0.2 s, while |G| = 144 does not fit in memory.
CHECK_DOUBLE_MAX_RETRACTIONS = 65536
RANK2_VARIANTS = 6
# (shape, rank) of the small random data; the seed picks the entries
SMALL_DATA = (((2,), 2), ((3,), 3), ((4,), 4), ((5,), 2), ((6,), 3),
              ((7,), 4), ((8,), 2), ((2, 2), 3), ((2, 4), 4), ((2, 2, 2), 3))


def _random_beta(rng, orders) -> list[list[str]]:
    """A seeded upper-triangular bicharacter matrix with unit diagonal."""
    n = len(orders)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(_r(rng.choice(_units(orders[i])), orders[i]))
            elif i < j:
                g = math.gcd(orders[i], orders[j])
                row.append(_r(rng.randrange(g), g))
            else:
                row.append("0/1")
        rows.append(row)
    return rows


def _nondegenerate(orders, rows) -> bool:
    from chroma.groups import Bicharacter, FinAbGroup
    G = FinAbGroup(tuple(orders))
    return Bicharacter.from_json(G, rows).is_nondegenerate()


def _datum_jobs(name, theta, order, with_orbit) -> list[Job]:
    inp = f"{name}.json"
    jobs = []
    if with_orbit:
        jobs.append(Job(f"{name}.orbit", ["orbit"], inp,
                        invariants={"consistent": True, "truncated": False}))
    jobs.append(Job(f"{name}.diagram", ["diagram", "--format", "json"], inp))
    jobs.append(Job(f"{name}.check-datum", ["check-datum"], inp))
    if order ** theta <= CHECK_DOUBLE_MAX_RETRACTIONS:
        jobs.append(Job(f"{name}.check-double", ["check-double"], inp))
    return jobs


def _orbit(rng, inputs) -> list[Job]:
    from chroma.datum import ScalarMatrix, datum_from_twisted
    from chroma.groups import Bicharacter, FinAbGroup
    from chroma.scalars import parse_scalar as P

    inputs["rank4_reference.json"] = RANK4_REFERENCE
    jobs = _datum_jobs("rank4_reference", 4, 4, True)
    for v, orders in enumerate(RANK4_SHAPES):
        beta = _random_beta(rng, orders)
        while not _nondegenerate(orders, beta):
            beta = _random_beta(rng, orders)
        t = [[rng.randrange(o) for o in orders] for _ in range(4)]
        name = "rank4_" + "x".join(map(str, orders)) + f"_{v}"
        inputs[f"{name}.json"] = {"schema": 1, "q": RANK4_Q,
                                  "group": {"orders": list(orders)},
                                  "beta": beta, "t": t}
        jobs += _datum_jobs(name, 4, math.prod(orders), False)
    for v in range(RANK2_VARIANTS):
        # twisted matrix [[1, q^-k], [1, q^k]] (or its symmetric variant)
        # with degrees (s^a, s^b), a != 0, so q_00 = beta(s, s)^(a a) != 1
        k = rng.randrange(1, 4)
        symmetric = rng.random() < 0.5
        unit = rng.choice((1, 2))
        a, b = rng.randrange(1, 3), rng.randrange(3)
        G = FinAbGroup((3,))
        beta = Bicharacter.from_json(G, [[_r(unit, 3)]])
        row1 = [f"q^-{k}", f"q^{2 * k}"] if symmetric else ["1", f"q^{k}"]
        qt = ScalarMatrix([[P("1"), P(f"q^-{k}")], [P(s) for s in row1]])
        E = datum_from_twisted(qt, G, beta, (G.element((a,)), G.element((b,))))
        name = f"rank2_c3_{v}"
        inputs[f"{name}.json"] = E.to_json()
        jobs += _datum_jobs(name, 2, 3, True)
    roots = [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3)]
    for v, (orders, theta) in enumerate(SMALL_DATA):
        n = len(orders)
        beta = [[_r(rng.choice(_units(o)), o) if i == j else "0/1"
                 for j in range(n)] for i, o in enumerate(orders)]
        q = []
        for i in range(theta):
            row = []
            for j in range(theta):
                num, den = rng.choice(roots)
                e = rng.randrange(-2, 3)
                row.append(_scalar_text(num, den, e))
            q.append(row)
        for i in range(theta):
            if rng.random() < 0.7:
                q[i][i] = _scalar_text(*rng.choice([(1, 2), (1, 3), (1, 4)]), 0)
            if q[i][i] == "1":
                q[i][i] = "-1"
        t = [[rng.randrange(o) for o in orders] for _ in range(theta)]
        name = f"small_{v}"
        inputs[f"{name}.json"] = {"schema": 1, "q": q,
                                  "group": {"orders": list(orders)},
                                  "beta": beta, "t": t}
        jobs += _datum_jobs(name, theta, math.prod(orders), False)
    return jobs


def _scalar_text(num: int, den: int, e: int) -> str:
    parts = []
    if num % den:
        parts.append("-1" if (num, den) == (1, 2) else f"zeta({den},{num})")
    if e:
        parts.append("q" if e == 1 else f"q^{e}")
    return "*".join(parts) or "1"


# ---------------------------------------------------------------------------
# triangular: seeded commutation factors on invariant-factor groups
# ---------------------------------------------------------------------------

# (shape, |G'|, factors): the cost of a factor is set by the order of the
# reduced group G' = G / radical, so every slot fixes G' and the seed picks
# a factor with that G'.  (2,2,2,2) dominates the exhaustive order-16
# sweep; its 20 factors with |G'| = 16 (about 10 ms each) hold the median.
# The order-64 shapes and (3,3,3,3), (9,9) with |G'| = 64 or 81 are the
# heavy factors (0.15-0.4 s); the five (3,3,3,3) ones set the tail.
TRIANGULAR_MIX = (
    ((2, 2, 2, 2), 16, 20), ((2, 2, 2, 2), 4, 6),
    ((4, 4, 4), 16, 3), ((2, 2, 4, 4), 16, 3), ((8, 8), 16, 2), ((2, 4, 8), 16, 2),
    ((2, 2, 4, 4), 64, 1), ((8, 8), 64, 1),
    ((3, 3, 3, 3), 81, 5), ((3, 3, 3, 3), 9, 2),
    ((9, 9), 81, 1), ((9, 9), 9, 2), ((3, 27), 9, 2),
    ((2, 2, 2), None, 2), ((2, 6), None, 2), ((4, 4), None, 2), ((3, 3), None, 2),
)


def _commutation_factor(rng, orders, dense: bool) -> list[list[str]]:
    """A seeded skew-symmetric bicharacter (diagonal in {0, 1/2}); ``dense``
    keeps every off-diagonal entry nonzero, which evens out the cost of
    factors with the same G'."""
    n = len(orders)
    rows = [["0/1"] * n for _ in range(n)]
    for i in range(n):
        if orders[i] % 2 == 0 and rng.random() < 0.5:
            rows[i][i] = "1/2"
        for j in range(i + 1, n):
            g = math.gcd(orders[i], orders[j])
            k = rng.randrange(1 if dense else 0, g)
            rows[i][j] = _r(k, g)
            rows[j][i] = _r(-k, g)
    return rows


def _reduced_order(orders, rows) -> int:
    """|G'| of the triangular reduction of a commutation factor."""
    from chroma.groups import Bicharacter, FinAbGroup
    from chroma.triangular import drinfeld_u, kappa_bicharacter
    G = FinAbGroup(tuple(orders))
    beta = Bicharacter.from_json(G, rows)
    bk = beta * kappa_bicharacter(drinfeld_u(beta), G)
    return G.order // bk.radical().order


def _triangular(rng, inputs) -> list[Job]:
    jobs = []
    for orders, reduced, count in TRIANGULAR_MIX:
        dense = reduced is not None and reduced >= 64
        for v in range(count):
            rows = _commutation_factor(rng, orders, dense)
            while reduced is not None and _reduced_order(orders, rows) != reduced:
                rows = _commutation_factor(rng, orders, dense)
            name = "tri_" + "x".join(map(str, orders)) + f"_r{reduced}_{v}"
            inputs[f"{name}.json"] = {"schema": 1, "group": {"orders": list(orders)},
                                      "beta": rows}
            jobs.append(Job(name, ["triangular"], f"{name}.json"))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# bicrossed: plain bicrossed products of cyclic matched pairs, conductor 1
# ---------------------------------------------------------------------------

# (p, k): L = C_p, Gamma = C_k acting on L through a seeded unit of order k.
CYCLIC_PAIRS = ((7, 3), (5, 4))


def _cyclic_pair(rng, p, k) -> dict:
    units = [u for u in range(2, p) if pow(u, k, p) == 1]
    u = rng.choice(units)
    lact = [[(l * pow(u, g, p)) % p for g in range(k)] for l in range(p)]
    ract = [list(range(k)) for _ in range(p)]
    return {"L": {"cyclic": p}, "Gamma": {"cyclic": k},
            "lact": lact, "ract": ract}


def _c12_pair() -> dict:
    """L = C12, Gamma = C3 with both actions nontrivial on odd elements."""
    def la(l, g):
        return l if l % 2 == 0 or g == 0 else (l + 4 * g) % 12

    def ra(l, g):
        return 0 if g == 0 else (g if l % 2 == 0 else 3 - g)

    return {"L": {"cyclic": 12}, "Gamma": {"cyclic": 3},
            "lact": [[la(l, g) for g in range(3)] for l in range(12)],
            "ract": [[ra(l, g) for g in range(3)] for l in range(12)]}


def _structure(pair: dict, sigma=None, tau=None):
    """The bicrossed product of ``pair`` with trivial cocycles, or with one
    entry (l, g, h, delta) of sigma or tau mutated."""
    from chroma import extensions as ext
    from chroma.scalars import Rational01
    L = ext.FiniteGroup.from_json(pair["L"])
    Gamma = ext.FiniteGroup.from_json(pair["Gamma"])
    mp = ext.MatchedPair(L, Gamma, pair["lact"], pair["ract"])
    s = ext.SigmaCocycle.trivial(mp)
    t = ext.TauCocycle.trivial(mp)
    if sigma is not None:
        s = s.mutated(*sigma[:3], Rational01.parse(sigma[3]))
    if tau is not None:
        t = t.mutated(*tau[:3], Rational01.parse(tau[3]))
    return ext.build_bicrossed(mp, s, t)


def _mutant_table(shape, pos, delta) -> list:
    """A cocycle table of zeros with ``delta`` at ``pos`` (a single-entry mutant)."""
    a, b, c = shape
    table = [[["0/1"] * c for _ in range(b)] for _ in range(a)]
    table[pos[0]][pos[1]][pos[2]] = delta
    return table


def _bicrossed(rng, inputs) -> list[Job]:
    jobs = []
    pairs = [(f"c{p}c{k}", _cyclic_pair(rng, p, k)) for p, k in CYCLIC_PAIRS]
    pairs.append(("c12c3", _c12_pair()))
    for name, pair in pairs:
        p, k = pair["L"]["cyclic"], pair["Gamma"]["cyclic"]
        inputs[f"{name}.struct.json"] = _structure(pair).to_json()
        jobs.append(Job(f"{name}.verify", ["verify"], f"{name}.struct.json",
                        invariants={"antipode_exists": True}))
        # check-extension repeats the axiom sweep of verify, and aut-ext runs
        # over one (g, h): g = inversion on L, h = identity, as in acceptance
        # criterion 6 (the solution count, and so the certification cost,
        # depends on g).  One pair each keeps a round short (README.md).
        if name == "c7c3":
            inputs[f"{name}.pair.json"] = pair
            jobs.append(Job(f"{name}.check-extension", ["check-extension"],
                            f"{name}.pair.json"))
            inputs[f"{name}.aut.json"] = dict(
                pair, g=[(-x) % p for x in range(p)], h=list(range(k)))
            jobs.append(Job(f"{name}.aut-ext", ["aut-ext"], f"{name}.aut.json"))
    # single-entry sigma / tau mutants on the first pair break an axiom
    name, pair = pairs[0]
    p, k = pair["L"]["cyclic"], pair["Gamma"]["cyclic"]
    spos = (rng.randrange(1, p), rng.randrange(1, k), rng.randrange(1, k))
    tpos = (rng.randrange(1, k), rng.randrange(1, p), rng.randrange(1, p))
    inputs[f"{name}.sigma_mut.json"] = _structure(
        pair, sigma=(*spos, "1/2")).to_json()
    inputs[f"{name}.tau_mut.json"] = _structure(pair, tau=(*tpos, "1/2")).to_json()
    inputs[f"{name}.sigma_mut.pair.json"] = dict(
        pair, sigma=_mutant_table((p, k, k), spos, "1/2"))
    jobs.append(Job(f"{name}.sigma_mut.verify", ["verify"],
                    f"{name}.sigma_mut.json", exit=1,
                    invariants={"antipode_exists": None}))
    jobs.append(Job(f"{name}.tau_mut.verify", ["verify"], f"{name}.tau_mut.json",
                    exit=1, invariants={"antipode_exists": None}))
    jobs.append(Job(f"{name}.sigma_mut.check-extension", ["check-extension"],
                    f"{name}.sigma_mut.pair.json", exit=1))
    return jobs


# ---------------------------------------------------------------------------
# color: finite-ring families (color-mode axioms, conductors 3-7) and plain
# structures lifted to dense cyclotomic fields
# ---------------------------------------------------------------------------

# (p, k, count): R = Z/p, Gamma = C_k acting by a seeded unit of order k;
# the conductor is p.  The six Z/3 families hold the median; the first one
# also gets a tau mutant.
RING_FAMILIES = ((3, 2, 6), (5, 4, 1))
# (N, (p, k)): plain C_p x C_k bicrossed products lifted to Q(zeta_N)
LIFTS = ((12, (5, 4)), (21, (7, 3)))


def _ring(rng, p, k, tau_mutant: bool) -> dict:
    units = [u for u in range(2, p) if pow(u, k, p) == 1 and
             all(pow(u, d, p) != 1 for d in range(1, k))]
    u = rng.choice(units)
    nu = [pow(u, g, p) for g in range(k)]
    psi1 = rng.randrange(1, p)     # psi = 0 would make sigma trivial and cheaper
    psi = [(psi1 * sum(pow(u, i, p) for i in range(g))) % p for g in range(k)]
    c = rng.randrange(1, p)
    data = {"ring": {"orders": [p], "mul": [[(a * b) % p for b in range(p)]
                                             for a in range(p)]},
            "Gamma": {"cyclic": k}, "nu": nu, "psi": psi,
            "phi": [[0] * k for _ in range(k)],
            "eta": ["0/1"] * p, "theta": [_r(c * x, p) for x in range(p)]}
    if tau_mutant:
        pos = (rng.randrange(1, k), rng.randrange(1, p), rng.randrange(1, p))
        data["tau"] = _mutant_table((k, p, p), pos, _r(1, p))
    return data


def _color(rng, inputs) -> list[Job]:
    jobs = []
    agrees = {"agrees_with_split_prediction": True}
    for p, k, count in RING_FAMILIES:
        for v in range(count):
            name = f"ring_z{p}_c{k}_{v}"
            inputs[f"{name}.json"] = _ring(rng, p, k, False)
            jobs.append(Job(f"{name}.check-extension", ["check-extension"],
                            f"{name}.json", invariants=agrees))
            if v == 0 and (p, k, count) == RING_FAMILIES[0]:
                inputs[f"{name}.tau_mut.json"] = _ring(rng, p, k, True)
                jobs.append(Job(f"{name}.tau_mut.check-extension",
                                ["check-extension"], f"{name}.tau_mut.json",
                                exit=1, invariants=agrees))
    for N, (p, k) in LIFTS:
        name = f"c{p}c{k}_lift{N}"
        inputs[f"{name}.json"] = _structure(_cyclic_pair(rng, p, k)).lifted(N).to_json()
        jobs.append(Job(f"{name}.verify", ["verify"], f"{name}.json",
                        invariants={"antipode_exists": True}))
    return jobs


_BUILDERS = {"orbit": _orbit, "triangular": _triangular,
             "bicrossed": _bicrossed, "color": _color}
