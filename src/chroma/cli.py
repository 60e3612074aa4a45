"""Command-line front end.

Subcommands read JSON inputs, dispatch to the library, and emit
byte-deterministic JSON (or DOT / glyph-text for diagrams).  Exit codes:
0 when every check passed, 1 when some check failed (the report is still
written), 2 on malformed input, 3 when an internal self-check failed.

A process loads only the library its subcommand runs.  The top-level
imports are ``dynkin`` and ``weyl``, which the package ``__init__`` loads
anyway, and the ``datum``, ``groups`` and ``scalars`` they rest on; so
``orbit``, ``diagram`` and ``check-datum`` load nothing more.  Each
handler that needs more imports it locally, on its first call:
``check-double`` loads ``doubles``, ``triangular`` loads ``triangular``,
``verify`` loads ``hopfcheck``, and ``check-extension`` and ``aut-ext``
load ``extensions`` (which imports ``hopfcheck``).  Handlers call the
library through module attributes (``hopfcheck.check_axioms(...)``, never
a name bound at import), so a function replaced on its module, by a
profiler's wrapper or a test's monkeypatch, is the one that runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import defaultdict
from functools import cache, partial
from typing import TYPE_CHECKING

from . import dynkin, weyl
from .datum import Datum
from .groups import Bicharacter, FinAbGroup
from .scalars import Rational01

if TYPE_CHECKING:  # for the annotations only; the handlers import it on first use
    from . import extensions


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _load_datum(path: str) -> Datum:
    return Datum.from_json(_load(path))


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the loaded input and the parsed arguments
# and returns (report, exit code); a dict report is emitted as JSON, with
# the schema and command added by ``main``
# ---------------------------------------------------------------------------


def _cmd_orbit(E: Datum, args):
    orbit = weyl.weyl_orbit(E, max_nodes=args.max_nodes)
    consistent = weyl.check_consistent_coloring(orbit)
    return {
        "nodes": [node.to_json() for node in orbit.nodes],
        "edges": [list(e) for e in orbit.edges],
        "truncated": orbit.truncated,
        "consistent": consistent,
    }, 0 if consistent else 1


def _cmd_diagram(E: Datum, args):
    gen = dynkin.generalized_diagram(E.q)
    col = dynkin.colored_diagram(E)
    if args.format == "json":
        return {"generalized": dynkin.diagram_to_json(gen),
                "colored": dynkin.diagram_to_json(col)}, 0
    if args.format == "dot":
        return dynkin.emit_dot(gen) + dynkin.emit_dot(col), 0
    return ("generalized: " + dynkin.emit_text(gen)
            + "colored:\n" + dynkin.emit_text(col, E.group)), 0


def _cmd_check_datum(E: Datum, args):
    return {
        "theta": E.theta,
        "beta_nondegenerate": True,  # construction would have failed otherwise
        "q": E.q.to_json(),
        "q_twisted": E.qt.to_json(),
        "xi": [list(x.residues) for x in E.xi],
        "reflectable_vertices": weyl.reflectable_vertices(E),
    }, 0


def _cmd_check_double(E: Datum, args):
    from . import doubles
    total, colored = doubles.color_retraction_count(E)
    return {
        "presentation_digest": doubles.presentation_digest(E),
        "retractions": total,
        "color_retractions": colored,
        "single_copy": doubles.single_copy_color_check(E),
    }, 0


def _cmd_triangular(data: dict, args):
    from . import triangular
    group = FinAbGroup.from_json(data["group"])
    beta = Bicharacter.from_json(group, data["beta"])
    return triangular.emit_triangular(triangular.reduce_commutation_factor(beta)), 0


def _cmd_verify(data: dict, args):
    from . import hopfcheck
    H = hopfcheck.StructBialgebra.from_json(data)
    mode = data.get("mode", "plain")
    report = hopfcheck.check_axioms(H, mode)
    out = {"mode": mode, "axioms": {k: v for k, v in report.items() if k != "all_ok"}}
    ok = report["all_ok"]
    if ok:
        S = hopfcheck.solve_antipode(H, mode)
        out["antipode_exists"] = ok = S is not None
    return out, 0 if ok else 1


def _parse_matched_pair(data: dict) -> extensions.MatchedPair:
    from . import extensions
    L = extensions.FiniteGroup.from_json(data["L"])
    Gamma = extensions.FiniteGroup.from_json(data["Gamma"])
    return extensions.MatchedPair(L, Gamma, data["lact"], data["ract"])


def _parse_cocycle(kind, outer, inner, data, key):
    """``data[key]`` as a table of roots of unity indexed by the elements of
    the ``outer``, ``inner`` and ``inner`` groups, or the trivial cocycle."""
    if key not in data:
        return kind._zeros(outer, inner)
    a, b = outer.n, inner.n
    table = data[key]
    if not (isinstance(table, list) and len(table) == a and all(
            isinstance(plane, list) and len(plane) == b
            and all(isinstance(row, list) and len(row) == b for row in plane)
            for plane in table)):
        raise ValueError(f"{key} must be an array of shape {a} x {b} x {b}")
    return kind([[[Rational01.parse(v) for v in row] for row in plane]
                 for plane in table])


def _cmd_check_extension(data: dict, args):
    from . import extensions, hopfcheck
    if "ring" in data:
        return _check_ring_extension(data)
    for key, needed in (("beta", ["group"]), ("z", ["group"]), ("action", ["group", "beta"])):
        missing = [k for k in needed if k not in data]
        if key in data and missing:
            raise ValueError(f"{key} needs {' and '.join(missing)}")
    mp = _parse_matched_pair(data)
    sigma = _parse_cocycle(extensions.SigmaCocycle, mp.L, mp.Gamma, data, "sigma")
    tau = _parse_cocycle(extensions.TauCocycle, mp.Gamma, mp.L, data, "tau")
    checks = {
        "matched_pair": extensions.validate_matched_pair(mp),
        "sigma_cocycle": sigma.validate(mp),
        "tau_cocycle": tau.validate(mp),
        "kac_condition": extensions.kac_condition(mp, sigma, tau),
    }
    report = {"dim": mp.L.n * mp.Gamma.n, "checks": checks}
    group = beta = z = None
    if "group" in data:
        group = FinAbGroup.from_json(data["group"])
        if "beta" in data:
            beta = Bicharacter.from_json(group, data["beta"])
    if "z" in data:
        z = extensions.ZMap(mp, group, [group.elements_from_json(row, "each z row")
                                        for row in hopfcheck._array(data["z"], None, "z")])
        checks["z_map"] = extensions.validate_z(z)
        if beta is not None:
            checks["color_compatibility"] = extensions.color_compatibility(
                mp, sigma, tau, z, beta)
    H = extensions.build_bicrossed(mp, sigma, tau, z=z, group=group, beta=beta)
    checks["hopf_axioms"] = hopfcheck.check_axioms(H, "plain")["all_ok"]
    if "action" in data:
        dual = FinAbGroup(group.orders)
        entries = data["action"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError('action must be an array of {"element", "matrix"} objects')
        elements = dual.elements_from_json([e["element"] for e in entries], "action elements")
        action = {a: hopfcheck.MonomialMatrix.from_json(e["matrix"])
                  for a, e in zip(elements, entries)}
        sup = extensions.support(H, action, group)
        report["support"] = [list(g.residues) for g in sorted(
            sup, key=lambda e: e.residues)]
        report["is_color"] = beta.is_trivial_on(sup)
    return report, 0 if all(checks.values()) else 1


def _check_ring_extension(data: dict):
    """Build sigma/beta/z from finite-ring data and verify colorability."""
    from . import extensions, hopfcheck
    if stray := [k for k in ("L", "lact", "ract", "sigma", "group", "beta", "z", "action")
                 if k in data]:
        raise ValueError(f"a ring input takes no matched-pair key: {', '.join(stray)}")
    R = extensions.FiniteRing.from_json(data["ring"])
    Gamma = extensions.FiniteGroup.from_json(data["Gamma"])
    tau = _parse_cocycle(extensions.TauCocycle, Gamma, R.additive, data, "tau")
    fam = extensions.ring_family(R, Gamma, data["nu"], data["psi"], data["phi"],
                                 _roots(data, "eta"), _roots(data, "theta"), tau)
    H = extensions.build_bicrossed(fam.mp, fam.sigma, tau, z=fam.z,
                                   group=fam.group, beta=fam.beta)
    axioms = hopfcheck.check_axioms(H, "color")
    checks = {k: v for k, v in fam.split.items() if k != "ok"}
    checks["color_axioms"] = axioms["all_ok"]
    return {
        "dim": H.dim,
        "beta": fam.beta.to_json(),
        "checks": checks,
        "agrees_with_split_prediction": fam.split["ok"] == axioms["all_ok"],
    }, 0 if all(checks.values()) else 1


def _roots(data: dict, key: str) -> list:
    """``data[key]`` as a list of roots of unity."""
    values = data[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} must be an array of roots")
    return [Rational01.parse(v) for v in values]


def _automorphism(group: extensions.FiniteGroup, images, key: str) -> extensions.GroupAut:
    """``images`` checked as an array of group.n int indices, then validated."""
    from . import extensions
    n = group.n
    (row,) = extensions._index_table([images], f"{key} must be an array of {n} "
                                     f"indices below {n}", n, (1, n))
    return extensions.GroupAut(group, row)


def _cmd_aut_ext(data: dict, args):
    from . import extensions
    mp = _parse_matched_pair(data)
    N = extensions.default_root_bound(mp) if args.root_bound is None else args.root_bound
    if args.enumerate_aut:
        pairs = [(g, h) for g in extensions.all_automorphisms(mp.L)
                 for h in extensions.all_automorphisms(mp.Gamma)]
    else:
        pairs = [(_automorphism(mp.L, data["g"], "g"),
                  _automorphism(mp.Gamma, data["h"], "h"))]
    results = [{"g": list(aut.g.images), "h": list(aut.h.images),
                "ftilde": [[str(v) for v in row] for row in aut.ftilde]}
               for g, h in pairs for aut in extensions.aut_ext_solve(mp, g, h, N)]
    return {"root_bound": N, "solutions": results}, 0


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


_PADS = tuple("\n" + "  " * depth for depth in range(64))  # newline, indent of a depth
_TABLE_ROWS = 16


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    A compatibility shim, deleted once Python 3.12 leaves the CI matrix:
    before 3.13, ``json.dumps`` runs its pure-Python encoder whenever
    ``indent`` is set.  This one handles str-keyed dicts, lists, tuples,
    str, exact ints, bools and None, nested under 64 deep; anything else
    hands the whole object to ``json.dumps``.  A list of exact ints is
    rendered by one join; a list's loop writes a str item itself.

    A table (``_TABLE_ROWS`` or more equal-length rows, each column only
    str, only exact ints or only nonempty exact-int lists) is rendered by
    columns from C-level maps: one quote per distinct str, one join per
    int list object within its depth (``id`` keys, one memo per depth), and
    the separators put in by slice assignment.  Anything else takes the
    loop, which is faster on small tables (2x on 4 x 4 str).
    """
    chunks, memos = [], defaultdict(dict)  # depth -> {id of an int list: its text}
    put, quote = chunks.append, json.encoder.encode_basestring_ascii

    def int_list(o, depth):
        text = ("," + _PADS[depth + 1]).join(map(repr, o))
        return f"[{_PADS[depth + 1]}{text}{_PADS[depth]}]"

    def column(cells, depth):
        """The texts of one table column at ``depth``, or None."""
        kinds = set(map(type, cells))
        if kinds == {str}:
            return list(map({v: quote(v) for v in set(cells)}.__getitem__, cells))
        if kinds == {int}:
            return list(map(repr, cells))
        if not kinds <= {list, tuple}:
            return None
        memo, ids = memos[depth], list(map(id, cells))
        for key, cell in dict(zip(ids, cells)).items():
            if key not in memo:
                if not cell or set(map(type, cell)) != {int}:
                    return None
                memo[key] = int_list(cell, depth)
        return list(map(memo.__getitem__, ids))

    def table(rows, depth):
        """Emit ``rows`` as a table at ``depth``; False when it is not one."""
        width = 2 * len(rows[0])
        if (not width or not set(map(type, rows)) <= {list, tuple}
                or set(map(len, rows)) != {width // 2}):
            return False
        texts = [column(cells, depth + 2) for cells in zip(*rows)]
        if None in texts:
            return False
        pad, inner = _PADS[depth + 1], _PADS[depth + 2]
        pieces = ["," + inner] * (width * len(rows))
        pieces[::width] = [pad + "]," + pad + "[" + inner] * len(rows)
        pieces[0] = "[" + pad + "[" + inner
        for k, col in enumerate(texts):
            pieces[2 * k + 1::width] = col
        chunks.extend(pieces)
        put(pad + "]" + _PADS[depth] + "]")
        return True

    def emit(o, depth):
        kind = type(o)
        if kind is str:
            put(quote(o))
        elif kind is int:
            put(repr(o))
        elif o is None or kind is bool:
            put("null" if o is None else "true" if o else "false")
        elif not o and kind in (dict, list, tuple):
            put("{}" if kind is dict else "[]")
        elif kind in (list, tuple) and type(o[0]) is int and all(type(v) is int for v in o):
            put(int_list(o, depth))
        elif (kind in (list, tuple) and len(o) >= _TABLE_ROWS and type(o[0]) in (list, tuple)
              and table(o, depth)):
            pass
        elif kind in (list, tuple):
            sep, comma = "[" + _PADS[depth + 1], "," + _PADS[depth + 1]
            for v in o:
                put(sep)
                if type(v) is str:
                    put(quote(v))
                else:
                    emit(v, depth + 1)
                sep = comma
            put(_PADS[depth] + "]")
        elif kind is dict:
            pad, sep = _PADS[depth + 1], "{"
            for k in sorted(o):
                if type(k) is not str:
                    raise TypeError("non-str key")
                put(sep + pad + quote(k) + ": ")
                emit(o[k], depth + 1)
                sep = ","
            put(_PADS[depth] + "}")
        else:
            raise TypeError(f"{kind.__name__} value")

    try:
        emit(obj, 0)
    except (TypeError, IndexError):
        return json.dumps(obj, sort_keys=True, indent=2)
    return "".join(chunks)


# From 3.13 on, the C encoder handles ``indent`` and is faster than the shim.
if sys.version_info >= (3, 13):
    _emit = partial(json.dumps, sort_keys=True, indent=2)
else:
    _emit = _dumps


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chroma",
        description="Exact computations with colored braiding data and "
                    "color Hopf algebra verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="input JSON path")
        p.add_argument("--output", help="output path (default: stdout)")
        p.set_defaults(load=_load)

    p = sub.add_parser("orbit", help="reflection orbit of a datum")
    common(p)
    p.add_argument("--max-nodes", type=int, default=1024)
    p.set_defaults(func=_cmd_orbit, load=_load_datum)

    p = sub.add_parser("diagram", help="generalized and colored diagrams")
    common(p)
    p.add_argument("--format", choices=("json", "dot", "text"), default="text")
    p.set_defaults(func=_cmd_diagram, load=_load_datum)

    p = sub.add_parser("check-datum", help="validate a datum and derive its data")
    common(p)
    p.set_defaults(func=_cmd_check_datum, load=_load_datum)

    p = sub.add_parser("check-double", help="double presentation and color predicates")
    common(p)
    p.set_defaults(func=_cmd_check_double, load=_load_datum)

    p = sub.add_parser("triangular", help="reduce a commutation factor")
    common(p)
    p.set_defaults(func=_cmd_triangular)

    p = sub.add_parser("verify", help="verify structure-constant axioms")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("check-extension", help="matched pair / bicrossed checks")
    common(p)
    p.set_defaults(func=_cmd_check_extension)

    p = sub.add_parser("aut-ext", help="solve for extension automorphisms")
    common(p)
    p.add_argument("--root-bound", type=int)
    p.add_argument("--enumerate-aut", action="store_true")
    p.set_defaults(func=_cmd_aut_ext)
    return parser


# the parser of every ``main`` call in the process, built by the first one
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)  # a fresh Namespace on every call
    # a library warning (say, aut-ext's BoundTooSmall) that the process's
    # filters let through is one stderr line per distinct message, and
    # changes neither report nor exit code
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _run(args)
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                sys.stderr.write(f"warning: {message}\n")


def _run(args) -> int:
    try:
        report, code = args.func(args.load(args.input), args)
        if isinstance(report, dict):
            report = _emit({"schema": 1, "command": args.command, **report}) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        else:
            sys.stdout.write(report)
        return code
    except (KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AssertionError as exc:
        detail = " ".join(str(exc).split()) or "failed self-check"
        sys.stderr.write(f"internal error: {detail}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
