import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import cases
from chroma import cli, extensions
from chroma.cli import main
from chroma.datum import Datum, DimensionMismatch
from chroma.hopfcheck import StructBialgebra, check_axioms
from chroma.extensions import FiniteGroup, SigmaCocycle, TauCocycle, build_bicrossed
from chroma.scalars import Rational01


@pytest.fixture
def rank2_file(tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(cases.rank2_c3_datum().to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_diagram_text(rank2_file, capsys):
    code, out = run(capsys, "diagram", "--input", rank2_file, "--format", "text")
    assert code == 0
    assert "○^zeta(3,1) —q^-1— ○^q" in out
    assert "●^1 —q^-1— ○^q" in out


# Diagrams that are not simple paths print vertex and edge listings; a
# group of order > 4 prints degree tuples instead of glyphs.
_TRIANGLE_Q = [["-1", "q", "1"], ["1", "-1", "r^-1"], ["zeta(3,1)", "1", "q^2"]]


@pytest.mark.parametrize("datum, text", [
    ({"q": [["q", "1", "1"], ["1", "-1", "1"], ["1", "1", "zeta(3,1)"]],
      "group": {"orders": [3]}, "beta": [["1/3"]], "t": [[1], [0], [2]]},
     "generalized: vertices: 1:○^q 2:○^-1 3:○^zeta(3,1)\n"
     "edges: (none)\n"
     "colored:\n"
     "legend: ○=(0) ●=(1) ⊗=(2)\n"
     "vertices: 1:●^zeta(3,2)*q 2:○^-1 3:⊗^1\n"
     "edges: 1-3:zeta(3,2)\n"),
    ({"q": _TRIANGLE_Q, "group": {"orders": [3]}, "beta": [["1/3"]],
      "t": [[0], [1], [2]]},
     "generalized: vertices: 1:○^-1 2:○^-1 3:○^q^2\n"
     "edges: 1-2:q 1-3:zeta(3,1) 2-3:r^-1\n"
     "colored:\n"
     "legend: ○=(0) ●=(1) ⊗=(2)\n"
     "vertices: 1:○^-1 2:●^zeta(6,1) 3:⊗^zeta(3,2)*q^2\n"
     "edges: 1-2:q 1-3:zeta(3,1) 2-3:zeta(3,2)*r^-1\n"),
    ({"q": _TRIANGLE_Q, "group": {"orders": [5]}, "beta": [["1/5"]],
      "t": [[0], [1], [2]]},
     "generalized: vertices: 1:○^-1 2:○^-1 3:○^q^2\n"
     "edges: 1-2:q 1-3:zeta(3,1) 2-3:r^-1\n"
     "colored:\n"
     "vertices: 1:[0]^-1 2:[1]^zeta(10,3) 3:[2]^zeta(5,1)*q^2\n"
     "edges: 1-2:q 1-3:zeta(3,1) 2-3:zeta(5,1)*r^-1\n"),
], ids=["edgeless", "triangle-c3", "triangle-c5"])
def test_diagram_text_listing_pinned(datum, text, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    out = tmp_path / "diagram.txt"
    assert main(["diagram", "--input", str(path), "--format", "text",
                 "--output", str(out)]) == 0
    assert out.read_bytes() == text.encode()


def test_diagram_json_round_trip(rank2_file, capsys):
    code, out = run(capsys, "diagram", "--input", rank2_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generalized"]["vertices"][0]["label"] == "zeta(3,1)"
    from chroma.dynkin import diagram_from_json, generalized_diagram
    E = cases.rank2_c3_datum()
    assert diagram_from_json(data["generalized"]) == generalized_diagram(E.q)


def test_orbit_deterministic_bytes(rank2_file, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["orbit", "--input", rank2_file, "--output", str(out1)]) == 0
    assert main(["orbit", "--input", rank2_file, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["truncated"] is False
    assert report["consistent"] is True
    # emitted nodes re-parse to equal data
    nodes = [Datum.from_json(n) for n in report["nodes"]]
    assert nodes[0] == cases.rank2_c3_datum()


def test_orbit_repeat_runs_byte_identical(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(cases.rank4_klein_datum().to_json()))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["orbit", "--input", str(path), "--max-nodes", "40",
                     "--output", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert json.loads(outs[0].read_text())["truncated"] is True


def test_check_datum(rank2_file, capsys):
    code, out = run(capsys, "check-datum", "--input", rank2_file)
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == 2
    assert data["reflectable_vertices"] == [0, 1]


def test_check_double(rank2_file, capsys):
    code, out = run(capsys, "check-double", "--input", rank2_file)
    assert code == 0
    data = json.loads(out)
    assert data["retractions"] == 9
    assert data["color_retractions"] == 1
    assert data["single_copy"]["symmetric"] is False


def test_triangular_command(tmp_path, capsys):
    path = tmp_path / "beta.json"
    path.write_text(json.dumps({
        "group": {"orders": [2, 2]},
        "beta": [["0/1", "1/2"], ["1/2", "0/1"]],
    }))
    code, out = run(capsys, "triangular", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["G_prime"] == {"orders": [2, 2]}
    assert len(data["K"]) == 4


def test_verify_command(tmp_path, capsys):
    mp = cases.squaring_matched_pair()
    H = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(H.to_json()))
    code, out = run(capsys, "verify", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["axioms"]["associativity"]["ok"] is True
    assert data["antipode_exists"] is True


def test_verify_reports_failure_with_exit_1(tmp_path, capsys):
    mp = cases.squaring_matched_pair()
    sigma = SigmaCocycle.trivial(mp).mutated(1, 1, 1, cases.RH)
    H = build_bicrossed(mp, sigma, TauCocycle.trivial(mp))
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(H.to_json()))
    code, out = run(capsys, "verify", "--input", str(path))
    assert code == 1
    data = json.loads(out)
    assert any(not v["ok"] for v in data["axioms"].values())


def test_check_extension_command(tmp_path, capsys):
    mp = cases.squaring_matched_pair()
    payload = {
        "L": {"cyclic": 7},
        "Gamma": {"cyclic": 3},
        "lact": [list(r) for r in mp.lact],
        "ract": [list(r) for r in mp.ract],
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "check-extension", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["matched_pair"] is True
    assert data["checks"]["kac_condition"] is True
    assert data["checks"]["hopf_axioms"] is True


def test_check_extension_reports_an_invalid_matched_pair(tmp_path, capsys):
    """C2 acting on C4 by swapping 2 and 3 is a left action by bijections,
    but not by automorphisms: the report says so and the job exits 1."""
    nl, ng, lact, ract = cases.BROKEN_MATCHED_PAIRS["ract-on-products"]
    payload = {"L": {"cyclic": nl}, "Gamma": {"cyclic": ng}, "lact": lact, "ract": ract}
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "check-extension", "--input", str(path))
    assert code == 1
    assert json.loads(out)["checks"]["matched_pair"] is False


def test_check_extension_with_action(tmp_path, capsys):
    mp, G, beta, action, _ = cases.c12_extension_color_case()
    dual_elems = sorted(action, key=lambda a: a.residues)
    payload = {
        "L": {"cyclic": 12},
        "Gamma": {"cyclic": 3},
        "lact": [list(r) for r in mp.lact],
        "ract": [list(r) for r in mp.ract],
        "group": G.to_json(),
        "beta": beta.to_json(),
        "action": [{"element": list(a.residues),
                    "matrix": action[a].to_json()} for a in dual_elems],
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "check-extension", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["support"] == [[0, 0], [1, 1]]
    assert data["is_color"] is True


def squaring_aut_file(tmp_path) -> str:
    """The (C7, C3) squaring pair with g = inversion and h = identity."""
    mp = cases.squaring_matched_pair()
    payload = {
        "L": {"cyclic": 7},
        "Gamma": {"cyclic": 3},
        "lact": [list(r) for r in mp.lact],
        "ract": [list(r) for r in mp.ract],
        "g": [(-l) % 7 for l in range(7)],
        "h": list(range(3)),
    }
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_aut_ext_command(tmp_path, capsys):
    code, out = run(capsys, "aut-ext", "--input", squaring_aut_file(tmp_path),
                    "--root-bound", "7")
    assert code == 0
    data = json.loads(out)
    assert len(data["solutions"]) == 7


# sha256 of the reports at root bound 3, recorded while the warning still
# went out through Python's own two-line format
BOUND_3_REPORT_DIGESTS = {
    (): "8dcbe1d3bf1c83326259d2ac6d4cdc76e37f152ea0deb832c6683b1efbd3b9b8",
    ("--enumerate-aut",): "b8a8ffe653aa2b4c8e28aebf5e3145a1779162abfcfef1f82cebc07eb5986c02",
}


@pytest.mark.parametrize("extra", sorted(BOUND_3_REPORT_DIGESTS), ids=["one-pair", "enumerate"])
def test_aut_ext_bound_warning_is_one_stderr_line(extra, tmp_path, capsys):
    """mu_3 misses mu_7: one ``warning:`` line, however many (g, h) pairs
    warn, with no source path, the exit code 0 and the report unchanged."""
    code = main(["aut-ext", "--input", squaring_aut_file(tmp_path), "--root-bound", "3",
                 *extra])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ("warning: root bound 3 does not contain mu_7; the returned "
                            "set may be incomplete\n")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == BOUND_3_REPORT_DIGESTS[extra]


@pytest.mark.parametrize("L, message", [
    ({"cyclic": "x"}, "cyclic group order 'x' is not an integer"),
    ([1, 2], "group must be a JSON object"),
    ({"cyclic": 0}, "cyclic group order 0 must be >= 1"),
    ({"cyclic": -3}, "cyclic group order -3 must be >= 1"),
    ({"cyclic": True}, "cyclic group order True is not an integer"),
    ({"cyclic": 2.5}, "cyclic group order 2.5 is not an integer"),
    ({"table": [[0, 1, 2], [1, 5, 0], [2, 0, 1]]},
     "group table must be a list of rows of element indices"),
], ids=["string", "list", "zero", "negative", "bool", "float", "out_of_range"])
def test_aut_ext_malformed_group_exits_2(L, message, tmp_path, capsys):
    payload = {"L": L, "Gamma": {"cyclic": 2},
               "lact": [[0, 0], [1, 1]], "ract": [[0, 1], [0, 1]]}
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(payload))
    code = main(["aut-ext", "--input", str(path), "--root-bound", "2",
                 "--enumerate-aut"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_aut_ext_enumeration_past_the_limit_exits_2_at_once(tmp_path, capsys):
    """C11 is past ``AUT_ENUM_LIMIT``: rejected before any of its 11! image
    tables is tried (trying them all takes about 20 s)."""
    payload = {"L": {"cyclic": 11}, "Gamma": {"cyclic": 1},
               "lact": [[l] for l in range(11)], "ract": [[0]] * 11}
    start = time.perf_counter()
    code, captured = _run_malformed("aut-ext", payload, tmp_path, capsys, "--enumerate-aut")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert captured.err == "error: automorphism enumeration is limited to order 10\n"


@pytest.mark.parametrize("command", ["aut-ext", "check-extension"])
@pytest.mark.parametrize("key, table", [
    ("lact", [[0, 0], [1, 9]]),
    ("lact", [[0, "a"], [1, 1]]),
    ("lact", [[0, 0], [1, True]]),
    ("lact", 5),
    ("lact", [0, 1]),
    ("ract", [[0, 1], [0, 9]]),
    ("ract", [[0, "a"], [0, 1]]),
    ("ract", [[0, 1], [False, 1]]),
    ("ract", 5),
    ("ract", [0, 1]),
], ids=["lact-out-of-range", "lact-string", "lact-bool", "lact-int", "lact-flat",
        "ract-out-of-range", "ract-string", "ract-bool", "ract-int", "ract-flat"])
def test_malformed_action_table_exits_2(command, key, table, tmp_path, capsys):
    payload = {"L": {"cyclic": 2}, "Gamma": {"cyclic": 2},
               "lact": [[0, 0], [1, 1]], "ract": [[0, 1], [0, 1]], key: table}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    extra = ["--root-bound", "2", "--enumerate-aut"] if command == "aut-ext" else []
    code = main([command, "--input", str(path), *extra])
    captured = capsys.readouterr()
    group = "L" if key == "lact" else "Gamma"
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {key} must be an array of arrays of {group} "
                            "indices below 2\n")


def test_aut_ext_enumerate_flag(tmp_path, capsys):
    payload = {
        "L": {"cyclic": 2},
        "Gamma": {"cyclic": 2},
        "lact": [[0, 0], [1, 1]],
        "ract": [[0, 1], [0, 1]],
    }
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "aut-ext", "--input", str(path),
                    "--root-bound", "2", "--enumerate-aut")
    assert code == 0
    data = json.loads(out)
    # only the identity pair on C2 x C2; ftilde in Hom(C2, Hom(C2, mu_2))
    assert len(data["solutions"]) == 2


def test_check_extension_ring_input(tmp_path, capsys):
    payload = {
        "ring": {"orders": [3], "mul": [[(a * b) % 3 for b in range(3)]
                                        for a in range(3)]},
        "Gamma": {"cyclic": 2},
        "nu": [1, 2],
        "psi": [0, 1],
        "phi": [[0, 0], [0, 0]],
        "eta": ["0/1", "0/1", "0/1"],
        "theta": ["0/1", "2/3", "1/3"],
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(payload))
    code, out = run(capsys, "check-extension", "--input", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["color_axioms"] is True
    assert data["agrees_with_split_prediction"] is True
    assert data["beta"] == [["1/3"]]


def test_bad_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, "diagram", "--input", str(path))
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _ = run(capsys, "diagram", "--input", str(missing))
    assert code == 2
    path2 = tmp_path / "badscalar.json"
    payload = cases.rank2_c3_datum().to_json()
    payload["q"][0][0] = "not a scalar!"
    path2.write_text(json.dumps(payload))
    code, _ = run(capsys, "diagram", "--input", str(path2))
    assert code == 2


def _set(path, value):
    def mutate(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(payload) if callable(value) else value
        return payload
    return mutate


def _c2_group_algebra(mult00=None, comult0=None, unit=None) -> dict:
    """The group algebra of C2 at conductor 2, with entries replaced."""
    F = FiniteGroup.cyclic(2)
    payload = StructBialgebra.group_algebra(F.table, F.identity, conductor=2).to_json()
    if mult00 is not None:
        payload["mult"][0][0] = mult00
    if comult0 is not None:
        payload["comult"][0] = comult0
    if unit is not None:
        payload["unit"] = unit
    return payload


@pytest.mark.parametrize("mutate", [
    _set(("counit", 0), ["1/0"]),
    _set(("counit", 0), "1/0"),
    _set(("counit", 0), [1.5]),
    _set(("mult", 0, 0, 0, 0), lambda p: p["dim"]),
    _set(("dim",), lambda p: p["dim"] + 1),
    _set(("conductor",), "3"),
    lambda payload: [payload],
    lambda payload: _c2_group_algebra(mult00=[[0, ["1"]], [1, ["1"]], [1, ["-1"]]]),
    lambda payload: _c2_group_algebra(comult0=[[0, 0, ["1"]], [0, 0, ["0"]]]),
    lambda payload: _c2_group_algebra(unit=[[0, ["1"]], [0, ["1"]]]),
], ids=["zero-denominator", "zero-denominator-root", "float-coefficient",
        "index-out-of-range", "dim-exceeds-tables", "string-conductor",
        "not-an-object", "mult-cell-repeats-index", "comult-entry-repeats-pair",
        "unit-repeats-index"])
def test_verify_malformed_structure_exit_2(mutate, tmp_path, capsys):
    mp = cases.squaring_matched_pair()
    payload = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)).to_json()
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(mutate(payload)))
    code = main(["verify", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("vector, message", [
    ([1.5], 'coefficient 1.5 is not a "p/q" string'),
    (["1", [1]], 'coefficient [1] is not a "p/q" string'),
    (["0", {"p": 1}], "coefficient {'p': 1} is not a \"p/q\" string"),
    (["1/0"], "zero denominator in coefficient '1/0'"),
    (["0", "+1"], "coefficient '+1' is not a \"p/q\" string"),
], ids=["float", "nested-list", "nested-object", "zero-denominator", "plus-sign"])
def test_verify_repeated_malformed_coefficient_exit_2(vector, message, tmp_path, capsys):
    """A malformed vector in every coefficient (mult, comult, unit, counit)
    gives the one message of its first occurrence, whether its items can
    be hashed or not."""
    payload = _c2_group_algebra()
    for row in payload["mult"]:
        for cell in row:
            for term in cell:
                term[1] = vector
    for entry in payload["comult"]:
        for term in entry:
            term[2] = vector
    for term in payload["unit"]:
        term[1] = vector
    payload["counit"] = [vector] * payload["dim"]
    code, captured = _run_malformed("verify", payload, tmp_path, capsys)
    assert code == 2
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cell", [{}, "", None, 0], ids=["object", "string", "null", "zero"])
def test_verify_non_array_mult_cell_exit_2(cell, tmp_path, capsys):
    """An empty mult cell is parsed with no per-cell call, but a falsy cell
    that is no array still gets the message of any non-array cell, in the
    place of a nonempty cell and of an empty one."""
    mp = cases.squaring_matched_pair()
    payload = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)).to_json()
    assert payload["mult"][0][0] and payload["mult"][0][3] == []
    for i, j in ((0, 0), (0, 3)):
        mutated = json.loads(json.dumps(payload))
        mutated["mult"][i][j] = cell
        code, captured = _run_malformed("verify", mutated, tmp_path, capsys)
        assert code == 2
        assert captured.err == "error: mult cell must be an array\n"


@pytest.mark.parametrize("value", [{}, 5], ids=["object", "int"])
def test_verify_non_array_container_named_as_itself_exit_2(value, tmp_path, capsys):
    """A comult entry or the unit that is no array is named as itself, like
    a mult cell; a term in a cell, an entry or the unit that is no array
    keeps the term's name."""
    for payload, message in (
            (_c2_group_algebra(comult0=value), "comult entry must be an array"),
            (_c2_group_algebra(unit=value), "unit must be an array"),
            (_c2_group_algebra(mult00=[value]), "mult term must be an array of length 2"),
            (_c2_group_algebra(comult0=[value]), "comult term must be an array of length 3"),
            (_c2_group_algebra(unit=[value]), "unit term must be an array of length 2")):
        code, captured = _run_malformed("verify", payload, tmp_path, capsys)
        assert (code, captured.err) == (2, f"error: {message}\n")


def test_rank_zero_datum_exits_2_when_parsed(tmp_path, capsys):
    """An empty q is rejected by Datum.from_json with its own message, before
    any orbit code runs."""
    payload = dict(cases.rank2_c3_datum().to_json(), q=[], t=[])
    with pytest.raises(DimensionMismatch, match="rank at least 1"):
        Datum.from_json(payload)
    for command in ("check-datum", "orbit", "diagram"):
        code, captured = _run_malformed(command, payload, tmp_path, capsys)
        assert code == 2
        assert captured.err == "error: a datum needs rank at least 1: q must not be empty\n"


def test_verify_grading_without_group_exit_2(tmp_path, capsys):
    payload = _graded_structure(group={"orders": [3]})
    del payload["group"]
    code, captured = _run_malformed("verify", payload, tmp_path, capsys)
    assert code == 2
    assert captured.err == 'error: a structure with "grading" needs a "group" object\n'


@pytest.mark.parametrize("command, payload", [
    ("orbit", lambda d: dict(d, group={"orders": "x"})),
    ("check-datum", lambda d: dict(d, group={"orders": [3.5]})),
    ("triangular", lambda d: {"group": {"orders": [True]}, "beta": [["0/1"]]}),
    ("check-datum", lambda d: dict(d, group={"orders": [0]})),
    ("check-datum", lambda d: dict(d, group=[3])),
    ("orbit", lambda d: [1, 2]),
    ("triangular", lambda d: {"group": {"orders": "x"}, "beta": [["1/3"]]}),
    ("triangular", lambda d: [1, 2]),
    ("verify", lambda d: _graded_structure(group={"orders": "x"})),
    ("verify", lambda d: _graded_structure(group={"orders": [1.5]})),
    ("triangular", lambda d: {"group": {"orders": [3]}, "beta": [[1]]}),
    ("check-datum", lambda d: dict(d, t=[5])),
    ("check-datum", lambda d: dict(d, q=[[1, "1"], ["1", 1]])),
    ("verify", lambda d: (lambda p: dict(p, grading=[5] + p["grading"][1:]))(
        _graded_structure(group={"orders": [3]}))),
    ("triangular", lambda d: {"group": {"orders": [3]}, "beta": 5}),
    ("verify", lambda d: dict(_graded_structure(group={"orders": [1]}), beta=5)),
    ("check-datum", lambda d: dict(d, beta=5)),
    ("check-extension", lambda d: _c2_pair(z=5, **_GRADED_C2)),
    ("check-extension", lambda d: _c2_pair(z=[1, 2, 3], **_GRADED_C2)),
    ("check-extension", lambda d: _c2_pair(action=5, **_GRADED_C2)),
    ("check-extension", lambda d: _c2_pair(
        action=[{"element": [0], "matrix": {"perm": 5, "scal": []}}], **_GRADED_C2)),
    ("check-datum", lambda d: dict(d, q=5, t=[[0]])),
    ("check-datum", lambda d: dict(d, q=[5], t=[[0]])),
    ("check-datum", lambda d: dict(d, q="q", t=[[0]])),
    ("check-datum", lambda d: dict(d, q={"a": 1}, t=[[0]])),
], ids=["orders-string", "orders-float", "orders-bool", "orders-zero",
        "group-not-object", "datum-not-object", "triangular-orders-string",
        "triangular-not-object", "verify-grading-orders-string",
        "verify-grading-orders-float", "triangular-beta-not-string",
        "degree-not-list", "braiding-entry-not-string",
        "verify-grading-entry-not-list", "triangular-beta-int", "verify-beta-int",
        "check-datum-beta-int", "z-int", "z-flat", "action-int", "action-perm-int",
        "braiding-int", "braiding-flat", "braiding-string", "braiding-object"])
def test_malformed_group_exit_2(command, payload, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload(cases.rank2_c3_datum().to_json())))
    code = main([command, "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# a graded C2 x C2 pair: check-extension then reads its "z" and "action"
_GRADED_C2 = {"group": {"orders": [2]}, "beta": [["0/1"]]}


def _graded_structure(group):
    mp = cases.squaring_matched_pair()
    payload = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp)).to_json()
    payload["grading"] = [[0]] * payload["dim"]
    payload["group"] = group
    return payload


def test_internal_error_exit_3(rank2_file, monkeypatch, capsys):
    import chroma.weyl

    def broken(self, key, payload, p):
        raise AssertionError("twisted matrix does not satisfy\nthe identity")

    monkeypatch.setattr(chroma.weyl._OrbitKernel, "reflect", broken)
    code = main(["orbit", "--input", rank2_file])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("internal error: twisted matrix does not satisfy "
                            "the identity\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["orbit", "check-datum"])
def test_orbit_identity_check_survives_optimize(command, rank2_file):
    """The orbit kernel's twisted-matrix identity raises AssertionError
    under python -O too: a kernel whose twist ignores beta exits 3, both
    in an orbit search and in check-datum's public reflections."""
    script = ("import sys\n"
              "import chroma.weyl as w\n"
              "from chroma.cli import main\n"
              "w._OrbitKernel.twist = lambda self, key: key[:self.size]\n"
              "sys.exit(main([sys.argv[2], '--input', sys.argv[1]]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script, rank2_file, command],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("internal error: twisted matrix does not satisfy the "
                           "reflection identity at (0,0)\n")


def test_exit_codes_of_a_real_process(tmp_path):
    """``python -m chroma.cli verify`` exits 0, 1 and 2 without a traceback."""
    mp = cases.squaring_matched_pair()
    valid = build_bicrossed(mp, SigmaCocycle.trivial(mp), TauCocycle.trivial(mp))
    sigma = SigmaCocycle.trivial(mp).mutated(1, 1, 1, cases.RH)
    mutant = build_bicrossed(mp, sigma, TauCocycle.trivial(mp))
    inputs = {"valid": (valid.to_json(), 0), "mutant": (mutant.to_json(), 1),
              "malformed": (_c2_group_algebra(mult00=[[0, ["1"]], [0, ["1"]]]), 2)}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name, (payload, expected) in inputs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        proc = subprocess.run(
            [sys.executable, "-m", "chroma.cli", "verify", "--input", str(path),
             "--output", str(tmp_path / f"{name}.out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == expected, (name, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_huge_order_degenerate_datum_exits_2_quickly(tmp_path):
    """Nondegeneracy comes from the Smith form, not from listing G: beta = 0
    on Z/1000000007 is rejected (exit 2) well within the timeout."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": 1, "q": [["-1"]],
                                "group": {"orders": [1000000007]},
                                "beta": [["0/1"]], "t": [[0]]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "check-datum", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: datum requires a nondegenerate bicharacter\n"


def test_check_double_huge_group_exits_0(tmp_path):
    """|G| = 1000000007 with a nondegenerate beta: the counts come from |G| and
    the witness from a congruence, so no list of G is made."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema": 1, "q": [["-1"]],
                                "group": {"orders": [1000000007]},
                                "beta": [["1/1000000007"]], "t": [[5]]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cap_address_space():  # 1 GiB, in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "check-double", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=20,
        preexec_fn=cap_address_space)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["retractions"] == 1000000007
    assert report["color_retractions"] == 1
    assert report["single_copy"]["witness"] == [[1000000002]]


@pytest.mark.parametrize("root", ["1_0/20", "+1/2", "\u0661/\u0662", "1/-2", "1/0", "x", 0.5],
                         ids=["underscore", "plus", "arabic-digits", "negative-denominator",
                              "zero-denominator", "not-a-number", "float"])
def test_malformed_root_exits_2(root, tmp_path, capsys):
    """Roots and coefficients share one strict "p/q" grammar."""
    code, captured = _run_malformed(
        "triangular", {"group": {"orders": [20]}, "beta": [[root]]}, tmp_path, capsys)
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# sha256 of triangular reports with beta = 0, recorded while quotient still
# built the Smith form's n x n column transform (n = rank + |G|)
@pytest.mark.parametrize("orders, digest", [
    ([4000], "8c55091019e9c43a1653bd74a83362ce4195b757fe6d5d4345cce0b160758c1d"),
    ([2, 2000], "d3d8f476082354b695005192aaf57a63e9b8cb2007343c0626891907469aa167"),
    ([3, 9, 27], "b73af916cb1809c500256a6996717b05dbab43003c5657b194e010870eaec4a7"),
], ids=["4000", "2x2000", "3x9x27"])
def test_triangular_degenerate_beta_report_pinned(orders, digest, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"group": {"orders": orders},
                                "beta": [["0/1"] * len(orders) for _ in orders]}))
    out = tmp_path / "report.out"
    assert main(["triangular", "--input", str(path), "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _run_capped(command: str, payload: dict, tmp_path):
    """``python -m chroma.cli command`` on ``payload`` in a child process under
    a 1 GiB address space; returns the process and the report path."""
    path, report = tmp_path / "input.json", tmp_path / "report.out"
    path.write_text(json.dumps(payload))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def cap_address_space():  # 1 GiB, in the child only
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", command, "--input", str(path),
         "--output", str(report)],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=cap_address_space)
    return proc, report


def test_triangular_degenerate_beta_large_group_exits_0(tmp_path):
    """beta = 0 on Z/100000: the radical is all of G, and the quotient's Smith
    form is rank x (rank + |G|) with only rank x rank transforms, so it fits
    in 1 GiB and ends well within the timeout."""
    proc, report = _run_capped(
        "triangular", {"group": {"orders": [100000]}, "beta": [["0/1"]]}, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["G_prime"] == {"orders": []}


@pytest.mark.parametrize("N", [10007, 16384, 30030, 100003])
def test_verify_one_dimensional_at_a_large_conductor_exits_0(N, tmp_path):
    """The group algebra of the trivial group over Q(zeta_N): reduction mod
    Phi_N keeps memory linear in N, so this fits in 1 GiB.  The input is
    written by hand, so no Cyclo at conductor N is built in this process."""
    proc, report = _run_capped("verify", {
        "dim": 1, "conductor": N, "mult": [[[[0, "0/1"]]]], "comult": [[[0, 0, "0/1"]]],
        "unit": [[0, "0/1"]], "counit": ["0/1"]}, tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(report.read_text())["antipode_exists"] is True


def _c2_pair(**entries) -> dict:
    return dict({"L": {"cyclic": 2}, "Gamma": {"cyclic": 2},
                 "lact": [[0, 0], [1, 1]], "ract": [[0, 1], [0, 1]]}, **entries)


def _run_malformed(command, payload, tmp_path, capsys, *options):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main([command, "--input", str(path), *options])
    return code, capsys.readouterr()


@pytest.mark.parametrize("key, images", [
    ("g", 5), ("g", ["a", 1]), ("g", [0, True]), ("g", [0]), ("g", [0, 1, 1]),
    ("g", [0, 2]), ("h", 5), ("h", ["a", 1]), ("h", [0]), ("h", [0, -1]),
], ids=["g-int", "g-string", "g-bool", "g-short", "g-long", "g-out-of-range",
        "h-int", "h-string", "h-short", "h-negative"])
def test_malformed_automorphism_images_exit_2(key, images, tmp_path, capsys):
    payload = _c2_pair(g=[0, 1], h=[0, 1])
    payload[key] = images
    code, captured = _run_malformed("aut-ext", payload, tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {key} must be an array of 2 indices below 2\n"


@pytest.mark.parametrize("key, table", [
    ("tau", 7),
    ("sigma", [[["0/1"]]]),
    ("sigma", [["0/1", "0/1"], ["0/1", "0/1"]]),
    ("sigma", [[["0/1", "0/1"], ["0/1", "0/1"]]]),
    ("tau", [[["0/1", "0/1"], ["0/1"]], [["0/1", "0/1"], ["0/1", "0/1"]]]),
    ("tau", "0/1"),
], ids=["tau-int", "sigma-1x1x1", "sigma-2d", "sigma-one-plane", "tau-short-row",
        "tau-string"])
def test_malformed_cocycle_table_exits_2(key, table, tmp_path, capsys):
    code, captured = _run_malformed("check-extension", _c2_pair(**{key: table}),
                                    tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {key} must be an array of shape 2 x 2 x 2\n"


_MOD3 = [[(a * b) % 3 for b in range(3)] for a in range(3)]


def _ring_payload(**entries) -> dict:
    return dict({"ring": {"orders": [3], "mul": _MOD3},
                 "Gamma": {"cyclic": 2}, "nu": [1, 2], "psi": [0, 1],
                 "phi": [[0, 0], [0, 0]], "eta": ["0/1", "0/1", "0/1"],
                 "theta": ["0/1", "2/3", "1/3"]}, **entries)


# R = T2(F2), the upper triangular 2 x 2 matrices over F2: (a, b, c) is
# [[a, b], [0, c]] at index a + 2b + 4c, so (a, b, c)(x, y, z) is
# (ax, ay + bz, cz) and the unit is index 5.  theta = b/2 is not trace
# symmetric: theta(e11 e12) = 1/2, theta(e12 e11) = 0.
_T2 = [[(a * x) % 2 + 2 * ((a * y + b * z) % 2) + 4 * ((c * z) % 2)
        for z in (0, 1) for y in (0, 1) for x in (0, 1)]
       for c in (0, 1) for b in (0, 1) for a in (0, 1)]


_MUL_MESSAGE = "ring mul must be an array of shape 3 x 3 of element indices below 3"


@pytest.mark.parametrize("entries, message", [
    ({"ring": {"orders": [3], "mul": 5}}, _MUL_MESSAGE),
    ({"ring": {"orders": [3], "mul": [["1", 0, 0], *_MOD3[1:]]}}, _MUL_MESSAGE),
    ({"ring": {"orders": [3], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 3]]}}, _MUL_MESSAGE),
    ({"ring": {"orders": [3], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, -1]]}}, _MUL_MESSAGE),
    ({"ring": 3}, "ring must be a JSON object"),
    ({"ring": {"orders": "3", "mul": _MOD3}}, "group orders must be a list"),
    ({"nu": [1]}, "nu must be an array of 2 ring element indices below 3"),
    ({"psi": [0]}, "psi must be an array of 2 ring element indices below 3"),
    ({"psi": [0, 9]}, "psi must be an array of 2 ring element indices below 3"),
    ({"phi": [[0, 0], [0, 9]]},
     "phi must be an array of shape 2 x 2 of ring element indices below 3"),
    ({"phi": [0, 0]}, "phi must be an array of shape 2 x 2 of ring element indices below 3"),
    ({"theta": ["0/1"]}, "theta must have one root per ring element (3)"),
    ({"eta": ["0/1"]}, "eta must have one root per ring element (3)"),
    ({"eta": 5}, "eta must be an array of roots"),
    # each side condition of ring_family broken alone; a non-unital nu
    # breaks the homomorphism law
    ({"nu": [1, 0]}, "nu must take values in the units"),
    ({"Gamma": {"cyclic": 3}, "nu": [1, 2, 1], "psi": [0, 0, 0],
      "phi": [[0] * 3 for _ in range(3)]}, "nu is not a homomorphism"),
    ({"nu": [2, 2]}, "nu is not a homomorphism"),
    ({"psi": [1, 0]}, "psi must be normalized"),
    ({"nu": [1, 1]}, "psi is not a twisted 1-cocycle"),
    ({"phi": [[0, 1], [0, 0]]}, "phi must be normalized"),
    ({"phi": [[0, 0], [0, 1]]}, "phi is not a twisted 2-cocycle"),
    ({"eta": ["1/3", "0/1", "0/1"]}, "eta and theta must be normalized at 0"),
    ({"theta": ["1/3", "2/3", "1/3"]}, "eta and theta must be normalized at 0"),
    ({"ring": {"orders": [2, 2, 2], "mul": _T2}, "Gamma": {"cyclic": 1}, "nu": [5],
      "psi": [0], "phi": [[0]], "eta": ["0/1"] * 8,
      "theta": ["0/1", "0/1", "1/2", "1/2"] * 2}, "theta violates trace symmetry"),
    ({"theta": ["0/1", "1/3", "1/3"]}, "theta^2 is not bimultiplicative on products"),
    # a key of the matched-pair input, which the ring path would drop
    ({"sigma": [[["1/2"]]]}, "a ring input takes no matched-pair key: sigma"),
    ({"action": 5, "group": {"orders": [7]}},
     "a ring input takes no matched-pair key: group, action"),
    # 2 * 2 = 0: associative, but (1 + 1) * 2 != 1 * 2 + 1 * 2
    ({"ring": {"orders": [3], "mul": [[0, 0, 0], [0, 1, 2], [0, 2, 0]]}},
     "right distributivity fails"),
], ids=["mul-int", "mul-string", "mul-out-of-range", "mul-negative", "ring-int",
        "orders-string", "nu-short", "psi-short", "psi-out-of-range",
        "phi-out-of-range", "phi-flat", "theta-short", "eta-short", "eta-int",
        "nu-not-unit", "nu-not-homomorphism", "nu-not-unital", "psi-not-normalized",
        "psi-not-cocycle", "phi-not-normalized", "phi-not-cocycle", "eta-at-0",
        "theta-at-0", "theta-not-trace-symmetric", "theta-squared-not-bimultiplicative",
        "sigma-key", "action-key", "mul-not-right-distributive"])
def test_malformed_ring_family_exits_2(entries, message, tmp_path, capsys):
    code, captured = _run_malformed("check-extension", _ring_payload(**entries),
                                    tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _rank2(**entries) -> dict:
    return dict(cases.rank2_c3_datum().to_json(), **entries)


# x x = y, x y = 1, y x = y y = 0 on the basis 1, x, y of (Z/2)^3, extended
# bilinearly, with unit 1: (x x) x = 0 but x (x x) = 1
_NONASSOCIATIVE_RING = [[0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 2, 3, 4, 5, 6, 7],
                        [0, 2, 4, 6, 1, 3, 5, 7], [0, 3, 6, 5, 5, 6, 3, 0],
                        [0, 4, 0, 4, 0, 4, 0, 4], [0, 5, 2, 7, 4, 1, 6, 3],
                        [0, 6, 4, 2, 1, 7, 5, 3], [0, 7, 6, 1, 5, 2, 3, 4]]


def _ring_over_c1(orders, mul) -> dict:
    n = len(mul)
    return {"ring": {"orders": orders, "mul": mul}, "Gamma": {"cyclic": 1}, "nu": [1],
            "psi": [0], "phi": [[0]], "eta": ["0/1"] * n, "theta": ["0/1"] * n}


def _c3_action(*matrices) -> dict:
    """check-extension on L = C3, Gamma = C1 graded by C2, with one action
    matrix per dual element listed, given as perms with trivial scales."""
    return {"L": {"cyclic": 3}, "Gamma": {"cyclic": 1}, "lact": [[0], [1], [2]],
            "ract": [[0], [0], [0]], **_GRADED_C2,
            "action": [{"element": [a], "matrix": {"perm": perm, "scal": ["0/1"] * len(perm)}}
                       for a, perm in enumerate(matrices)]}


@pytest.mark.parametrize("argv, payload, message", [
    (["check-datum"], _rank2(q=[["q", "1"], ["1"]]), "scalar matrix must be square"),
    (["triangular"], {"group": {"orders": [3]}, "beta": [["1/3", "0/1"]]},
     "bicharacter matrix has wrong shape"),
    (["orbit", "--max-nodes", "0"], _rank2(), "max_nodes must be >= 1"),
    (["aut-ext"], _c2_pair(L={"table": [[0, 1], [1]]}, g=[0, 1], h=[0, 1]),
     "Cayley table must be square"),
    (["aut-ext"], _c2_pair(L={"table": [[0, 0], [0, 0]]}, g=[0, 1], h=[0, 1]),
     "table has no identity"),
    # each element its own inverse, but (1 1) 2 = 2 and 1 (1 2) = 1
    (["aut-ext"], _c2_pair(L={"table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]},
                           g=[0, 1, 2], h=[0, 1]),
     "table is not associative"),
    (["aut-ext"], _c2_pair(g=[0, 0], h=[0, 1]), "not a bijection"),
    (["aut-ext"], _c2_pair(g=[1, 0], h=[0, 1]), "not a homomorphism"),
    (["check-extension"], _c2_pair(z=[[[0], [0]]], **_GRADED_C2),
     "z table has the wrong shape"),
    (["verify"], dict(_c2_group_algebra(), dim=-1), "dim must be a nonnegative integer, not -1"),
    (["verify"], dict(_c2_group_algebra(), mode="bogus"), "mode must be 'plain' or 'color'"),
    (["verify"], dict(_c2_group_algebra(), mode="color"),
     "color mode needs grading and braiding data"),
    # beta(g, g) = zeta_3 is not a root of unity of Q(zeta_1)
    (["verify"], dict(StructBialgebra.group_algebra(FiniteGroup.cyclic(3).table, 0).to_json(),
                      mode="color", grading=[[0], [1], [2]], group={"orders": [3]},
                      beta=[["1/3"]]),
     "order 3 does not divide conductor 1"),
    # beta(g, g) beta(g, g) = zeta_3^2, not 1
    (["triangular"], {"group": {"orders": [3]}, "beta": [["1/3"]]},
     "reduction needs a commutation factor"),
    (["check-extension"], _ring_over_c1([2, 2, 2], _NONASSOCIATIVE_RING),
     "multiplication is not associative"),
    # 2 * (1 + 2) = 2 * 3 = 1, but 2 * 1 + 2 * 2 = 2 + 2 = 0
    (["check-extension"], _ring_over_c1([2, 2], [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 1],
                                                 [0, 3, 0, 2]]),
     "left distributivity fails"),
    # eta(1) + eta(1) != eta(2): sigma_1(g, h) = eta(gh) fails the cocycle
    # law at (g, h, k) = (1, 1, 2)
    (["check-extension"], _ring_payload(Gamma={"cyclic": 3}, nu=[1, 1, 1], psi=[0, 0, 0],
                                        phi=[[0, 0, 0], [0, 1, 2], [0, 2, 1]],
                                        eta=["0/1", "0/1", "1/3"], theta=["0/1"] * 3),
     "inputs do not produce a valid sigma cocycle (eta must be additive on the relevant "
     "products)"),
    (["check-extension"], _c3_action([0, 1, 2]), "action table must cover the whole dual group"),
    (["check-extension"], _c3_action([0, 1, 2], [0, 1]), "action matrix size mismatch"),
    (["check-extension"], _c3_action([1, 0, 2], [0, 2, 1]), "action matrices must commute"),
    (["check-extension"], _c3_action([0, 1, 2], [0, 0, 2]), "permutation part is not a bijection"),
], ids=["q-ragged", "beta-shape", "max-nodes-0", "table-not-square", "table-no-identity",
        "table-not-associative", "g-not-bijection", "g-not-homomorphism", "z-shape",
        "dim-negative", "mode-bogus", "color-mode-ungraded", "root-outside-conductor",
        "beta-not-commutation-factor",
        "ring-not-associative", "ring-not-left-distributive", "eta-not-additive",
        "action-misses-a-character", "action-matrix-size", "action-not-commuting",
        "action-perm-not-bijection"])
def test_input_rejection_exits_2(argv, payload, message, tmp_path, capsys):
    code, captured = _run_malformed(argv[0], payload, tmp_path, capsys, *argv[1:])
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("with_tau", [False, True], ids=["trivial-tau", "own-tau"])
def test_ring_job_takes_one_split_report(with_tau, tmp_path, monkeypatch):
    """The ring job's split checks are one check_split_color_extension call,
    with the job's tau, and the report shows exactly that call's result."""
    payload = _ring_payload(tau=_TAU_MUTANT) if with_tau else _ring_payload()
    fam = cases.mod3_ring_family()
    mp = fam.mp
    tau = TauCocycle([[[Rational01.parse(v) for v in row] for row in plane]
                      for plane in _TAU_MUTANT]) if with_tau else TauCocycle.trivial(mp)
    ztilde = [[fam.z.degree(l, g) for l in range(mp.L.n)] for g in range(mp.Gamma.n)]
    direct = extensions.check_split_color_extension(mp, fam.sigma, tau, ztilde,
                                                    fam.group, fam.beta)
    assert direct["tau_gamma_cocycle"] is not with_tau
    calls = []
    real = extensions.check_split_color_extension
    monkeypatch.setattr(extensions, "check_split_color_extension",
                        lambda *a: calls.append(a) or real(*a))
    path, out = tmp_path / "input.json", tmp_path / "report.out"
    path.write_text(json.dumps(payload))
    assert main(["check-extension", "--input", str(path), "--output", str(out)]) == int(with_tau)
    assert len(calls) == 1
    checks = json.loads(out.read_text())["checks"]
    del checks["color_axioms"]
    assert checks == {k: v for k, v in direct.items() if k != "ok"}


def test_aut_ext_root_bound_0_exits_2(tmp_path, capsys):
    path = tmp_path / "aut.json"
    path.write_text(json.dumps(_c2_pair(g=[0, 1], h=[0, 1])))
    code = main(["aut-ext", "--input", str(path), "--root-bound", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: root bound must be >= 1\n"


@pytest.mark.parametrize("entries, message", [
    ({"z": [[[0], [0]], [[0], [0]]]}, "z needs group"),
    ({"beta": [["0/1"]]}, "beta needs group"),
    ({"group": {"orders": [2]}, "action": []}, "action needs beta"),
    ({"action": []}, "action needs group and beta"),
], ids=["z-without-group", "beta-without-group", "action-without-beta", "action-alone"])
def test_check_extension_input_without_its_group_exits_2(entries, message, tmp_path, capsys):
    """z, beta and action are read over the grading group (action over beta
    too): given without them, the input is rejected, not dropped."""
    code, captured = _run_malformed("check-extension", _c2_pair(**entries), tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _ring_family_pair(with_grading: bool) -> dict:
    """The mod-3 ring family's matched pair with its sigma, and trivial tau,
    as explicit tables; with its z, group and beta when asked."""
    fam = cases.mod3_ring_family()
    mp = fam.mp
    payload = {"L": {"table": [list(r) for r in mp.L.table]},
               "Gamma": {"cyclic": mp.Gamma.n},
               "lact": [list(r) for r in mp.lact], "ract": [list(r) for r in mp.ract],
               "sigma": [[[str(v) for v in row] for row in plane]
                         for plane in fam.sigma.table],
               "tau": [[[str(v) for v in row] for row in plane]
                       for plane in TauCocycle.trivial(mp).table]}
    if with_grading:
        payload.update(z=[[list(fam.z.degree(l, g).residues) for g in range(mp.Gamma.n)]
                          for l in range(mp.L.n)],
                       group=fam.group.to_json(), beta=fam.beta.to_json())
    return payload


_TAU_MUTANT = [[["0/1"] * 3 for _ in range(3)] for _ in range(2)]
_TAU_MUTANT[1][1][2] = "1/3"


# report sha256 and exit code of each case, recorded before the report
# envelope ("schema", "command") was moved into ``main``.  The ring
# family's sigma is a color cocycle, so the plain Kac condition and Hopf
# axioms fail (exit 1) while ``color_compatibility`` holds.
@pytest.mark.parametrize("argv, payload, digest, expected", [
    (["check-extension"], lambda: _ring_family_pair(False),
     "f4d81050adcaf067aaf63b43e9fe36d753bf382fb3480f3a893d22e7d43c0faf", 1),
    (["check-extension"], lambda: _ring_family_pair(True),
     "a9472856af02051e98429ad7f59cbd3ecd40341e771f30d6258cf2e66df78618", 1),
    (["check-extension"], lambda: _ring_payload(tau=_TAU_MUTANT),
     "efaa682a4f0691bea505b875e5067f771cbd367f0c3f7d9dd7e7a92328627ee1", 1),
    (["diagram", "--format", "dot"], lambda: cases.rank2_c3_datum().to_json(),
     "442df6d2a515a54f7dbcfc4e7af3f64a44cf768467cb9a8c7176a19eb0f22d48", 0),
], ids=["explicit-sigma-tau", "z-group-beta", "ring-own-tau", "diagram-dot"])
def test_report_digest_pinned(argv, payload, digest, expected, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload()))
    out = tmp_path / "report.out"
    assert main([*argv, "--input", str(path), "--output", str(out)]) == expected
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_solver_probe_exits_0_quickly(tmp_path):
    """q_00 = zeta(1000000007,1) and q_01 q_10 = -1: the Cartan entry is
    1 - 1000000007, found with one modular inverse, not a scan of the period."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"q": [["zeta(1000000007,1)", "-1"],
                                      ["1", "zeta(1000000007,1)"]],
                                "group": {"orders": [1]}, "beta": [["0/1"]],
                                "t": [[0], [0]]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "chroma.cli", "check-datum", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reflectable_vertices"] == [0, 1]


# ---------------------------------------------------------------------------
# report emission and parser reuse
# ---------------------------------------------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


@st.composite
def _tables(draw):
    """Lists of rows for the emitter's table rule and its near misses:
    columns of str, of ints or of int lists shared from a small pool, some
    rows tuples, row counts on both sides of the rule's minimum, and at
    most one flaw: a bool, float, None, empty or mixed cell, or a row one
    cell short."""
    pool = draw(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=3),
                         min_size=1, max_size=3))
    kinds = {"str": st.text(max_size=3), "int": st.integers(-3, 3),
             "ints": st.sampled_from(pool)}
    columns = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=4))
    count = draw(st.sampled_from([1, 2, cli._TABLE_ROWS - 1, cli._TABLE_ROWS, 20]))
    rows = [[draw(kinds[kind]) for kind in columns] for _ in range(count)]
    flaw = draw(st.sampled_from([None, None, "cell", "short"]))
    row = rows[draw(st.integers(0, count - 1))]
    if flaw == "cell":
        row[draw(st.integers(0, len(row) - 1))] = draw(
            st.booleans() | st.floats(allow_nan=False) | st.none()
            | st.sampled_from([[], (), [1, True], ["a", 1], [[1]]]))
    elif flaw == "short":
        row.pop()
    return [tuple(row) if draw(st.booleans()) else row for row in rows]


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.lists(st.integers(-3, 3), max_size=4) | st.lists(st.text(), max_size=4)
    | _tables(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(st.text(max_size=4), kids, max_size=4)),
    max_leaves=30)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_json_values)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": [[[]]]})
@example(["\x00\x1f\u00e9\u2028\U0001f600\"\\/", -(2 ** 80), 2 ** 80, True, False, None])
@example([[1, 2], {"x": [1, 2], "y": [[1, 2]]}, (1, 2), [1, True], [0, -0]])
@example(["q", ["q^-1", "1"], {"s": ["", "-1*q"], "t": [["\u00e9", "\U0001f600"]]}])
@example([["\"", "\\", "\n\t\x7f", "\u2028"], ("", ""), [""], {"": [""]}])
@example([["a", 1], [1, "a"], ["a", None], ["a", ["b"]], ("a", 2, "b"), ["1", 1]])
def test_emitter_matches_json_dumps(value):
    """The emitter against ``json.dumps`` on JSON values: the same int list
    at several depths, tuples, bools among ints, str lists at several depths
    and mixed with other values, unicode, escapes and controls, and tables
    (lists of equal-length rows) with and without a cell that breaks the
    table rule."""
    assert cli._dumps(value) == _json_dumps(value)


_SHARED_INTS, _SHARED_TUPLE, _SHARED_MIXED = [1, 2], (3, 4), [True, 1]


def _table(*rows) -> list:
    """``rows`` repeated in turn up to the emitter's minimum table size."""
    return [rows[k % len(rows)] for k in range(cli._TABLE_ROWS)]


@pytest.mark.parametrize("value", [
    [_SHARED_INTS, [_SHARED_INTS, [_SHARED_INTS]]],
    {"a": _SHARED_INTS, "b": {"c": _SHARED_INTS, "d": [_SHARED_INTS]}},
    (_SHARED_INTS, (_SHARED_INTS, (_SHARED_INTS,))),
    [[_SHARED_INTS, 0], _SHARED_INTS, ({"e": [[_SHARED_INTS]]}, _SHARED_INTS)],
    [_SHARED_TUPLE, [_SHARED_TUPLE, _SHARED_TUPLE], {"t": _SHARED_TUPLE}],
    [_SHARED_MIXED, [_SHARED_MIXED, _SHARED_MIXED], {"m": _SHARED_MIXED}],
    {"a": _table([_SHARED_INTS, "x"]), "b": [_table([_SHARED_INTS, "y"])], "c": _SHARED_INTS},
    [_SHARED_INTS, _table([_SHARED_INTS, 0], [_SHARED_TUPLE, 1]),
     [_table([[_SHARED_INTS, _SHARED_TUPLE]])]],
], ids=["lists", "dicts", "tuples", "mixed", "tuple-of-ints", "bool-and-int",
        "table-cells", "table-and-loop"])
def test_emitter_renders_one_shared_object_at_each_depth(value):
    """One object at several depths, in lists and in table columns: the
    memo by object must keep its depth."""
    assert cli._dumps(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [
    _table([True, 1], [False, 2]),
    _table([1, 1], [2, True]),
    _table(["a", [1, 2]], ["b", [True, 2]]),
    _table(["a", []], ["b", [1]]),
    _table(["a", None], ["b", "c"]),
    _table(["a", 1.5], ["b", 2]),
    _table(["a", 1], ["b", "c"]),
    _table(["a", 1], ["b"]),
    _table(("a", 1), ["b", 2]),
    _table([[1, 2], "a", 0]),
    _table([[1, 2], "a", 0])[1:],
    _table([]),
], ids=["bool-column", "bool-late", "bool-in-int-list", "empty-cell", "none-cell",
        "float-cell", "mixed-column", "ragged", "tuple-row", "one-distinct-row",
        "below-minimum", "empty-rows"])
def test_emitter_table_rule_matches_json_dumps(value):
    """Lists of rows that the table rule takes, and ones it must leave to
    the loop: a bool is not an int, and ragged rows, mixed columns and
    empty or mixed cells are no table."""
    assert cli._dumps(value) == _json_dumps(value)


@pytest.mark.parametrize("value", [{"a": 1.5}, [0, [2.0]], {1: [1, 2]}, {"a": {3: None}},
                                   json.loads("[" * 70 + "0" + "]" * 70)],
                         ids=["float", "nested-float", "int-key", "nested-int-key", "70-deep"])
def test_emitter_falls_back_to_json_dumps(value, monkeypatch):
    expected = _json_dumps(value)
    calls = []

    def spy(obj, **kwargs):
        calls.append(obj)
        return json.JSONEncoder(**kwargs).encode(obj)

    monkeypatch.setattr(json, "dumps", spy)
    assert cli._dumps(value) == expected
    assert calls == [value]


def _emitted_reports(tmp_path, monkeypatch) -> list:
    """The report dicts ``main`` emits for every subcommand on the fixtures
    of tests/cases.py, one triangular report with |G'| = 81 among them."""
    reports = []
    monkeypatch.setattr(cli, "_emit", lambda obj: reports.append(obj) or _json_dumps(obj))
    mp = cases.squaring_matched_pair()
    pair = {"L": {"cyclic": 7}, "Gamma": {"cyclic": 3},
            "lact": [list(r) for r in mp.lact], "ract": [list(r) for r in mp.ract]}
    third, zero = "1/3", "0/1"
    symplectic = [[zero, third, zero, zero], ["2/3", zero, zero, zero],
                  [zero, zero, zero, third], [zero, zero, "2/3", zero]]
    jobs = [
        (["orbit"], cases.rank4_klein_datum().to_json()),
        (["diagram", "--format", "json"], cases.rank2_c3_datum().to_json()),
        (["check-datum"], cases.rank2_c3_datum().to_json()),
        (["check-double"], cases.rank2_c3_datum().to_json()),
        (["triangular"], {"group": {"orders": [3, 3, 3, 3]}, "beta": symplectic}),
        (["verify"], cases.klein_group_algebra().to_json()),
        (["check-extension"], _ring_family_pair(True)),
        (["check-extension"], _ring_payload()),
        (["aut-ext", "--root-bound", "7"],
         dict(pair, g=[(-l) % 7 for l in range(7)], h=[0, 1, 2])),
    ]
    for k, (argv, payload) in enumerate(jobs):
        path = tmp_path / f"input{k}.json"
        path.write_text(json.dumps(payload))
        assert main([*argv, "--input", str(path), "--output", str(tmp_path / "out")]) in (0, 1)
    assert len(reports) == len(jobs)
    return reports


def test_emitter_matches_json_dumps_on_reports(tmp_path, monkeypatch):
    reports = _emitted_reports(tmp_path, monkeypatch)
    assert len(reports[4]["gamma_prime"]) == 81 * 81
    for report in reports:
        got, want = cli._dumps(report), _json_dumps(report)
        same = got == want  # kept out of the assert: a diff of MBs is slow
        assert same, (report["command"], os.path.commonprefix([got, want])[-200:])


def test_parser_is_reused_without_leaking_defaults(tmp_path, capsys):
    klein = tmp_path / "klein.json"
    klein.write_text(json.dumps(cases.rank4_klein_datum().to_json()))
    rank2 = tmp_path / "rank2.json"
    rank2.write_text(json.dumps(cases.rank2_c3_datum().to_json()))

    def report(*argv):
        out = tmp_path / "report.out"
        assert main([*argv, "--output", str(out)]) == 0
        return out.read_bytes()

    cli._parser.cache_clear()
    truncated = report("orbit", "--input", str(klein), "--max-nodes", "40")
    parser = cli._parser()
    orbit = report("orbit", "--input", str(klein))
    dot = report("diagram", "--input", str(rank2), "--format", "dot")
    text = report("diagram", "--input", str(rank2))
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--input", str(klein), "--max-nodes", "many"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli._parser() is parser
    assert parser.parse_args(["orbit", "--input", "x"]).max_nodes == 1024

    cli._parser.cache_clear()  # the fresh-parser path
    assert report("orbit", "--input", str(klein)) == orbit
    assert report("diagram", "--input", str(rank2)) == text
    assert json.loads(truncated)["truncated"] is True
    assert json.loads(orbit)["truncated"] is False
    assert text.startswith(b"generalized: ") and dot != text


# Run in a fresh interpreter on the chroma this test imported: report the
# exit code of each main(argv) in order, and the chroma modules then loaded.
# A "patch" step replaces chroma.hopfcheck.check_axioms by a failing check.
_IMPORT_PROBE = """
import json, sys
from chroma import cli
codes = []
for step in json.loads(sys.argv[1]):
    if step == "patch":
        import chroma.hopfcheck
        def broken(*args):
            raise AssertionError("patched check_axioms")
        chroma.hopfcheck.check_axioms = broken
    elif step == "parser":
        cli.build_parser()
    else:
        codes.append(cli.main(step))
print(json.dumps({"codes": codes, "loaded": sorted(
    name.split(".", 1)[1] for name in sys.modules if name.startswith("chroma."))}))
"""
_LAZY = {"doubles", "extensions", "hopfcheck", "triangular"}


def _probe_imports(steps) -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(steps)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def probe_inputs(tmp_path):
    """A function of (subcommand, fixture name) giving the argv that runs the
    subcommand on that small fixture."""
    mp = cases.squaring_matched_pair()
    payloads = {
        "datum": cases.rank2_c3_datum().to_json(),
        "triangular": {"group": {"orders": [2, 2]},
                       "beta": [["0/1", "1/2"], ["1/2", "0/1"]]},
        "verify": build_bicrossed(mp, SigmaCocycle.trivial(mp),
                                  TauCocycle.trivial(mp)).to_json(),
    }
    paths = {}
    for name, payload in payloads.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return lambda command, name: [command, "--input", str(paths[name]),
                                  "--output", str(tmp_path / "report.out")]


# subcommand -> (its fixture, the lazily loaded modules it needs)
_LOADS = {
    "orbit": ("datum", set()),
    "diagram": ("datum", set()),
    "check-datum": ("datum", set()),
    "check-double": ("datum", {"doubles"}),
    "triangular": ("triangular", {"triangular"}),
    "verify": ("verify", {"hopfcheck"}),
}


@pytest.mark.parametrize("command", list(_LOADS))
def test_subcommand_loads_only_its_library(command, probe_inputs):
    input_name, needed = _LOADS[command]
    report = _probe_imports([probe_inputs(command, input_name)])
    assert report["codes"] == [0]
    assert _LAZY & set(report["loaded"]) == needed, report["loaded"]


def test_parser_loads_no_subcommand_library():
    report = _probe_imports(["parser"])
    assert not _LAZY & set(report["loaded"]), report["loaded"]


def test_lazily_loaded_library_is_called_through_its_module(probe_inputs):
    """A function patched on its module after the first lazy load is the one
    the next call runs, as a profiler's wrapper needs."""
    argv = probe_inputs("verify", "verify")
    report = _probe_imports([argv, "patch", argv])
    assert report["codes"] == [0, 3]
