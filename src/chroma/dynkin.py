"""Generalized and colored Dynkin diagrams: construction, comparison, output.

A generalized diagram has vertex labels q_ii and an edge labeled
q_ij*q_ji wherever that product is not 1.  A colored diagram labels
vertex i with the twisted entry qt_ii plus the degree t_i, keeps the
labeled edges of qt, and adds an unlabeled edge where qt_ij*qt_ji = 1
but the color pairing beta(t_i,t_j)beta(t_j,t_i) is not 1; the three
edge cases are mutually exclusive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .datum import BraidingMatrix, Datum
from .groups import FinAbGroup
from .scalars import parse_scalar


class SizeLimit(ValueError):
    """Brute-force isomorphism is restricted to at most 10 vertices."""


GLYPHS = ("○", "●", "⊗", "⊙")  # circle, disc, otimes, odot


@dataclass(frozen=True)
class Diagram:
    kind: str  # "generalized" | "colored"
    vertices: tuple  # (label: Scalar, degree: Element | None)
    edges: tuple     # (i, j, label: Scalar | None), i < j, sorted

    def __post_init__(self):
        if self.kind not in ("generalized", "colored"):
            raise ValueError(f"unknown diagram kind {self.kind!r}")
        seen = set()
        for i, j, label in self.edges:
            if not (0 <= i < j < len(self.vertices)):
                raise ValueError("edge endpoints out of order")
            if (i, j) in seen:
                raise ValueError("duplicate edge")
            seen.add((i, j))
            if label is None and self.kind == "generalized":
                raise ValueError("generalized diagrams have labeled edges only")
        for _, degree in self.vertices:
            if self.kind == "colored" and degree is None:
                raise ValueError("colored diagrams carry a degree on every vertex")
            if self.kind == "generalized" and degree is not None:
                raise ValueError("generalized diagrams carry no degrees")

    @property
    def size(self) -> int:
        return len(self.vertices)


def generalized_diagram(q: BraidingMatrix) -> Diagram:
    vertices = tuple((q[i, i], None) for i in range(q.theta))
    edges = []
    for i in range(q.theta):
        for j in range(i + 1, q.theta):
            prod = q[i, j] * q[j, i]
            if not prod.is_one():
                edges.append((i, j, prod))
    return Diagram("generalized", vertices, tuple(edges))


def colored_diagram(E: Datum) -> Diagram:
    qt = E.qt
    vertices = tuple((qt[i, i], E.t[i]) for i in range(E.theta))
    edges = []
    for i in range(E.theta):
        for j in range(i + 1, E.theta):
            prod = qt[i, j] * qt[j, i]
            if not prod.is_one():
                edges.append((i, j, prod))
                continue
            pairing = E.beta.eval(E.t[i], E.t[j]) + E.beta.eval(E.t[j], E.t[i])
            if not pairing.is_zero():
                edges.append((i, j, None))
    return Diagram("colored", vertices, tuple(edges))


def isomorphic(d1: Diagram, d2: Diagram) -> bool:
    """Vertex bijection preserving labels, degrees, and labeled edges."""
    if d1.kind != d2.kind or d1.size != d2.size:
        return False
    n = d1.size
    if n > 10:
        raise SizeLimit("isomorphism testing is limited to 10 vertices")
    if sorted(map(_vertex_key, d1.vertices)) != sorted(map(_vertex_key, d2.vertices)):
        return False
    edges2 = {(i, j): label for i, j, label in d2.edges}
    for perm in itertools.permutations(range(n)):
        if any(_vertex_key(d1.vertices[i]) != _vertex_key(d2.vertices[perm[i]])
               for i in range(n)):
            continue
        ok = True
        mapped = {}
        for i, j, label in d1.edges:
            a, b = perm[i], perm[j]
            key = (a, b) if a < b else (b, a)
            if key not in edges2 or edges2[key] != label:
                ok = False
                break
            mapped[key] = True
        if ok and len(mapped) == len(edges2):
            return True
    return False


def _vertex_key(vertex):
    label, degree = vertex
    return (str(label), degree.residues if degree is not None else None)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _degree_glyphs(group: FinAbGroup) -> dict | None:
    if group.order > 4:
        return None
    return {g.residues: GLYPHS[i] for i, g in enumerate(group.elements())}


def emit_text(d: Diagram, group: FinAbGroup | None = None) -> str:
    """Deterministic text rendering.

    Path-shaped diagrams are drawn inline as a chain; anything else falls
    back to vertex and edge listings.  For colored diagrams over groups of
    order <= 4 the degrees are shown with the glyph convention (legend
    included); larger groups print the degree tuples.
    """
    glyphs = _degree_glyphs(group) if (group is not None and d.kind == "colored") else None

    def vertex_str(i):
        label, degree = d.vertices[i]
        if d.kind == "generalized":
            return f"{GLYPHS[0]}^{label}"
        if glyphs is not None:
            return f"{glyphs[degree.residues]}^{label}"
        return f"[{','.join(map(str, degree.residues))}]^{label}"

    def edge_str(label):
        return "——" if label is None else f"—{label}—"

    lines = []
    if glyphs is not None:
        legend = " ".join(f"{glyph}=({','.join(map(str, res))})"
                          for res, glyph in sorted(glyphs.items(),
                                                   key=lambda kv: GLYPHS.index(kv[1])))
        lines.append(f"legend: {legend}")
    chain = _as_path(d)
    if chain is not None:
        parts = [vertex_str(chain[0])]
        lookup = {}
        for i, j, label in d.edges:
            lookup[(i, j)] = label
            lookup[(j, i)] = label
        for a, b in zip(chain, chain[1:]):
            parts.append(edge_str(lookup[(a, b)]))
            parts.append(vertex_str(b))
        lines.append(" ".join(parts))
    else:
        lines.append("vertices: " + " ".join(
            f"{i + 1}:{vertex_str(i)}" for i in range(d.size)))
        lines.append("edges: " + (" ".join(
            f"{i + 1}-{j + 1}:{'(unlabeled)' if label is None else str(label)}"
            for i, j, label in d.edges) or "(none)"))
    return "\n".join(lines) + "\n"


def _as_path(d: Diagram) -> list[int] | None:
    """Vertex order along the diagram when it is a simple path, else None."""
    n = d.size
    if n == 0:
        return None
    adjacency = {i: [] for i in range(n)}
    for i, j, _ in d.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    if len(d.edges) != n - 1:
        return None
    degrees = [len(adjacency[i]) for i in range(n)]
    if n == 1:
        return [0]
    if sorted(degrees)[:2] != [1, 1] or max(degrees) > 2:
        return None
    start = min(i for i in range(n) if degrees[i] == 1)
    path = [start]
    prev = None
    while len(path) < n:
        nxt = [v for v in adjacency[path[-1]] if v != prev]
        if len(nxt) != 1:
            return None
        prev = path[-1]
        path.append(nxt[0])
    return path


DOT_PALETTE = ("white", "gray85", "gray70", "gray55", "gray40",
               "gray25", "cadetblue1", "khaki1")


def emit_dot(d: Diagram) -> str:
    """Deterministic Graphviz output; undirected edges, degree styling."""
    lines = ["graph dynkin {", "  node [shape=circle];"]
    degree_class = {}
    if d.kind == "colored":
        unique = sorted({v[1].residues for v in d.vertices})
        degree_class = {res: idx for idx, res in enumerate(unique)}
        for res, idx in degree_class.items():
            color = DOT_PALETTE[idx % len(DOT_PALETTE)]
            lines.append(f'  /* degree ({",".join(map(str, res))}) -> class {idx} '
                         f'fill {color} */')
    for i, (label, degree) in enumerate(d.vertices):
        attrs = [f'label="{label}"']
        if degree is not None:
            idx = degree_class[degree.residues]
            attrs.append('style=filled')
            attrs.append(f'fillcolor="{DOT_PALETTE[idx % len(DOT_PALETTE)]}"')
            attrs.append(f'tooltip="deg=({",".join(map(str, degree.residues))})"')
        lines.append(f"  v{i} [{' '.join(attrs)}];")
    for i, j, label in d.edges:
        text = "" if label is None else str(label)
        lines.append(f'  v{i} -- v{j} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def diagram_to_json(d: Diagram) -> dict:
    return {
        "schema": 1,
        "kind": d.kind,
        "vertices": [
            {"label": str(label),
             **({"degree": list(degree.residues)} if degree is not None else {})}
            for label, degree in d.vertices
        ],
        "edges": [
            {"i": i, "j": j,
             **({"label": str(label)} if label is not None else {})}
            for i, j, label in d.edges
        ],
    }


def diagram_from_json(data: dict, group: FinAbGroup | None = None) -> Diagram:
    vertices = []
    for v in data["vertices"]:
        degree = None
        if "degree" in v:
            if group is None:
                raise ValueError("colored diagram JSON needs its group")
            degree = group.element(v["degree"])
        vertices.append((parse_scalar(v["label"]), degree))
    edges = []
    for e in data["edges"]:
        label = parse_scalar(e["label"]) if "label" in e else None
        edges.append((e["i"], e["j"], label))
    return Diagram(data["kind"], tuple(vertices), tuple(sorted(edges, key=lambda x: (x[0], x[1]))))
