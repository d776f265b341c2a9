"""Subgraph complementation, bipartite complementation, vertex deletion,
operation scripts, and the label-splitting construction for tracking a
complemented set through labelled embeddings.

Script steps bind to the graph state at the moment they are applied: a
``del`` step renumbers the remaining vertices, and later steps refer to the
renumbered graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .graphs import MAX_VERTICES, Graph, _graph, bits_of, induced, mask_of
from .order import LabelledGraph, QuasiOrder


class OpScriptError(ValueError):
    """A script step failed; ``step_index`` locates it."""

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


def subgraph_complement(g: Graph, vertices: Iterable[int]) -> Graph:
    """Flip adjacency on every pair inside ``vertices``; an involution."""
    m = mask_of(vertices)
    if m & ~g.mask:
        raise ValueError("vertex out of range")
    rows = list(g.rows)
    for v in bits_of(m):
        rows[v] ^= m & ~(1 << v)
    return _graph(g.n, tuple(rows))


def bipartite_complement(g: Graph, x: Iterable[int], y: Iterable[int]) -> Graph:
    """Flip adjacency on every pair with one end in ``x`` and one in ``y``."""
    mx = mask_of(x)
    my = mask_of(y)
    if mx & my:
        raise ValueError("bipartite complementation requires disjoint sets")
    if (mx | my) & ~g.mask:
        raise ValueError("vertex out of range")
    rows = list(g.rows)
    for v in bits_of(mx):
        rows[v] ^= my
    for v in bits_of(my):
        rows[v] ^= mx
    return _graph(g.n, tuple(rows))


@dataclass(frozen=True)
class SubgraphComplement:
    vertices: tuple[int, ...]

    def apply(self, g: Graph) -> Graph:
        return subgraph_complement(g, self.vertices)

    def to_json(self) -> dict:
        return {"op": "sc", "s": list(self.vertices)}


@dataclass(frozen=True)
class BipartiteComplement:
    x: tuple[int, ...]
    y: tuple[int, ...]

    def apply(self, g: Graph) -> Graph:
        return bipartite_complement(g, self.x, self.y)

    def to_json(self) -> dict:
        return {"op": "bc", "x": list(self.x), "y": list(self.y)}


@dataclass(frozen=True)
class DeleteVertex:
    """Remove vertex ``v`` and renumber the rest (see :func:`apply_script`)."""

    v: int

    def to_json(self) -> dict:
        return {"op": "del", "v": self.v}


def _vertices(step_index: int, raw) -> tuple[int, ...]:
    """Vertices of a script step read from JSON: each must be a
    non-negative int below the vertex cap, and ``bool`` does not count as
    one."""
    vs = tuple(raw)
    for v in vs:
        if type(v) is not int or v < 0:
            raise OpScriptError(step_index, f"vertex {v!r} is not a non-negative integer")
        if v >= MAX_VERTICES:
            raise OpScriptError(step_index, f"vertex {v} exceeds the cap of {MAX_VERTICES}")
    return vs


OpStep = Union[SubgraphComplement, BipartiteComplement, DeleteVertex]


@dataclass(frozen=True)
class OpScript:
    """An ordered list of operations, applied sequentially."""

    steps: tuple[OpStep, ...] = ()

    def to_json(self) -> list:
        return [step.to_json() for step in self.steps]

    @staticmethod
    def from_json(obj: list) -> "OpScript":
        if not isinstance(obj, list):
            raise ValueError("an op script must be a JSON list of steps")
        steps: list[OpStep] = []
        for i, raw in enumerate(obj):
            try:
                op = raw["op"]
                if op == "sc":
                    steps.append(SubgraphComplement(_vertices(i, raw["s"])))
                elif op == "bc":
                    x, y = _vertices(i, raw["x"]), _vertices(i, raw["y"])
                    steps.append(BipartiteComplement(x, y))
                elif op == "del":
                    steps.append(DeleteVertex(*_vertices(i, [raw["v"]])))
                else:
                    raise OpScriptError(i, f"unknown op {op!r}")
            except (KeyError, TypeError) as exc:
                raise OpScriptError(i, f"malformed step: {exc}") from exc
        return OpScript(tuple(steps))


def apply_script(g: Graph, script: OpScript) -> Graph:
    """Apply the steps in order; a failing step raises :class:`OpScriptError`
    with its index.  A run of ``del`` steps is one ``induced`` call on the
    survivors, each step's vertex read in the numbering the steps before it
    leave."""
    alive = None
    for i, step in enumerate(script.steps):
        if type(step) is DeleteVertex:
            if alive is None:
                alive = list(range(g.n))
            if not 0 <= step.v < len(alive):
                raise OpScriptError(i, f"vertex {step.v} out of range")
            del alive[step.v]
            continue
        if alive is not None:
            g, alive = induced(g, alive), None
        try:
            g = step.apply(g)
        except ValueError as exc:
            raise OpScriptError(i, str(exc)) from exc
    return g if alive is None else induced(g, alive)


def split_labels(
    lg: LabelledGraph, z: Iterable[int], order: QuasiOrder
) -> tuple[LabelledGraph, QuasiOrder]:
    """Rewrite labels over two incomparable copies of ``order``: vertices in
    ``z`` move to copy 1, the rest to copy 0.  An embedding between two
    graphs labelled this way is forced to map marked vertices to marked
    vertices and unmarked to unmarked.
    """
    zmask = mask_of(z)
    if zmask & ~lg.graph.mask:
        raise ValueError("vertex out of range")
    doubled = order.doubled()
    labels = tuple(
        (1 if zmask >> v & 1 else 0, lab) for v, lab in enumerate(lg.labels)
    )
    return LabelledGraph(lg.graph, labels), doubled
