"""Spans around the calls into each layer of hyperdefect, kept in memory.

`Tracer.install` replaces module attributes with timing wrappers and
`Tracer.uninstall` puts the originals back; nothing under src/ changes.
`monomials` is not wrapped: it is called once per matrix entry from
`koszul`, so its time is part of `koszul.assemble`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

# span name -> self-time row of the report
SELF_TIME_ROWS = {
    "polynomials.parse": "polynomials.parse_s",
    "koszul.assemble": "koszul.assemble_s",
    "koszul.densify": "koszul.densify_s",
    "ranks.modp": "ranks.modp_s",
    "ranks.exact": "ranks.exact_s",
    "ranks.multimodular": "ranks.self_s",
    "invariants.defect": "invariants.self_s",
    "cli.report": "cli.report_s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    input_id: str | None
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "input": self.input_id,
            **self.attrs,
        }


def shape_of(matrix) -> tuple[int, int]:
    """(rows, cols) of a SparseIntMatrix or a 2-d array."""
    if hasattr(matrix, "rows"):
        return matrix.rows, matrix.cols
    return tuple(matrix.shape)


def elimination_ops(rows: int, cols: int, rank: int) -> int:
    """Multiply and subtract operations of Gaussian elimination, computed
    from shape and rank: pivot k updates (rows-k-1) x (cols-k-1) cells."""
    return sum(2 * (rows - k - 1) * (cols - k - 1) for k in range(rank))


class Tracer:
    """Records one span per wrapped call, with its parent and input id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.input_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._blocks: dict[str | None, dict[tuple[int, int], str]] = {}

    def wrap(self, name: str, fn, describe=None):
        """`fn` timed as span `name`; `describe(args, result)` adds attributes."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, parent, self.input_id)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.attrs.update(describe(args, result))
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, describe=None) -> None:
        """Wrap `owner.attribute`; a boundary the program no longer has raises
        AttributeError, so the benchmark moves with the boundaries."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, describe))

    def install(self, hd) -> None:
        """Wrap the library's layer boundaries.  `invariants` imports
        `assemble_phi` and `rank_multimodular` by name, so they are patched
        there; `rank_multimodular` looks up `rank_mod_p` and `rank_exact`
        in `ranks` at call time."""
        self.patch(hd.invariants, "assemble_phi", "koszul.assemble", self._describe_blocks)
        self.patch(hd.invariants, "rank_multimodular", "ranks.multimodular")
        self.patch(hd.ranks, "rank_mod_p", "ranks.modp", self._describe_modp)
        self.patch(hd.ranks, "rank_exact", "ranks.exact", _describe_cells)
        self.patch(hd.koszul.SparseIntMatrix, "to_dense", "koszul.densify", _describe_cells)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _describe_blocks(self, args, blocks) -> dict:
        shapes: dict[tuple[int, int], str] = {}
        for label in ("wedge_low", "wedge_high", "full"):
            shape = shape_of(getattr(blocks, label))
            # a shape shared by two blocks cannot attribute a call
            shapes[shape] = "ambiguous" if shape in shapes else label
        self._blocks[self.input_id] = shapes
        nnz = sum(
            getattr(blocks, label).nnz
            for label in ("wedge_low", "wedge_high", "derivative", "full")
        )
        return {"nnz": nnz, "wedge_high_shape": list(shape_of(blocks.wedge_high))}

    def _describe_modp(self, args, rank) -> dict:
        rows, cols = shape_of(args[0])
        block = self._blocks.get(self.input_id, {}).get((rows, cols), "unmatched")
        return {"rows": rows, "cols": cols, "rank": rank, "block": block}


def _describe_cells(args, result) -> dict:
    rows, cols = shape_of(args[0])
    return {"cells": rows * cols}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per row: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    rows = dict.fromkeys(SELF_TIME_ROWS.values(), 0.0)
    for span, children in zip(spans, child_time):
        rows[SELF_TIME_ROWS[span.name]] += span.end - span.start - children
    return rows


def layer_counts(spans: list[Span]) -> dict[str, float]:
    """Work counted at the layer boundaries, summed over all spans."""
    counts = {
        "polynomials.terms": 0,
        "koszul.nnz": 0,
        "koszul.cells": 0,
        "ranks.modp_calls": 0,
        "ranks.modp_ops": 0,
        "ranks.modp_s.wedge_low": 0.0,
        "ranks.modp_s.wedge_high": 0.0,
        "ranks.modp_s.full": 0.0,
        "ranks.exact_calls": 0,
        "ranks.exact_cells": 0,
    }
    for span in spans:
        if span.name == "polynomials.parse":
            counts["polynomials.terms"] += span.attrs["terms"]
        elif span.name == "koszul.assemble":
            counts["koszul.nnz"] += span.attrs["nnz"]
        elif span.name == "koszul.densify":
            counts["koszul.cells"] += span.attrs["cells"]
        elif span.name == "ranks.modp":
            counts["ranks.modp_calls"] += 1
            counts["ranks.modp_ops"] += elimination_ops(
                span.attrs["rows"], span.attrs["cols"], span.attrs["rank"]
            )
            key = f"ranks.modp_s.{span.attrs['block']}"
            if key in counts:
                counts[key] += span.end - span.start
        elif span.name == "ranks.exact":
            counts["ranks.exact_calls"] += 1
            counts["ranks.exact_cells"] += span.attrs["cells"]
    return counts
