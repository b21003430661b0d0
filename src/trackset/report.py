"""Solve outcome reporting."""

from __future__ import annotations

import json

NO_PATH_REASON = "no s-t path; zero paths are vacuously tracked"
SEARCH_EXHAUSTED = "no tracking set of size <= {} (search exhausted)"


class SolveReport:
    """Outcome of a solve: YES with a witness or NO with a reason.

    Witness vertex/element ids are always in terms of the original input,
    with any reduction relabelings already undone. Reports compare by identity.
    """

    __slots__ = ("result",           # "YES" or "NO"
                 "witness",          # sorted ids when YES, else None
                 "paths",            # paths/sets counted, None if not counted
                 "paths_saturated",  # True when `paths` is a saturated lower estimate
                 "reductions",       # vertices deleted by reduction rules
                 "subsets_tried",    # candidate sets the hitting-set search tested
                 "reason")           # NO reason, or a YES note (e.g. zero paths)

    def __init__(self, result: str, witness: tuple[int, ...] | None = None,
                 paths: int | None = None, paths_saturated: bool = False,
                 reductions: int = 0, subsets_tried: int = 0, reason: str = ""):
        self.result, self.witness, self.paths = result, witness, paths
        self.paths_saturated, self.reductions = paths_saturated, reductions
        self.subsets_tried, self.reason = subsets_tried, reason

    def relabel(self, relab) -> None:
        """Map the witness through a ``VertexRelabeling`` to the ids it came from."""
        if self.witness is not None:
            self.witness = tuple(sorted(relab.map_set(self.witness)))

    def to_text(self) -> str:
        lines = [f"result: {self.result}"]
        if self.witness is not None:
            lines.append(" ".join(["witness:", *map(str, self.witness)]))
            lines.append(f"size: {len(self.witness)}")
        if self.paths is not None:
            suffix = "+" if self.paths_saturated else ""
            lines.append(f"paths: {self.paths}{suffix}")
        lines.append(f"reductions: {self.reductions}")
        lines.append(f"subsets_tried: {self.subsets_tried}")
        if self.reason:
            lines.append(f"reason: {self.reason}")
        return "\n".join(lines)

    def to_json(self) -> str:
        doc = {
            "result": self.result,
            "witness": list(self.witness) if self.witness is not None else None,
            "size": len(self.witness) if self.witness is not None else None,
            "paths": self.paths,
            "paths_saturated": self.paths_saturated,
            "reductions": self.reductions,
            "subsets_tried": self.subsets_tried,
            "reason": self.reason,
        }
        return json.dumps(doc, sort_keys=True)
