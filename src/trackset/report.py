"""Solve outcome reporting."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

NO_PATH_REASON = "no s-t path; zero paths are vacuously tracked"


@dataclass
class SolveReport:
    """Outcome of a solve: YES with a witness or NO with a reason.

    Witness vertex/element ids are always in terms of the original input,
    with any reduction relabelings already undone.
    """

    result: str                       # "YES" or "NO"
    witness: Optional[Tuple[int, ...]] = None   # sorted ids when YES
    paths: Optional[int] = None       # paths/sets counted, None if not counted
    paths_saturated: bool = False     # True when `paths` is a saturated lower estimate
    reductions: int = 0               # vertices deleted by reduction rules
    subsets_tried: int = 0            # candidate sets the hitting-set search tested
    reason: str = ""                  # NO reason, or a YES note (e.g. zero paths)

    def relabel(self, relab) -> None:
        """Map the witness through a ``VertexRelabeling`` to the ids it came from."""
        if self.witness is not None:
            self.witness = tuple(sorted(relab.map_set(self.witness)))

    @property
    def size(self) -> Optional[int]:
        return len(self.witness) if self.witness is not None else None

    def to_text(self) -> str:
        lines = [f"result: {self.result}"]
        if self.witness is not None:
            lines.append("witness: " + " ".join(str(v) for v in self.witness))
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
            "size": self.size,
            "paths": self.paths,
            "paths_saturated": self.paths_saturated,
            "reductions": self.reductions,
            "subsets_tried": self.subsets_tried,
            "reason": self.reason,
        }
        return json.dumps(doc, sort_keys=True)
