"""Data-reuse analysis.

The paper observes (Section 5) that local memory only pays off when there
is *data reuse across threads*: the same input element is needed by several
work-items of a work group.  This analysis quantifies that reuse for a
kernel's input buffers and is used by the perforator to decide whether the
transformed kernel should stage data in local memory at all (the Inversion
benchmark, with a 1x1 footprint, has no reuse and its accurate version does
not use local memory).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import ast
from .access_patterns import AccessPatternInfo, analyze_kernel


@dataclass(frozen=True)
class ReuseInfo:
    """Reuse statistics for one input buffer within a work-group tile."""

    buffer: str
    accesses_per_item: int
    footprint_width: int
    footprint_height: int

    def unique_elements(self, tile_x: int, tile_y: int) -> int:
        """Unique input elements touched by a ``tile_x`` x ``tile_y`` work group."""
        halo_x = self.footprint_width - 1
        halo_y = self.footprint_height - 1
        return (tile_x + halo_x) * (tile_y + halo_y)

    def total_accesses(self, tile_x: int, tile_y: int) -> int:
        """Total element reads issued by the work group."""
        return self.accesses_per_item * tile_x * tile_y

    def reuse_factor(self, tile_x: int, tile_y: int) -> float:
        """Average number of work-items that read each unique element.

        A factor of 1.0 means no reuse (local-memory staging cannot help);
        the Gaussian 3x3 kernel on a 16x16 tile has a factor of ~7.1, the
        Sobel 5x5 kernel ~16.
        """
        unique = self.unique_elements(tile_x, tile_y)
        if unique == 0:
            return 0.0
        return self.total_accesses(tile_x, tile_y) / unique



def reuse_info(kernel: ast.FunctionDef, info: AccessPatternInfo | None = None) -> dict[str, ReuseInfo]:
    """Compute per-buffer reuse statistics for ``kernel``."""
    if info is None:
        info = analyze_kernel(kernel)
    result: dict[str, ReuseInfo] = {}
    for name, summary in info.input_buffers.items():
        width, height = summary.footprint
        result[name] = ReuseInfo(
            buffer=name,
            accesses_per_item=len(summary.offsets),
            footprint_width=max(width, 1),
            footprint_height=max(height, 1),
        )
    return result
