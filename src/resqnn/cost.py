"""Cost functions: supervised fidelity, graph smoothness, and their blend.

Training and the finite-difference oracle score ``(V, d, d)`` output stacks
through the same two kernels: a target fidelity mean and an edge-list sum.

All costs divide by ``2**residual_count`` so that a network whose carried
trace was inflated by ``t`` shortcut additions is still scored on a 0-to-1
fidelity scale. The graph term sums over *ordered* vertex pairs weighted by
the adjacency matrix, so each undirected edge counts twice.

The blended objective ``c_sv + gamma * c_g`` is maximized during training;
``gamma`` must be non-positive (the graph term measures spread between
neighbors, which training should shrink).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CostReport", "cost_full"]

#: Bytes of per-edge temporaries ``_graph_spread`` holds at once; edges beyond
#: that are summed in further chunks.
_SPREAD_CHUNK_BYTES = 2**22


def _mean_fidelity(finals: np.ndarray, amps: np.ndarray, residual_count: int) -> float:
    """Mean ``<phi_v|rho_v|phi_v> / 2**t`` of ``(V, d, d)`` outputs, ``(V, d)`` targets; or NaN."""
    if not len(amps):
        return float("nan")
    overlaps = np.einsum("vi,vij,vj->v", amps.conj(), finals, amps).real
    return float(overlaps.sum()) / (2.0**residual_count * len(amps))


def _graph_spread(finals: np.ndarray, neighbors: tuple, residual_count: int) -> float:
    """Hilbert-Schmidt spread of a ``(V, d, d)`` stack over both orders of ``neighbors`` edges."""
    rows, cols, weights = neighbors
    if rows.size == 0:
        return 0.0
    # A chunk holds two gathered outputs, their difference and its conjugate per edge.
    step = max(1, _SPREAD_CHUNK_BYTES // (4 * finals[0].nbytes))
    spread = np.zeros(rows.size)
    for start in range(0, rows.size, step):
        edges = slice(start, start + step)
        diff = finals[rows[edges]] - finals[cols[edges]]
        # ||d||_F^2 equals tr(d @ d) for Hermitian d and is exactly 0 when d is.
        spread[edges] = np.einsum("eij,eij->e", diff, diff.conj()).real
    return 2.0 * float(weights @ spread) / 2.0**residual_count


def cost_full(c_supervised: float, c_graph: float, gamma: float) -> float:
    """Blend ``c_supervised + gamma * c_graph``; requires ``gamma <= 0``."""
    if gamma > 0:
        raise ValueError(f"gamma must be non-positive, got {gamma}")
    return c_supervised + gamma * c_graph


@dataclass(frozen=True)
class CostReport:
    """One evaluation of all four costs at a fixed set of unitaries."""

    c_sv: float
    c_g: float
    c_full: float
    c_test: float

    def __post_init__(self) -> None:
        for name in ("c_sv", "c_g", "c_full", "c_test"):
            object.__setattr__(self, name, float(getattr(self, name)))
