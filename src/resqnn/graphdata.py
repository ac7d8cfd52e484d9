"""Graph-structured quantum datasets.

A dataset is a graph over ``n`` vertices, one pure input state per vertex,
a hidden target unitary ``V``, and a subset of supervised vertices. Targets
are always ``V`` applied to the inputs; supervised vertices expose theirs to
training while the rest are held out for testing. Edges connect vertices
whose input states were generated close together, so a well-chosen graph is
side information about the hidden labels.

Built-in topologies:

* ``line`` — a chain; inputs interpolate between two random endpoint states
  (vertex ``x`` sits at parameter ``x / (n - 1)``, renormalized), so chain
  neighbors are closer than distant vertices.
* ``connected_clusters`` — two cliques of ``ceil(n/2)`` and ``floor(n/2)``
  vertices joined by a single bridge edge; inputs are per-cluster random
  centers plus Gaussian noise of scale ``delta``, renormalized.
* ``custom`` — any edge list; inputs are independent random states.

Generation is a pure function of (spec, qubit count, delta, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .qlinalg import (
    MAX_DENSE_BYTES,
    DimensionError,
    OperatorState,
    PureState,
    _complex_to_pairs,
    _pairs_to_complex,
    haar_random_unitary,
    random_pure_state,
)

__all__ = [
    "TOPOLOGIES",
    "GraphSpec",
    "GraphDataset",
    "build_graph_spec",
    "check_graph_size",
    "default_supervised_indices",
    "generate_dataset",
    "load_dataset",
    "save_dataset",
]

TOPOLOGIES = ("line", "connected_clusters", "custom")

#: Default noise scale for cluster datasets.
DEFAULT_DELTA = 0.3
#: Bytes one edge holds while a graph is built: its tuple plus GraphSpec's
#: validation entries (``tracemalloc``: 173-180 at 400-1,000 cluster vertices).
EDGE_BYTES = 200


@dataclass(frozen=True)
class GraphSpec:
    """Graph topology plus the choice of supervised vertices."""

    topology: str
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    supervised_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}, expected one of {TOPOLOGIES}")
        n = int(self.num_vertices)
        if n < 1:
            raise ValueError(f"need at least one vertex, got {n}")
        canonical = []
        seen = set()
        for edge in self.edges:
            v, w = (int(edge[0]), int(edge[1]))
            if v == w:
                raise ValueError(f"self-loop at vertex {v}")
            if not (0 <= v < n and 0 <= w < n):
                raise ValueError(f"edge {edge} out of range for {n} vertices")
            pair = (min(v, w), max(v, w))
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            canonical.append(pair)
        sup = tuple(sorted(int(i) for i in self.supervised_indices))
        if len(set(sup)) != len(sup):
            raise ValueError(f"duplicate supervised indices {sup}")
        if any(i < 0 or i >= n for i in sup):
            raise ValueError(f"supervised indices {sup} invalid for {n} vertices")
        object.__setattr__(self, "num_vertices", n)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))
        object.__setattr__(self, "supervised_indices", sup)

    @property
    def test_indices(self) -> tuple[int, ...]:
        supervised = set(self.supervised_indices)
        return tuple(v for v in range(self.num_vertices) if v not in supervised)


def default_supervised_indices(num_vertices: int, num_supervised: int) -> tuple[int, ...]:
    """Evenly spread supervised vertices: the i-th sits at ceil(i * n / s)."""
    if not 0 <= num_supervised <= num_vertices:
        raise ValueError(
            f"need 0 <= supervised <= {num_vertices}, got {num_supervised}"
        )
    return tuple(math.ceil(i * num_vertices / num_supervised) for i in range(num_supervised))


def _line_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((v, v + 1) for v in range(n - 1))


def _cluster_sizes(n: int) -> tuple[int, int]:
    return (n + 1) // 2, n // 2


def _cluster_edges(n: int) -> tuple[tuple[int, int], ...]:
    if n < 2:
        raise ValueError("clusters need at least two vertices")
    first, _ = _cluster_sizes(n)
    edges = [(v, w) for v in range(first) for w in range(v + 1, first)]
    edges += [(v, w) for v in range(first, n) for w in range(v + 1, n)]
    edges.append((first - 1, first))  # bridge between the two cliques
    return tuple(edges)


def check_graph_size(topology: str, num_vertices: int, num_edges: int | None = None) -> None:
    """Reject a graph whose edge list and one ``V x V`` matrix would exceed ``MAX_DENSE_BYTES``.

    ``num_edges`` defaults to the closed-form edge count of the ``line`` or
    ``connected_clusters`` topology, so nothing is built to take the estimate.
    """
    if num_edges is None:
        cliques = sum(size * (size - 1) // 2 for size in _cluster_sizes(num_vertices))
        num_edges = num_vertices - 1 if topology == "line" else cliques + 1
    try:
        estimate = EDGE_BYTES * num_edges + 8.0 * num_vertices**2
    except OverflowError:
        estimate = float("inf")
    if estimate > MAX_DENSE_BYTES:
        raise ValueError(
            f"a {topology} graph on {num_vertices:,} vertices ({num_edges:,} edges) needs "
            f"{estimate / 2**30:,.1f} GiB for its edge list and one V x V matrix, more "
            f"than the {MAX_DENSE_BYTES / 2**30:g} GiB limit"
        )


def build_graph_spec(
    topology: str,
    num_vertices: int,
    num_supervised: int,
    edges: Sequence[tuple[int, int]] | None = None,
) -> GraphSpec:
    """Assemble a :class:`GraphSpec` for a built-in or custom topology.

    Graphs over the memory budget are rejected before any edge is built.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}, expected one of {TOPOLOGIES}")
    if topology == "custom":
        if edges is None:
            raise ValueError("custom topology needs an explicit edge list")
    elif edges is not None:
        raise ValueError(f"{topology} topology builds its own edges")
    check_graph_size(topology, num_vertices, None if edges is None else len(edges))
    if topology == "line":
        built = _line_edges(num_vertices)
    elif topology == "connected_clusters":
        built = _cluster_edges(num_vertices)
    else:
        built = tuple(tuple(e) for e in edges)
    supervised = default_supervised_indices(num_vertices, num_supervised)
    return GraphSpec(topology, num_vertices, built, supervised)


@dataclass(frozen=True)
class GraphDataset:
    """Inputs, hidden target unitary, and supervision split for one graph."""

    spec: GraphSpec
    input_qubits: int
    delta: float
    seed: int | None
    inputs: tuple[PureState, ...]
    target_unitary: np.ndarray

    def __post_init__(self) -> None:
        if len(self.inputs) != self.spec.num_vertices:
            raise DimensionError(
                f"{len(self.inputs)} inputs for {self.spec.num_vertices} vertices"
            )
        if any(psi.num_qubits != self.input_qubits for psi in self.inputs):
            raise DimensionError("all inputs must live on input_qubits qubits")
        v = np.asarray(self.target_unitary, dtype=np.complex128)
        dim = 2**self.input_qubits
        if v.shape != (dim, dim):
            raise DimensionError(f"target unitary shape {v.shape}, expected {(dim, dim)}")
        if not np.abs(v @ v.conj().T - np.eye(dim)).max() <= 1e-9:  # NaN fails too
            raise ValueError("target unitary is not unitary")
        v = np.array(v)
        v.setflags(write=False)
        object.__setattr__(self, "target_unitary", v)
        object.__setattr__(self, "inputs", tuple(self.inputs))

    @cached_property
    def _input_densities(self) -> tuple[OperatorState, ...]:
        return tuple(psi.density() for psi in self.inputs)

    def input_density(self, vertex: int) -> OperatorState:
        """Density matrix of one vertex's input state."""
        return self._input_densities[vertex]

    # The dataset is frozen, so the states and matrices training reads every
    # epoch are built once, on first use; the arrays are read-only.
    @cached_property
    def supervised_targets(self) -> tuple[PureState, ...]:
        amps = self.target_amplitudes
        return tuple(PureState(amps[v], self.input_qubits) for v in self.spec.supervised_indices)

    @cached_property
    def target_amplitudes(self) -> np.ndarray:
        """``(V, 2**input_qubits)`` stack of every vertex's hidden label."""
        return _read_only(np.array([self.target_unitary @ psi.amplitudes for psi in self.inputs]))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Symmetric 0/1 adjacency matrix of the graph."""
        rows, cols, weights = self.neighbor_weights
        adj = np.zeros((self.spec.num_vertices,) * 2)
        adj[rows, cols] = adj[cols, rows] = weights
        return _read_only(adj)

    @cached_property
    def neighbor_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and unit weights of the edges ``v < w``, in ``spec.edges`` order.

        ``spec.edges`` are already sorted, unique, ``v < w`` pairs, so no adjacency is built.
        """
        pairs = np.array(self.spec.edges, dtype=np.intp).reshape(-1, 2).T.copy()
        return tuple(map(_read_only, (pairs[0], pairs[1], np.ones(pairs.shape[1]))))

    @cached_property
    def laplacian(self) -> np.ndarray:
        """Graph Laplacian ``D - A`` of :attr:`neighbor_weights`, written without a dense ``A``."""
        rows, cols, weights = self.neighbor_weights
        n = self.spec.num_vertices
        lap = np.zeros((n, n))
        lap[rows, cols] = lap[cols, rows] = -weights
        np.fill_diagonal(lap, np.bincount(rows, weights, n) + np.bincount(cols, weights, n))
        return _read_only(lap)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _interpolated_line_states(
    n: int, num_qubits: int, rng: np.random.Generator
) -> list[PureState]:
    start = random_pure_state(num_qubits, rng)
    end = random_pure_state(num_qubits, rng)
    # Rephase the far endpoint so the chord between the two never collapses
    # and interpolation distance grows monotonically with vertex separation.
    overlap = np.vdot(start.amplitudes, end.amplitudes)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    end_amp = end.amplitudes * np.conj(phase)
    states = []
    for x in range(n):
        tau = x / (n - 1) if n > 1 else 0.0
        amp = (1.0 - tau) * start.amplitudes + tau * end_amp
        states.append(PureState(amp / np.linalg.norm(amp), num_qubits))
    return states


def _clustered_states(n: int, num_qubits: int, delta: float, rng: np.random.Generator) -> list[PureState]:
    first, second = _cluster_sizes(n)
    states = []
    for size in (first, second):
        center = random_pure_state(num_qubits, rng)
        for _ in range(size):
            noise = rng.standard_normal(2**num_qubits) + 1j * rng.standard_normal(2**num_qubits)
            amp = center.amplitudes + delta * noise
            states.append(PureState(amp / np.linalg.norm(amp), num_qubits))
    return states


def generate_dataset(
    spec: GraphSpec,
    input_qubits: int,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> GraphDataset:
    """Draw vertex inputs per the graph's topology, then the hidden target unitary.

    Deterministic in ``seed``; the stream is independent of any seed used for
    network initialization (sub-key 0 is reserved for data).
    """
    if not 0 < delta < np.inf:
        raise ValueError(f"closeness scale delta must be positive and finite, got {delta}")
    rng = np.random.default_rng([seed, 0])
    if spec.topology == "line":
        states = _interpolated_line_states(spec.num_vertices, input_qubits, rng)
    elif spec.topology == "connected_clusters":
        states = _clustered_states(spec.num_vertices, input_qubits, delta, rng)
    else:
        states = [random_pure_state(input_qubits, rng) for _ in range(spec.num_vertices)]
    target = haar_random_unitary(input_qubits, rng)
    return GraphDataset(spec, input_qubits, float(delta), int(seed), tuple(states), target)


def save_dataset(path: str | Path, dataset: GraphDataset) -> None:
    """Write the dataset as JSON (states and target unitary as [re, im] pairs)."""
    payload = {
        "spec": {
            "topology": dataset.spec.topology,
            "num_vertices": dataset.spec.num_vertices,
            "edges": [list(e) for e in dataset.spec.edges],
            "supervised_indices": list(dataset.spec.supervised_indices),
        },
        "input_qubits": dataset.input_qubits,
        "delta": dataset.delta,
        "seed": dataset.seed,
        "states": [_complex_to_pairs(psi.amplitudes) for psi in dataset.inputs],
        "target_unitary": _complex_to_pairs(dataset.target_unitary),
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_dataset(path: str | Path) -> GraphDataset:
    """Inverse of :func:`save_dataset`; re-validates size, norms and unitarity."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        raw_spec = payload["spec"]
        check_graph_size(raw_spec["topology"], raw_spec["num_vertices"], len(raw_spec["edges"]))
        spec = GraphSpec(
            raw_spec["topology"],
            raw_spec["num_vertices"],
            tuple(tuple(e) for e in raw_spec["edges"]),
            tuple(raw_spec["supervised_indices"]),
        )
        input_qubits = int(payload["input_qubits"])
        states = tuple(
            PureState(_pairs_to_complex(raw), input_qubits) for raw in payload["states"]
        )
        target = _pairs_to_complex(payload["target_unitary"])
        return GraphDataset(
            spec, input_qubits, float(payload["delta"]), payload.get("seed"), states, target
        )
    except KeyError as exc:
        raise ValueError(f"malformed dataset {path}: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed dataset {path}: {exc}") from exc
