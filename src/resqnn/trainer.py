"""Update generators and the training loop.

Training maximizes ``c_sv + gamma * c_g`` by rotating every perceptron once
per epoch: ``U <- exp(i * epsilon * K) @ U`` with a Hermitian generator ``K``
computed synchronously from the epoch-start unitaries. ``K`` is linear in
the learning rate ``eta``, so only ``epsilon * eta`` reaches the unitaries;
training takes ``eta = 1`` and the step size alone sets the rate.

Analytic generators
-------------------
For perceptron ``j`` of layer ``l`` the generator is built from commutators
of two operators on the layer's workspace (previous-layer qubits plus this
layer's qubits):

* the *forward* operator: one vertex's recorded layer input (shortcut
  additions included), tensored with ancilla projectors and conjugated by the
  layer's perceptrons up to and including ``j``;
* the *backward* operator: that vertex's seed pulled back through the adjoint
  of everything downstream — remaining perceptrons of this layer, deeper
  layers, and the corner-block adjoints of downstream shortcuts.

``K_j^l = eta * 2**m_{l-1} * i * sum_v tr_rest([forward_v, backward(seed_v)])``
where ``tr_rest`` keeps only the qubits perceptron ``j`` acts on. Because
shortcut additions enter both the recorded inputs and the adjoint pull-back,
expanding the commutators reproduces one term per forward/backward path
through the network, each path exactly once.

Both cost terms share one backward pass per vertex, seeded with

    seed_v = [v in S] / S * |phi_v><phi_v| + 2 * gamma * sum_w L_vw rho_w

(``S`` supervised vertices, targets ``phi_v``, final outputs ``rho_w``, graph
Laplacian ``L = D - A``). The paper's graph generator sums, over unordered
neighbor pairs, the pass of ``in_v - in_w`` seeded with ``rho_v - rho_w`` at
prefactor ``2**(m_{l-1}+1)``. The commutator is bilinear in (forward input,
seed), so summing the pairs leaves vertex ``v`` the seed
``sum_w A_vw (rho_v - rho_w) = (L rho)_v``; the gamma term carries the factor
2 because its prefactor is twice the supervised one. Vertices whose seed is
exactly zero (unsupervised ones at gamma 0) run no pass.

Finite-difference oracle
------------------------
``k_numeric_oracle`` rebuilds the same K from one objective, the blended cost

    C = c_sv + gamma * GRAPH_GRADIENT_SCALE * c_g,

differentiated by central differences under ``U -> exp(i * theta * P) @ U``
for every Pauli direction ``P`` of each perceptron. Pauli completeness
(``H = sum_P tr(H P) P / 2**n``) fixes the assembly constant exactly: with
``t`` flagged layers, ``K = eta * 2**(t-1) * sum_P (dC/dtheta_P) P``.
``GRAPH_GRADIENT_SCALE = 0.5`` reflects that the graph *cost* sums ordered
pairs (each edge twice) while the graph *generator* sums each edge once; it
was calibrated once against the oracle and is asserted stable by the test
suite. At ``gamma = 0`` only the supervised vertices are re-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cost import (
    CostReport,
    _neighbor_weights,
    cost_full,
    cost_graph,
    cost_supervised,
    cost_test,
)
from .graphdata import GraphDataset
from .netcore import (
    Architecture,
    ArchitectureError,
    ForwardRecord,
    LayerUnitaries,
    _corner_block,
    _frozen_layers,
    _ground_columns,
    _layer_chain,
    _perceptron_targets,
    embed_network,
    forward,
    init_unitaries,
)
from .qlinalg import (
    HERMITIAN_TOL,
    DimensionError,
    PureState,
    _pauli_stack,
    embed_operator,
    exp_i_hermitian,
    ptrace_qubits,
    tensor_product,
)

__all__ = [
    "GRAPH_GRADIENT_SCALE",
    "TrainingConfig",
    "TrainingTrace",
    "UpdateGenerators",
    "graph_generators",
    "k_full",
    "k_numeric_oracle",
    "supervised_generators",
    "train",
    "update_step",
]

#: Ratio between the graph generator's normalization and the gradient of the
#: ordered-pair graph cost; see the module docstring.
GRAPH_GRADIENT_SCALE = 0.5

#: Plateau annotation: |delta c_full| below this for PLATEAU_WINDOW epochs.
PLATEAU_TOL = 1e-7
PLATEAU_WINDOW = 20


def _check_hermitian(mat: np.ndarray, where: str) -> None:
    defect = np.abs(mat - mat.conj().T).max()
    if defect > HERMITIAN_TOL * max(1.0, np.abs(mat).max()):
        raise ValueError(f"{where} deviates from Hermiticity by {defect:.3e}")


@dataclass(frozen=True)
class UpdateGenerators:
    """One Hermitian generator per perceptron, mirroring ``LayerUnitaries``."""

    arch: Architecture
    layers: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        layers = _frozen_layers(self.arch, self.layers, "generator", _check_hermitian)
        object.__setattr__(self, "layers", layers)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one training run."""

    epochs: int
    seed: int = 0
    epsilon: float = 0.01
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.gamma > 0:
            raise ValueError(f"gamma must be non-positive, got {self.gamma}")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-epoch cost reports (measured after each update) plus the outcome."""

    arch: Architecture
    config: TrainingConfig
    initial_report: CostReport
    reports: tuple[CostReport, ...]
    wall_ms: tuple[float, ...]
    final_unitaries: LayerUnitaries
    plateau_epoch: int | None = field(default=None)

    @property
    def final_report(self) -> CostReport:
        return self.reports[-1] if self.reports else self.initial_report


# ---------------------------------------------------------------------------
# Analytic engine
# ---------------------------------------------------------------------------


def _layer_pass(
    arch: Architecture,
    layer: int,
    embedded_layer: Sequence[np.ndarray],
    rho_in_matrix: np.ndarray,
    back_matrix: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Commutator contributions of one layer plus the pulled-back operator.

    Returns ``i * tr_rest([forward_j, backward_j])`` for every perceptron
    ``j``, and the back operator propagated to the previous layer's qubits
    (adjoint of the layer map, before any shortcut corner term).
    """
    width_in, width_out = arch.width_in(layer), arch.width_out(layer)
    space = width_in + width_out

    # Backward: back_{p-1} = u_p^dagger back_p u_p, keeping ys[p] = u_p^dagger back_p;
    # for the first perceptron only its ground columns ``first`` act.
    back = tensor_product(np.eye(2**width_in, dtype=np.complex128), back_matrix)
    ys = [None] * width_out
    for p in range(width_out - 1, 0, -1):
        u = embedded_layer[p]
        ys[p] = u.conj().T @ back
        back = ys[p] @ u
    first = _ground_columns(embedded_layer[0], width_in, width_out)
    ys[0] = first.conj().T @ back

    # Forward: the state after perceptron p is left_p @ right_p, and
    # right_p @ back_p = ys[p], so tr_rest(fwd_p back_p) = tr_rest(left_p ys[p]).
    chain = _layer_chain(rho_in_matrix, width_in, width_out, embedded_layer)
    halves = [
        ptrace_qubits(left, space, _perceptron_targets(width_in, p), right=ys[p])
        for p, (left, _) in enumerate(chain)
    ]
    # Both operators are Hermitian, so [fwd, back] = X - X^dagger with
    # X = fwd @ back, and the partial trace commutes with the dagger.
    contribs = [1j * (half - half.conj().T) for half in halves]
    return contribs, ys[0] @ first


def _vertex_seeds(
    records: Sequence[ForwardRecord],
    supervised: Sequence[int],
    targets: Sequence[PureState],
    gamma: float,
    adjacency: np.ndarray | None,
) -> np.ndarray:
    """Per-vertex backward seeds ``[v in S]/|S| |phi_v><phi_v| + 2 gamma (L rho^out)_v``."""
    dim = records[0].final.matrix.shape[0]
    if gamma == 0.0:
        seeds = np.zeros((len(records), dim, dim), dtype=np.complex128)
    else:
        seeds = 2.0 * gamma * _laplacian_seeds(records, adjacency)
    for v, phi in zip(supervised, targets):
        seeds[v] += np.outer(phi.amplitudes, phi.amplitudes.conj()) / len(targets)
    return seeds


def _laplacian_seeds(records: Sequence[ForwardRecord], adjacency: np.ndarray) -> np.ndarray:
    """``sum_w L_vw rho_w^out`` for every vertex ``v``, with ``L = D - A``."""
    adj = _neighbor_weights(adjacency, len(records))
    laplacian = np.diag(adj.sum(axis=1)) - adj
    finals = np.stack([rec.final.matrix for rec in records])
    return np.tensordot(laplacian, finals, axes=1)


def _vertex_generators(
    arch: Architecture,
    embedded: list[list[np.ndarray]],
    records: Sequence[ForwardRecord],
    seeds: np.ndarray,
    eta: float,
) -> UpdateGenerators:
    """``eta * 2**m_{l-1} * sum_v i tr_rest([forward_v, backward(seed_v)])``.

    One backward pass per vertex whose seed is not exactly zero: the seed is
    pulled back layer by layer against the vertex's own recorded inputs, and
    flagged layers also contribute their shortcut's corner-block adjoint.
    """
    acc = [
        [np.zeros((2 ** (arch.width_in(l) + 1),) * 2, dtype=np.complex128)
         for _ in range(arch.width_out(l))]
        for l in range(arch.num_unitary_layers)
    ]
    for rec, seed in zip(records, seeds):
        if not seed.any():
            continue
        back = seed
        for l in range(arch.num_unitary_layers - 1, -1, -1):
            contribs, pulled = _layer_pass(
                arch, l, embedded[l], rec.layer_inputs[l].matrix, back
            )
            for p, c in enumerate(contribs):
                acc[l][p] += c
            if arch.is_residual(l):
                pulled = pulled + _corner_block(back, arch.width_in(l), arch.delta_m(l))
            back = pulled
    layers = tuple(
        tuple(eta * 2.0 ** arch.width_in(l) * k for k in layer) for l, layer in enumerate(acc)
    )
    return UpdateGenerators(arch, layers)


def supervised_generators(
    arch: Architecture,
    unitaries: LayerUnitaries,
    records: Sequence[ForwardRecord],
    targets: Sequence[PureState],
    eta: float = 1.0,
    embedded: list[list[np.ndarray]] | None = None,
) -> UpdateGenerators:
    """Ascent generators for the supervised cost, any depth and flag pattern."""
    if len(records) != len(targets) or not records:
        raise DimensionError(
            f"need matching non-empty records/targets, got {len(records)}/{len(targets)}"
        )
    if embedded is None:
        embedded = embed_network(arch, unitaries)
    seeds = _vertex_seeds(records, range(len(records)), targets, 0.0, None)
    return _vertex_generators(arch, embedded, records, seeds, eta)


def graph_generators(
    arch: Architecture,
    unitaries: LayerUnitaries,
    records: Sequence[ForwardRecord],
    adjacency: np.ndarray,
    eta: float = 1.0,
    embedded: list[list[np.ndarray]] | None = None,
) -> UpdateGenerators:
    """Ascent generators for the graph cost (sum over unordered neighbor pairs).

    Training subtracts these (``gamma <= 0``), shrinking the output spread
    between adjacent vertices.
    """
    seeds = _laplacian_seeds(records, adjacency)
    if embedded is None:
        embedded = embed_network(arch, unitaries)
    return _vertex_generators(arch, embedded, records, seeds, 2.0 * eta)


def k_full(
    supervised: UpdateGenerators,
    graph: UpdateGenerators | None,
    gamma: float,
) -> UpdateGenerators:
    """Blend ``supervised + gamma * graph``; ``graph`` may be None iff gamma is 0."""
    if gamma > 0:
        raise ValueError(f"gamma must be non-positive, got {gamma}")
    if graph is None:
        if gamma != 0.0:
            raise ValueError("gamma != 0 requires graph generators")
        return supervised
    if graph.arch != supervised.arch:
        raise ArchitectureError("supervised and graph generators disagree on architecture")
    layers = tuple(
        tuple(ks + gamma * kg for ks, kg in zip(ls, lg))
        for ls, lg in zip(supervised.layers, graph.layers)
    )
    return UpdateGenerators(supervised.arch, layers)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def _dataset_records(
    arch: Architecture,
    unitaries: LayerUnitaries,
    dataset: GraphDataset,
    embedded: list[list[np.ndarray]],
) -> list[ForwardRecord]:
    return [
        forward(arch, unitaries, dataset.input_density(v), embedded=embedded)
        for v in range(dataset.spec.num_vertices)
    ]


def k_numeric_oracle(
    arch: Architecture,
    unitaries: LayerUnitaries,
    dataset: GraphDataset,
    gamma: float = 0.0,
    eta: float = 1.0,
    h: float = 1e-5,
) -> UpdateGenerators:
    """Finite-difference replacement for the analytic generators.

    Takes one central difference of ``c_sv + gamma * GRAPH_GRADIENT_SCALE * c_g``
    per Pauli direction ``P`` of each perceptron (premultiplied by
    ``exp(+-i * h * P)``) and assembles ``eta * 2**(t-1) * sum_P (dC/dtheta_P) P``;
    see the module docstring for why that constant reproduces the analytic
    normalization exactly. The identity direction is a global phase, hence
    exactly zero and skipped.
    """
    if gamma > 0:
        raise ValueError(f"gamma must be non-positive, got {gamma}")
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"finite-difference step must lie in [1e-7, 1e-3], got {h}")
    t = arch.residual_count
    supervised = dataset.spec.supervised_indices
    targets = list(dataset.supervised_targets)
    all_vertices = range(dataset.spec.num_vertices)
    vertices = all_vertices if gamma != 0.0 else supervised
    embedded = embed_network(arch, unitaries)
    records = _dataset_records(arch, unitaries, dataset, embedded)

    def blended_cost(patched: list[list[np.ndarray]], layer: int) -> float:
        """The objective after re-running layers ``layer..`` with ``patched``."""
        finals = {
            v: forward(
                arch, unitaries, records[v].layer_inputs[layer], embedded=patched,
                start_layer=layer,
            ).final
            for v in vertices
        }
        cost = cost_supervised([finals[v] for v in supervised], targets, t)
        if gamma != 0.0:
            c_g = cost_graph([finals[v] for v in all_vertices], dataset.adjacency, t)
            cost += gamma * GRAPH_GRADIENT_SCALE * c_g
        return cost

    cos_h, sin_h = np.cos(h), np.sin(h)
    layers = []
    for l in range(arch.num_unitary_layers):
        width_in, space = arch.width_in(l), arch.width_in(l) + arch.width_out(l)
        space_paulis = _pauli_stack(width_in + 1)
        layer = []
        for p in range(arch.width_out(l)):
            base, qubits = embedded[l][p], _perceptron_targets(width_in, p)
            patched = [list(emb) for emb in embedded]
            grad = np.zeros(len(space_paulis))
            for a in range(1, len(space_paulis)):
                rotated = embed_operator(space_paulis[a], qubits, space) @ base
                patched[l][p] = cos_h * base + 1j * sin_h * rotated
                plus = blended_cost(patched, l)
                patched[l][p] = cos_h * base - 1j * sin_h * rotated
                grad[a] = (plus - blended_cost(patched, l)) / (2 * h)
            layer.append(eta * 2.0 ** (t - 1) * np.tensordot(grad, space_paulis, axes=1))
        layers.append(tuple(layer))
    return UpdateGenerators(arch, tuple(layers))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def update_step(
    unitaries: LayerUnitaries, generators: UpdateGenerators, epsilon: float
) -> LayerUnitaries:
    """Rotate every perceptron: ``U <- exp(i * epsilon * K) @ U``."""
    if generators.arch != unitaries.arch:
        raise ArchitectureError("generators do not match the unitaries' architecture")
    layers = tuple(
        tuple(exp_i_hermitian(k, epsilon) @ u for u, k in zip(us, ks))
        for us, ks in zip(unitaries.layers, generators.layers)
    )
    return LayerUnitaries(unitaries.arch, layers)


def _cost_report(
    arch: Architecture, dataset: GraphDataset, records: Sequence[ForwardRecord], gamma: float
) -> CostReport:
    t = arch.residual_count
    sup = dataset.spec.supervised_indices
    c_sv = cost_supervised([records[v].final for v in sup], list(dataset.supervised_targets), t)
    c_g = cost_graph([rec.final for rec in records], dataset.adjacency, t)
    c_t = cost_test(
        [records[v].final for v in dataset.spec.test_indices], list(dataset.test_targets), t
    )
    return CostReport(c_sv=c_sv, c_g=c_g, c_full=cost_full(c_sv, c_g, gamma), c_test=c_t)


def _analytic_generators(
    arch: Architecture,
    dataset: GraphDataset,
    records: Sequence[ForwardRecord],
    config: TrainingConfig,
    embedded: list[list[np.ndarray]],
) -> UpdateGenerators:
    """``k_full`` of both cost terms from one backward pass per vertex."""
    seeds = _vertex_seeds(
        records,
        dataset.spec.supervised_indices,
        dataset.supervised_targets,
        config.gamma,
        dataset.adjacency,
    )
    return _vertex_generators(arch, embedded, records, seeds, 1.0)


def _plateau_epoch(values: Sequence[float]) -> int | None:
    streak = 0
    for e in range(1, len(values)):
        if abs(values[e] - values[e - 1]) < PLATEAU_TOL:
            streak += 1
            if streak >= PLATEAU_WINDOW:
                return e
        else:
            streak = 0
    return None


def train(
    arch: Architecture,
    dataset: GraphDataset,
    config: TrainingConfig,
    initial_unitaries: LayerUnitaries | None = None,
) -> TrainingTrace:
    """Run the epoch loop; deterministic given (arch, dataset, config).

    Each epoch computes the closed-form generators from the epoch-start
    unitaries, applies one synchronous rotation to every perceptron, then
    records all four costs at the new unitaries.
    """
    if dataset.input_qubits != arch.input_qubits:
        raise DimensionError(
            f"dataset states have {dataset.input_qubits} qubits, "
            f"architecture expects {arch.input_qubits}"
        )
    unitaries = initial_unitaries or init_unitaries(
        arch, np.random.default_rng([config.seed, 1])
    )
    if unitaries.arch != arch:
        raise ArchitectureError("initial unitaries do not match the architecture")

    embedded = embed_network(arch, unitaries)
    records = _dataset_records(arch, unitaries, dataset, embedded)
    initial_report = _cost_report(arch, dataset, records, config.gamma)

    reports: list[CostReport] = []
    wall: list[float] = []
    for _ in range(config.epochs):
        t0 = time.perf_counter()
        generators = _analytic_generators(arch, dataset, records, config, embedded)
        unitaries = update_step(unitaries, generators, config.epsilon)
        embedded = embed_network(arch, unitaries)
        records = _dataset_records(arch, unitaries, dataset, embedded)
        reports.append(_cost_report(arch, dataset, records, config.gamma))
        wall.append((time.perf_counter() - t0) * 1000.0)

    plateau = _plateau_epoch([initial_report.c_full] + [r.c_full for r in reports])
    return TrainingTrace(
        arch=arch,
        config=config,
        initial_report=initial_report,
        reports=tuple(reports),
        wall_ms=tuple(wall),
        final_unitaries=unitaries,
        plateau_epoch=plateau,
    )
