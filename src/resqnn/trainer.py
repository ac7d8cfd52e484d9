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

Both cost terms share one backward sweep over all vertices, seeded with

    seed_v = [v in S] / S * |phi_v><phi_v| + 2 * gamma * sum_w L_vw rho_w

(``S`` supervised vertices, targets ``phi_v``, final outputs ``rho_w``, graph
Laplacian ``L = D - A``). The paper's graph generator sums, over unordered
neighbor pairs, the pass of ``in_v - in_w`` seeded with ``rho_v - rho_w`` at
prefactor ``2**(m_{l-1}+1)``. The commutator is bilinear in (forward input,
seed), so summing the pairs leaves vertex ``v`` the seed
``sum_w A_vw (rho_v - rho_w) = (L rho)_v``; the gamma term carries the factor
2 because its prefactor is twice the supervised one. A self-loop ``A_vv``
cancels in ``(L rho)_v``. A dataset writes ``L`` from its edge list, and
``graph_generators`` forms ``diag(A 1) - A`` from the adjacency it is given.
``L`` is real, so ``L rho`` is one real product over the stack's real and
imaginary parts, with no complex copy of ``L``.

A layer acts through its prefix blocks ``P_p = u_p ... u_1 E`` (``E``
adjoins the ancillas in ``|0...0>``) and isometry ``W = P_m``. With
``G_v = W^dagger (I (x) B_v)`` for vertex ``v``'s backward operator ``B_v``
and ``M = sum_v rho_v G_v``, perceptron ``p`` takes
``tr_rest(P_p R_p)`` with ``R_p = M u_m ... u_{p+1}``, and ``B_v`` pulls back
to ``G_v W``. No perceptron is embedded in the workspace: the plan stores
``B_p = P_p^T``, and ``netcore._to_perceptron`` regroups a ``d_in x D``
matrix so that perceptron ``p``'s qubits form its last axis. Then
``R_{p-1} = from(to(R_p) @ u_p)`` and ``tr_rest(P_p R_p) = to(B_p)^T @ to(R_p)``.

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
suite. Each evaluation re-runs the vertices from the perturbed layer on through
``forward`` and scores the stacked outputs with training's kernels,
``cost._mean_fidelity`` and ``cost._graph_spread`` over the dataset's edge list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cost import CostReport, _graph_spread, _mean_fidelity, cost_full
from .graphdata import GraphDataset
from .netcore import (
    Architecture,
    ArchitectureError,
    ForwardRecord,
    LayerUnitaries,
    _corner_block,
    _forward_stack,
    _from_perceptron,
    _frozen_layers,
    _layer_plan,
    _to_perceptron,
    embed_network,
    forward,
    init_unitaries,
)
from .qlinalg import HERMITIAN_TOL, DimensionError, PureState, _pauli_stack, exp_i_hermitian

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


def _check_hermitian(stack: np.ndarray, where: str) -> None:
    defects = np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    limits = HERMITIAN_TOL * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
    j = np.argmax(~(defects <= limits))  # the first failing (or NaN) generator, if any
    if not defects[j] <= limits[j]:
        raise ValueError(f"{where.format(j)} deviates from Hermiticity by {defects[j]:.3e}")


@dataclass(frozen=True)
class UpdateGenerators:
    """One Hermitian generator per perceptron, stacked per layer as in ``LayerUnitaries``."""

    arch: Architecture
    layers: tuple[np.ndarray, ...]

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
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not -np.inf < self.gamma <= 0:
            raise ValueError(f"gamma must be non-positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class TrainingTrace:
    """Per-epoch cost reports (measured after each update) plus the outcome."""

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


def _laplacian_product(laplacian: np.ndarray, finals: np.ndarray) -> np.ndarray:
    """``(L rho)_v`` of a C-contiguous complex128 ``(V, d, d)`` stack; see the module docstring."""
    product = laplacian @ finals.reshape(len(finals), -1).view(np.float64)
    return product.view(np.complex128).reshape(finals.shape)


def _vertex_seeds(
    finals: np.ndarray, supervised: Sequence[int], amps: np.ndarray, gamma: float,
    laplacian: np.ndarray | None,
) -> np.ndarray:
    """Seeds ``[v in S]/|S| |phi_v><phi_v| + 2 gamma (L rho)_v``; ``amps`` holds the ``phi_v``."""
    if gamma == 0.0:
        seeds = np.zeros_like(finals)
    else:
        seeds = 2.0 * gamma * _laplacian_product(laplacian, finals)
    seeds[list(supervised)] += amps[:, :, None] * amps[:, None, :].conj() / len(amps)
    return seeds


def _record_stacks(records: Sequence[ForwardRecord]) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-layer input stacks and the final-output stack of full forward passes."""
    layers = zip(*(rec.layer_inputs for rec in records))
    inputs = [np.stack([state.matrix for state in layer]) for layer in layers]
    return inputs, np.stack([rec.final.matrix for rec in records])


def _vertex_generators(
    arch: Architecture,
    plan: list,
    inputs: Sequence[np.ndarray],
    seeds: np.ndarray,
    eta: float,
) -> UpdateGenerators:
    """``eta * 2**m_{l-1} * sum_v i tr_rest([forward_v, backward(seed_v)])``.

    One sweep per layer, last to first, over the ``(V, d, d)`` stacks of
    layer inputs and backward operators; see the module docstring.
    """
    layers = [()] * arch.num_unitary_layers
    back = seeds
    for l in range(arch.num_unitary_layers - 1, -1, -1):
        width_in, width_out = arch.width_in(l), arch.width_out(l)
        d_in, d_out = 2**width_in, 2**width_out
        perceptrons, blocks = plan[l]
        # G_v = W^dagger (I (x) B_v) with W = B_m^T: the identity acts on the input qubits.
        pulled_left = (blocks[-1].conj().reshape(-1, d_out) @ back).reshape(len(back), d_in, -1)
        # M = sum_v rho_v G_v; perceptron p pairs P_p with R_p = M u_m ... u_{p+1}.
        right = (inputs[l] @ pulled_left).sum(axis=0)
        halves = [None] * width_out
        for p in range(width_out - 1, -1, -1):
            local = _to_perceptron(right, width_in, width_out, p)
            halves[p] = _to_perceptron(blocks[p], width_in, width_out, p).T @ local
            if p:
                right = _from_perceptron(local @ perceptrons[p], width_in, width_out, p)
        # Both operators are Hermitian, so [fwd, back] = X - X^dagger with
        # X = fwd @ back, and the partial trace commutes with the dagger.
        halves = np.stack(halves)
        layers[l] = eta * 2.0**width_in * (1j * (halves - halves.conj().swapaxes(1, 2)))
        pulled = pulled_left @ blocks[-1].T
        if arch.is_residual(l):
            pulled += _corner_block(back, width_in, arch.delta_m(l))
        back = pulled
    return UpdateGenerators(arch, tuple(layers))


def supervised_generators(
    arch: Architecture,
    unitaries: LayerUnitaries,
    records: Sequence[ForwardRecord],
    targets: Sequence[PureState],
    eta: float = 1.0,
    embedded: list | None = None,
) -> UpdateGenerators:
    """Ascent generators for the supervised cost, any depth and flag pattern."""
    if len(records) != len(targets) or not records:
        raise DimensionError(
            f"need matching non-empty records/targets, got {len(records)}/{len(targets)}"
        )
    if embedded is None:
        embedded = embed_network(arch, unitaries)
    inputs, finals = _record_stacks(records)
    amps = np.array([phi.amplitudes for phi in targets])
    seeds = _vertex_seeds(finals, range(len(records)), amps, 0.0, None)
    return _vertex_generators(arch, embedded, inputs, seeds, eta)


def graph_generators(
    arch: Architecture,
    unitaries: LayerUnitaries,
    records: Sequence[ForwardRecord],
    adjacency: np.ndarray,
    eta: float = 1.0,
    embedded: list | None = None,
) -> UpdateGenerators:
    """Ascent generators for the graph cost (sum over unordered neighbor pairs).

    Training subtracts these (``gamma <= 0``), shrinking the output spread
    between adjacent vertices. ``adjacency`` must be finite, symmetric and ``V x V``.
    """
    inputs, finals = _record_stacks(records)
    adj = np.asarray(adjacency, dtype=float)
    if adj.shape != (len(finals),) * 2:
        raise DimensionError(f"adjacency shape {adj.shape} does not match {len(finals)} vertices")
    if not np.isfinite(adj).all():
        raise ValueError("adjacency matrix contains non-finite entries")
    if np.abs(adj - adj.T).max() > 1e-12:
        raise ValueError("adjacency matrix must be symmetric")
    seeds = _laplacian_product(np.diag(adj.sum(axis=1)) - adj, finals)
    if embedded is None:
        embedded = embed_network(arch, unitaries)
    return _vertex_generators(arch, embedded, inputs, seeds, 2.0 * eta)


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
    layers = tuple(ks + gamma * kg for ks, kg in zip(supervised.layers, graph.layers))
    return UpdateGenerators(supervised.arch, layers)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


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
    sup = list(dataset.spec.supervised_indices)
    if not sup:
        raise ValueError("the oracle needs at least one supervised vertex")
    t = arch.residual_count
    amps = dataset.target_amplitudes[sup]
    plan = embed_network(arch, unitaries)
    records = [
        forward(arch, unitaries, dataset.input_density(v), embedded=plan)
        for v in range(dataset.spec.num_vertices)
    ]

    def blended_cost(layer: int, p: int, perceptron: np.ndarray) -> float:
        """The objective with perceptron ``p`` of ``layer`` replaced (re-runs ``layer..``)."""
        perceptrons = list(unitaries.layers[layer])
        perceptrons[p] = perceptron
        patched = list(plan)
        patched[layer] = _layer_plan(perceptrons, arch.width_in(layer), arch.width_out(layer))
        finals = np.stack([
            forward(
                arch, unitaries, rec.layer_inputs[layer], embedded=patched, start_layer=layer,
            ).final.matrix
            for rec in records
        ])
        c_g = _graph_spread(finals, dataset.neighbor_weights, t)
        return _mean_fidelity(finals[sup], amps, t) + gamma * GRAPH_GRADIENT_SCALE * c_g

    cos_h, sin_h = np.cos(h), np.sin(h)
    layers = []
    for l in range(arch.num_unitary_layers):
        local_paulis = _pauli_stack(arch.width_in(l) + 1)
        layer = []
        for p, base in enumerate(unitaries.layers[l]):
            grad = np.zeros(len(local_paulis))
            for a in range(1, len(local_paulis)):
                rotated = local_paulis[a] @ base
                plus = blended_cost(l, p, cos_h * base + 1j * sin_h * rotated)
                minus = blended_cost(l, p, cos_h * base - 1j * sin_h * rotated)
                grad[a] = (plus - minus) / (2 * h)
            layer.append(eta * 2.0 ** (t - 1) * np.tensordot(grad, local_paulis, axes=1))
        layers.append(tuple(layer))
    return UpdateGenerators(arch, tuple(layers))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def update_step(
    unitaries: LayerUnitaries, generators: UpdateGenerators, epsilon: float
) -> LayerUnitaries:
    """Rotate every perceptron: ``U <- exp(i * epsilon * K) @ U``, one ``exp`` call per layer."""
    if generators.arch != unitaries.arch:
        raise ArchitectureError("generators do not match the unitaries' architecture")
    layers = tuple(
        exp_i_hermitian(ks, epsilon) @ us for us, ks in zip(unitaries.layers, generators.layers)
    )
    return LayerUnitaries(unitaries.arch, layers)


def _cost_report(
    arch: Architecture, dataset: GraphDataset, finals: np.ndarray, gamma: float
) -> CostReport:
    t = arch.residual_count
    sup, test = list(dataset.spec.supervised_indices), list(dataset.spec.test_indices)
    c_sv = _mean_fidelity(finals[sup], dataset.target_amplitudes[sup], t)
    c_g = _graph_spread(finals, dataset.neighbor_weights, t)
    c_t = _mean_fidelity(finals[test], dataset.target_amplitudes[test], t)
    return CostReport(c_sv=c_sv, c_g=c_g, c_full=cost_full(c_sv, c_g, gamma), c_test=c_t)


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


def train(arch: Architecture, dataset: GraphDataset, config: TrainingConfig) -> TrainingTrace:
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
    unitaries = init_unitaries(arch, np.random.default_rng([config.seed, 1]))

    vertices = range(dataset.spec.num_vertices)
    rho_stack = np.stack([dataset.input_density(v).matrix for v in vertices])
    sup = list(dataset.spec.supervised_indices)
    amps = dataset.target_amplitudes[sup]
    laplacian = dataset.laplacian if config.gamma else None
    plan = embed_network(arch, unitaries)
    inputs, outputs = _forward_stack(arch, plan, rho_stack, 0)
    initial_report = _cost_report(arch, dataset, outputs[-1], config.gamma)

    reports: list[CostReport] = []
    wall: list[float] = []
    for _ in range(config.epochs):
        t0 = time.perf_counter()
        seeds = _vertex_seeds(outputs[-1], sup, amps, config.gamma, laplacian)
        generators = _vertex_generators(arch, plan, inputs, seeds, 1.0)
        unitaries = update_step(unitaries, generators, config.epsilon)
        plan = embed_network(arch, unitaries)
        inputs, outputs = _forward_stack(arch, plan, rho_stack, 0)
        reports.append(_cost_report(arch, dataset, outputs[-1], config.gamma))
        wall.append((time.perf_counter() - t0) * 1000.0)

    plateau = _plateau_epoch([initial_report.c_full] + [r.c_full for r in reports])
    return TrainingTrace(
        initial_report=initial_report,
        reports=tuple(reports),
        wall_ms=tuple(wall),
        final_unitaries=unitaries,
        plateau_epoch=plateau,
    )
