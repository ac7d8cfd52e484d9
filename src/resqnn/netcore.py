"""Network structure and feedforward for residual quantum neural nets.

An architecture is a chain of layer widths ``[m_0, m_1, ..., m_{L+1}]``
(qubits per layer) plus one residual flag per hidden layer. Each layer ``l``
owns ``m_l`` perceptron unitaries, each acting on all ``m_{l-1}`` qubits of
the previous layer plus one qubit of its own layer.

A layer maps the previous layer's state by tensoring on fresh ancillas in
``|0...0>``, applying its perceptrons in ascending order, and tracing out the
previous layer's qubits. A flagged hidden layer then adds the layer's input
back on top of its output, zero-padded on the (bottom) extra qubits — so the
carried operator's trace doubles at every flagged layer and the network output
has trace ``2**t`` after ``t`` flagged layers. The output layer is never
flagged.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .qlinalg import (
    MAX_DENSE_BYTES,
    DimensionError,
    OperatorState,
    _complex_to_pairs,
    _pairs_to_complex,
    haar_random_unitary,
)

__all__ = [
    "ArchitectureError",
    "Architecture",
    "LayerUnitaries",
    "ForwardRecord",
    "arch_from_string",
    "arch_to_string",
    "embed_network",
    "forward",
    "init_unitaries",
    "load_checkpoint",
    "save_checkpoint",
]

#: Unitarity defect tolerance for stored perceptrons.
UNITARY_TOL = 1e-9
#: Input density matrices must have unit trace within this tolerance.
INPUT_TRACE_TOL = 1e-8


class ArchitectureError(ValueError):
    """Invalid layer widths, residual flags, or unsupported layer family."""


@dataclass(frozen=True)
class Architecture:
    """Layer widths plus residual flags (one per hidden layer)."""

    layer_widths: tuple[int, ...]
    residual_flags: tuple[bool, ...] = field(default=())

    def __post_init__(self) -> None:
        widths = tuple(int(w) for w in self.layer_widths)
        flags = tuple(bool(f) for f in self.residual_flags)
        if len(widths) < 2:
            raise ArchitectureError("need at least input and output layers")
        if any(w < 1 for w in widths):
            raise ArchitectureError(f"layer widths must be positive, got {widths}")
        if len(flags) != len(widths) - 2:
            raise ArchitectureError(
                f"{len(widths) - 2} hidden layers need {len(widths) - 2} residual "
                f"flags, got {len(flags)}"
            )
        # A residual shortcut pads its layer's input with max(0, m_l - m_{l-1})
        # zeros, so widths may not shrink on the way *into* a hidden layer.
        # The output layer is free to narrow.
        for l in range(1, len(widths) - 1):
            if widths[l] < widths[l - 1]:
                raise ArchitectureError(
                    f"hidden layer {l} narrows from {widths[l - 1]} to {widths[l]} qubits"
                )
        object.__setattr__(self, "layer_widths", widths)
        object.__setattr__(self, "residual_flags", flags)
        if self.dense_bytes > MAX_DENSE_BYTES:
            raise ArchitectureError(
                f"layer widths {widths} need {self.dense_bytes / 2**30:,.1f} GiB of dense "
                f"matrices, more than the {MAX_DENSE_BYTES / 2**30:g} GiB limit"
            )

    @property
    def dense_bytes(self) -> float:
        """Bytes of the complex matrices ``embed_network`` and ``init_unitaries`` build.

        Per layer: one ``2**m_{l-1} x 2**(m_{l-1}+m_l)`` prefix block per
        perceptron plus its own Haar draw. Infinite when the estimate
        overflows a float.
        """
        try:
            return sum(
                16.0 * self.width_out(l)
                * (2.0 ** (2 * self.width_in(l) + self.width_out(l))
                   + 4.0 ** (self.width_in(l) + 1))
                for l in range(self.num_unitary_layers)
            )
        except OverflowError:
            return float("inf")

    @property
    def num_unitary_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def input_qubits(self) -> int:
        return self.layer_widths[0]

    @property
    def residual_count(self) -> int:
        """Number of flagged layers; the output trace is 2**residual_count."""
        return sum(self.residual_flags)

    def width_in(self, layer: int) -> int:
        """Qubits feeding unitary layer ``layer`` (0-based)."""
        return self.layer_widths[layer]

    def width_out(self, layer: int) -> int:
        """Qubits owned by unitary layer ``layer`` (0-based)."""
        return self.layer_widths[layer + 1]

    def delta_m(self, layer: int) -> int:
        """Zero-padding width of the shortcut around hidden layer ``layer``."""
        return self.width_out(layer) - self.width_in(layer)

    def is_residual(self, layer: int) -> bool:
        """Whether the shortcut around unitary layer ``layer`` is active."""
        return layer < len(self.residual_flags) and self.residual_flags[layer]


_ARCH_TOKEN = re.compile(r"^(~?)(\d+)$")


def arch_from_string(text: str) -> Architecture:
    """Parse ``"2,~3,2"`` style strings; ``~`` flags a residual hidden layer."""
    tokens = [tok.strip() for tok in text.split(",")]
    widths = []
    flags = []
    for pos, tok in enumerate(tokens):
        match = _ARCH_TOKEN.match(tok)
        if not match:
            raise ArchitectureError(f"bad architecture token {tok!r} in {text!r}")
        tilde, digits = match.groups()
        if tilde and (pos == 0 or pos == len(tokens) - 1):
            raise ArchitectureError(
                f"input/output layers cannot be residual in {text!r}"
            )
        widths.append(int(digits))
        if 0 < pos < len(tokens) - 1:
            flags.append(bool(tilde))
    return Architecture(tuple(widths), tuple(flags))


def arch_to_string(arch: Architecture) -> str:
    """Inverse of :func:`arch_from_string` (round-trips exactly)."""
    parts = [str(arch.layer_widths[0])]
    for i, width in enumerate(arch.layer_widths[1:-1]):
        parts.append(("~" if arch.residual_flags[i] else "") + str(width))
    parts.append(str(arch.layer_widths[-1]))
    return ",".join(parts)


def _frozen_layers(
    arch: Architecture,
    layers: Sequence[Sequence[np.ndarray]],
    item: str,
    check: Callable[[np.ndarray, str], None],
) -> tuple[np.ndarray, ...]:
    """Read-only ``(m_l, d, d)`` copies of each layer's matrices, laid out as ``arch``.

    Checks the layer count and each layer's shape, naming the matrices
    ``item``; ``check(stack, where)`` adds the owner's own test on a whole
    layer and names its ``j``-th matrix ``where.format(j)``.
    """
    if len(layers) != arch.num_unitary_layers:
        raise ArchitectureError(
            f"expected {arch.num_unitary_layers} unitary layers, got {len(layers)}"
        )
    frozen_layers = []
    for l, layer in enumerate(layers):
        shape = (arch.width_out(l),) + (2 ** (arch.width_in(l) + 1),) * 2
        try:
            stack = np.array(layer, dtype=np.complex128)
        except ValueError as exc:
            raise ArchitectureError(f"layer {l} {item}s: {exc}") from exc
        if stack.shape != shape:
            raise ArchitectureError(f"layer {l} needs {item}s of shape {shape}, got {stack.shape}")
        check(stack, f"{item} ({l},{{}})")
        stack.setflags(write=False)
        frozen_layers.append(stack)
    return tuple(frozen_layers)


def _check_unitary(stack: np.ndarray, where: str) -> None:
    products = stack @ stack.conj().swapaxes(-1, -2)
    defects = np.abs(products - np.eye(stack.shape[-1])).max(axis=(-2, -1))
    j = np.argmax(~(defects <= UNITARY_TOL))  # the first failing (or NaN) perceptron, if any
    if not defects[j] <= UNITARY_TOL:
        raise ArchitectureError(f"{where.format(j)} deviates from unitarity by {defects[j]:.3e}")


@dataclass(frozen=True)
class LayerUnitaries:
    """Perceptron unitaries validated against ``arch``: ``layers[l][j]`` is perceptron ``(l, j)``.

    ``layers[l]`` is one read-only ``(m_l, d, d)`` stack copied from the caller's input.
    """

    arch: Architecture
    layers: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        layers = _frozen_layers(self.arch, self.layers, "perceptron", _check_unitary)
        object.__setattr__(self, "layers", layers)


def init_unitaries(arch: Architecture, rng: np.random.Generator) -> LayerUnitaries:
    """Independent Haar-random perceptrons, drawn layer by layer, top to bottom."""
    layers = []
    for l in range(arch.num_unitary_layers):
        qubits = arch.width_in(l) + 1
        layers.append(tuple(haar_random_unitary(qubits, rng) for _ in range(arch.width_out(l))))
    return LayerUnitaries(arch, tuple(layers))


def _to_perceptron(m: np.ndarray, width_in: int, width_out: int, j: int) -> np.ndarray:
    """Regroup the columns of a ``k x 2**(width_in+width_out)`` matrix for perceptron ``j``.

    Its qubits (all inputs, then output ``j``) become the last axis of a
    ``(k * 2**(width_out-1), 2**(width_in+1))`` array, so ``M`` times ``u``
    embedded on them is ``_from_perceptron(_to_perceptron(M) @ u)``.
    """
    cols = m.reshape(len(m), 2**width_in, 2**j, 2, 2 ** (width_out - 1 - j))
    return cols.transpose(0, 2, 4, 1, 3).reshape(-1, 2 ** (width_in + 1))


def _from_perceptron(a: np.ndarray, width_in: int, width_out: int, j: int) -> np.ndarray:
    """Inverse of :func:`_to_perceptron`."""
    cols = a.reshape(-1, 2**j, 2 ** (width_out - 1 - j), 2**width_in, 2)
    return cols.transpose(0, 3, 1, 4, 2).reshape(-1, 2 ** (width_in + width_out))


def _layer_plan(
    perceptrons: Sequence[np.ndarray], width_in: int, width_out: int
) -> tuple[Sequence[np.ndarray], list[np.ndarray]]:
    """The layer's perceptrons and its transposed prefix blocks ``B_p = (u_p ... u_1 E)^T``.

    ``E`` adjoins the ancillas in ``|0...0>``, where they start. Each
    ``2**width_in x 2**(width_in+width_out)`` block is one local product on
    the one before: ``B_p = from(to(B_{p-1}) @ u_p^T)``. ``W = B_m^T`` is the
    layer isometry: the layer maps ``rho`` to ``tr_in(W rho W^dagger)``.
    """
    d_in, d_out = 2**width_in, 2**width_out
    block = np.zeros((d_in, d_in * d_out))
    block[:, ::d_out] = np.eye(d_in)  # E^T
    blocks = []
    for j, u in enumerate(perceptrons):
        block = _from_perceptron(
            _to_perceptron(block, width_in, width_out, j) @ u.T, width_in, width_out, j
        )
        blocks.append(block)
    return perceptrons, blocks


def embed_network(
    arch: Architecture, unitaries: LayerUnitaries
) -> list[tuple[Sequence[np.ndarray], list[np.ndarray]]]:
    """Each layer's plan: its perceptrons and prefix blocks (see :func:`_layer_plan`).

    The forward pass and the update-generator engine both read the plan, so
    it is built once per epoch; callers treat it as opaque.
    """
    return [
        _layer_plan(unitaries.layers[l], arch.width_in(l), arch.width_out(l))
        for l in range(arch.num_unitary_layers)
    ]


def _apply_layer(block: np.ndarray, rho_stack: np.ndarray, width_out: int) -> np.ndarray:
    """``tr_in(W rho_v W^dagger)`` for a ``(V, d_in, d_in)`` stack; ``W = block^T``, inputs lead.

    ``rho_v^T block = (W rho_v)^T``, regrouped to ``(d_out, d_in**2)`` per vertex, meets
    ``conj(block)`` regrouped to ``(d_in**2, d_out)`` in one batched product.
    """
    d_out = 2**width_out
    left = (rho_stack.swapaxes(1, 2) @ block).reshape(len(rho_stack), -1, d_out)
    return left.swapaxes(1, 2) @ block.conj().reshape(-1, d_out)


def _corner_block(matrix: np.ndarray, keep_qubits: int, pad_qubits: int) -> np.ndarray:
    """View of each ``<0...0| matrix |0...0>`` block on the last ``pad_qubits`` qubits."""
    dim_keep, dim_pad = 2**keep_qubits, 2**pad_qubits
    shape = matrix.shape[:-2] + (dim_keep, dim_pad, dim_keep, dim_pad)
    return matrix.reshape(shape)[..., :, 0, :, 0]


def _forward_stack(
    arch: Architecture, plan: list, rho_stack: np.ndarray, start_layer: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer input and output ``(V, d, d)`` stacks, as in :class:`ForwardRecord`."""
    inputs, outputs = [rho_stack], []
    for l in range(start_layer, arch.num_unitary_layers):
        width_in, width_out = arch.width_in(l), arch.width_out(l)
        outputs.append(_apply_layer(plan[l][1][-1], inputs[-1], width_out))
        current = outputs[-1]
        if arch.is_residual(l):
            current = current.copy()
            _corner_block(current, width_in, arch.delta_m(l))[...] += inputs[-1]
        if l + 1 < arch.num_unitary_layers:
            inputs.append(current)
    return inputs, outputs


@dataclass(frozen=True)
class ForwardRecord:
    """Per-layer inputs and outputs of one feedforward pass.

    ``layer_inputs[i]`` is what the pass's ``i``-th unitary layer consumed
    (shortcut additions included), ``layer_outputs[i]`` what it produced
    before any shortcut; ``final`` is the network output, of trace ``2**t``.
    A full pass starts at layer 0, so ``i`` is the layer index.
    """

    layer_inputs: tuple[OperatorState, ...]
    layer_outputs: tuple[OperatorState, ...]

    @property
    def final(self) -> OperatorState:
        return self.layer_outputs[-1]


def forward(
    arch: Architecture,
    unitaries: LayerUnitaries,
    rho_in: OperatorState,
    embedded: list | None = None,
    start_layer: int = 0,
) -> ForwardRecord:
    """Feedforward pass through unitary layers ``start_layer..`` to the output.

    ``rho_in`` is the state entering layer ``start_layer``: a unit-trace input
    for a full pass, or a recorded ``layer_inputs[start_layer]``, of trace
    ``2**s`` after the ``s`` shortcuts before it, to re-run a pass's tail.
    """
    if not 0 <= start_layer < arch.num_unitary_layers:
        raise ArchitectureError(f"no unitary layer {start_layer}")
    if rho_in.num_qubits != arch.width_in(start_layer):
        raise DimensionError(
            f"input has {rho_in.num_qubits} qubits, layer {start_layer} expects "
            f"{arch.width_in(start_layer)}"
        )
    expected_trace = 2.0 ** sum(arch.residual_flags[:start_layer])
    if abs(rho_in.trace() - expected_trace) > INPUT_TRACE_TOL:
        raise ValueError(
            f"input state must have trace {expected_trace:g}, got {rho_in.trace():.6f}"
        )
    if embedded is None:
        embedded = embed_network(arch, unitaries)
    layers = range(start_layer, arch.num_unitary_layers)
    inputs, outputs = _forward_stack(arch, embedded, rho_in.matrix[None], start_layer)
    return ForwardRecord(
        (rho_in,)
        + tuple(OperatorState(m[0], arch.width_in(l)) for m, l in zip(inputs[1:], layers[1:])),
        tuple(OperatorState(m[0], arch.width_out(l)) for m, l in zip(outputs, layers)),
    )


def save_checkpoint(
    path: str | Path,
    unitaries: LayerUnitaries,
    seed: int | None = None,
) -> None:
    """Write unitaries as JSON: arch string, seed, row-major [re, im] pairs."""
    arch = unitaries.arch
    payload = {
        "arch": arch_to_string(arch),
        "seed": seed,
        "layers": [[_complex_to_pairs(u) for u in layer] for layer in unitaries.layers],
    }
    Path(path).write_text(json.dumps(payload, indent=1), encoding="utf-8")


def load_checkpoint(path: str | Path) -> tuple[LayerUnitaries, int | None]:
    """Inverse of :func:`save_checkpoint`; re-validates shapes and unitarity."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        arch = arch_from_string(payload["arch"])
        raw_layers = payload["layers"]
        seed = payload.get("seed")
    except (KeyError, TypeError) as exc:
        raise ArchitectureError(f"malformed checkpoint {path}: {exc}") from exc
    layers = tuple(tuple(_pairs_to_complex(raw) for raw in layer) for layer in raw_layers)
    return LayerUnitaries(arch, layers), seed
