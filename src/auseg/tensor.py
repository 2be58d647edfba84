"""The autodiff core: float64 tensors and reverse-mode gradients on a recorded tape.

It provides:

- ``Tensor``, a row-major numpy array of rank <= 4 with an optional ``grad``;
- ``Node`` and ``Tape``, one recorded op and the define-by-run graph of a step;
- ``record_op``, which every differentiable op (in ``nn_ops``, ``attention``
  and ``losses_metrics``) calls with its output array and backward rule;
- ``backward``, which sweeps the nodes once, in reverse recording order, and
  accumulates gradients into the leaves' ``Tensor.grad``. The sweep consumes
  the tape: each node, with its output and the arrays its backward rule holds,
  is freed as soon as it has run, so a tape is swept once;
- ``grad_check``, which compares those gradients with central differences.

The ops themselves live with the model; this module has no arithmetic of its own.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

MAX_RANK = 4


class Tensor:
    """A float64 array plus an optional gradient buffer of the same shape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class Node:
    """One recorded operation: inputs, output, and its backward rule."""

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward: Callable[[Array], Sequence[Array | None]]


@dataclass
class Tape:
    """Dynamically recorded computation graph; one tape per training step.

    Not shareable across concurrent steps: use one Tape per thread/step.
    ``backward`` empties ``nodes`` and sets ``swept``.
    """

    nodes: list[Node] = field(default_factory=list)
    swept: bool = False

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        _tape_stack().pop()


_LOCAL = threading.local()


def _tape_stack() -> list[Tape]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def active_tape() -> Tape | None:
    stack = _tape_stack()
    return stack[-1] if stack else None


def record_op(op: str, inputs: Sequence[Tensor], out_data: Array,
              backward: Callable[[Array], Sequence[Array | None]]) -> Tensor:
    """Wrap ``out_data`` in a Tensor, recording a node when grads are needed."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(Node(op, tuple(inputs), out, backward))
    return out


def backward(tape: Tape, root: Tensor) -> None:
    """Accumulate d(root)/d(leaf) into every requires_grad leaf's ``grad``.

    A leaf is a tensor no recorded node produced (the root counts when it is
    one). Intermediate tensors get no ``grad``: each node's output gradient is
    dropped as soon as that node has run. Gradients add onto whatever is
    already stored; callers zero between steps.

    The sweep consumes the tape: it pops each node as it reaches it, so the
    node's output, its backward rule and the arrays that rule holds are freed
    once the node has run (unless the caller still holds them). A tape is
    swept once; a second call raises ``ContractError``.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if tape.swept:
        raise ContractError("tape already swept: backward consumes its nodes")
    tape.swept = True
    acc: dict[int, Array] = {id(root): np.ones_like(root.data)}
    # every tensor keyed in acc; a node's output leaves it when the node is popped
    tensors: dict[int, Tensor] = {id(root): root}
    while tape.nodes:
        node = tape.nodes.pop()
        key = id(node.output)
        tensors.pop(key, None)
        g = acc.pop(key, None)
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.backward(g)):
            if gi is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in acc:
                acc[key] = acc[key] + gi
            else:
                acc[key] = gi
                tensors[key] = inp
    # what is left belongs to leaves: their producers, if any, are not on the tape
    for key, g in acc.items():
        t = tensors[key]
        if not t.requires_grad:
            continue
        # always a fresh C-order copy: acc entries may alias other gradients
        t.grad = np.array(g, order="C") if t.grad is None else t.grad + g


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], h: float = 1e-5,
               tol: float = 1e-5, coords_per_input: int = 10,
               rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare reverse-mode grads of scalar-valued ``f`` to central differences.

    Relative error per coordinate is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|);
    the report passes iff the max over all sampled coordinates is below tol.
    ``f`` is re-evaluated with perturbed inputs, so it must be deterministic.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    with Tape() as tape:
        out = f(*inputs)
        if out.size != 1:
            raise ContractError("grad_check target must produce a scalar")
        backward(tape, out)

    def eval_f() -> float:
        return f(*inputs).item()

    max_err = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        g_ad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        g_flat = g_ad.reshape(-1)
        n = flat.size
        if n <= coords_per_input:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=coords_per_input, replace=False)
        for c in coords:
            c = int(c)
            orig = flat[c]
            flat[c] = orig + h
            f_plus = eval_f()
            flat[c] = orig - h
            f_minus = eval_f()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            analytic = float(g_flat[c])
            rel = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            max_err = max(max_err, rel)
    return GradCheckReport(max_rel_err=max_err, tol=tol, passed=max_err < tol)
