"""N-dimensional float64 tensors with reverse-mode autodiff on a recorded tape.

Values live in row-major numpy arrays of rank <= 4. Differentiable ops record
nodes onto the active ``Tape`` (define-by-run); ``backward`` sweeps the nodes
once, in reverse recording order, accumulating gradients into ``Tensor.grad``.
Reductions delegate to numpy's deterministic summation, so results are
bit-identical across runs for identical inputs.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

MAX_RANK = 4


def _check_shape(shape) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if len(shape) > MAX_RANK:
        raise ShapeError(f"rank {len(shape)} exceeds supported maximum {MAX_RANK}")
    for s in shape:
        if s < 1:
            raise ShapeError(f"extents must be positive, got {shape}")
    return shape


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

    # Operator sugar; the module-level functions are the primary API.
    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul_elementwise(self, other)


@dataclass
class Parameter:
    """Named trainable tensor; names are unique within a model."""

    name: str
    tensor: Tensor

    def __post_init__(self):
        self.tensor.requires_grad = True


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
    """

    nodes: list[Node] = field(default_factory=list)

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
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    acc: dict[int, Array] = {id(root): np.ones_like(root.data)}
    tensors: dict[int, Tensor] = {id(root): root}
    for node in reversed(tape.nodes):
        g = acc.pop(id(node.output), None)
        if g is None:
            continue
        grads = node.backward(g)
        for inp, gi in zip(node.inputs, grads):
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
# factories


def full(shape, value: float) -> Tensor:
    return Tensor(np.full(_check_shape(shape), float(value)))


# ---------------------------------------------------------------------------
# elementwise arithmetic with one-sided broadcasting (b -> a)


def _broadcast_axes(a_shape: tuple[int, ...], b_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Axes along which b (extent 1) broadcasts over a; error if incompatible."""
    if a_shape == b_shape:
        return ()
    if len(a_shape) != len(b_shape):
        raise ShapeError(f"rank mismatch: {a_shape} vs {b_shape}")
    axes = []
    for i, (sa, sb) in enumerate(zip(a_shape, b_shape)):
        if sb == sa:
            continue
        if sb == 1:
            axes.append(i)
        else:
            raise ShapeError(f"cannot broadcast {b_shape} to {a_shape}")
    return tuple(axes)


def _reduce_to(g: Array, shape: tuple[int, ...], axes: tuple[int, ...]) -> Array:
    if not axes:
        return g
    return g.sum(axis=axes, keepdims=True)


def add(a: Tensor, b: Tensor) -> Tensor:
    axes = _broadcast_axes(a.shape, b.shape)
    out = a.data + b.data
    return record_op("add", (a, b), out,
                     lambda g: (g, _reduce_to(g, b.shape, axes)))


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    axes = _broadcast_axes(a.shape, b.shape)
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g: Array):
        return g * b_data, _reduce_to(g * a_data, b.shape, axes)

    return record_op("mul", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# reductions


def _check_axes(shape: tuple[int, ...], axes) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(len(shape)))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(int(ax) for ax in axes)
    seen = set()
    for ax in axes:
        if ax < 0 or ax >= len(shape):
            raise ShapeError(f"axis {ax} out of range for shape {shape}")
        if ax in seen:
            raise ShapeError(f"duplicate axis {ax}")
        seen.add(ax)
    return axes


def _unreduce(g: Array, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool) -> Array:
    if not keepdims:
        expand = list(shape)
        for ax in axes:
            expand[ax] = 1
        g = g.reshape(expand)
    return np.ascontiguousarray(np.broadcast_to(g, shape))


def reduce_sum(t: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _check_axes(t.shape, axes)
    out = t.data.sum(axis=axes, keepdims=keepdims)
    shape = t.shape
    return record_op("reduce_sum", (t,), out,
                     lambda g: (_unreduce(g, shape, axes, keepdims),))


def reduce_mean(t: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    axes = _check_axes(t.shape, axes)
    count = int(np.prod([t.shape[ax] for ax in axes])) if axes else 1
    out = t.data.mean(axis=axes, keepdims=keepdims)
    shape = t.shape
    return record_op("reduce_mean", (t,), out,
                     lambda g: (_unreduce(g, shape, axes, keepdims) / count,))


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class CoordCheck:
    input_index: int
    flat_index: int
    analytic: float
    numeric: float
    rel_err: float


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    passed: bool
    checks: list[CoordCheck]

    @property
    def worst(self) -> CoordCheck | None:
        if not self.checks:
            return None
        return max(self.checks, key=lambda c: c.rel_err)


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

    checks: list[CoordCheck] = []
    for idx, t in enumerate(inputs):
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
            checks.append(CoordCheck(idx, c, analytic, numeric, rel))
    max_err = max((c.rel_err for c in checks), default=0.0)
    return GradCheckReport(max_rel_err=max_err, tol=tol, passed=max_err < tol, checks=checks)
