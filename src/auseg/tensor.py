"""The autodiff core: float64 tensors and reverse-mode gradients on a recorded tape.

It provides:

- ``Tensor``, a row-major numpy array of rank <= 4, with a serial ``key``
  drawn once, at construction;
- ``Node`` and ``Tape``, one recorded op and the define-by-run graph of a step;
- ``record_op``, which every differentiable op (in ``nn_ops``, ``attention``
  and ``losses_metrics``) calls with its output array and backward rule;
- ``backward``, which sweeps the nodes once, in reverse recording order, and
  returns the root's gradient with respect to each tensor of a caller's
  key -> Tensor mapping, keyed the same way;
- ``grad_check``, which compares those gradients with central differences.

A node holds no tensor and no array: only the keys of its output and of its
inputs, and its backward rule. Gradients travel between nodes by key. So an
array lives only while the caller or some node's backward rule refers to it:
an op output that no rule reads (an upsampled map copied into a concat, say)
dies as soon as its consumer has run, in the forward pass. The sweep consumes
the tape: each node, with its rule and the arrays that rule holds, is freed
as soon as it has run, so a tape is swept once.

The ops themselves live with the model; this module has no arithmetic of its own.
"""
from __future__ import annotations

import itertools
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .errors import ContractError, ShapeError

Array = np.ndarray

MAX_RANK = 4

_SERIAL = itertools.count()    # next() on it is one C call, so threads never share a key


class Tensor:
    """A float64 array; ``requires_grad`` marks it for differentiation, and ``key``
    names it on the tape."""

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} exceeds supported maximum {MAX_RANK}")
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.key = next(_SERIAL)

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@dataclass
class Node:
    """One recorded operation: the key of its output, the key of each input
    (``None`` for an input that needs no gradient) and its backward rule.

    The rule maps the output's gradient to one gradient (or ``None``) per
    input; the arrays it reads are the only arrays the node keeps alive.
    """

    op: str
    out_key: int
    in_keys: tuple[int | None, ...]
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
        in_keys = tuple(t.key if t.requires_grad else None for t in inputs)
        tape.nodes.append(Node(op, out.key, in_keys, backward))
    return out


def _sweep(tape: Tape, root: Tensor) -> dict[int, Array]:
    """Pop and run every node, last first; returns the gradients the leaves
    received, by key. An output's gradient is dropped once its node has run.
    A function of its own so that its loop variables are gone by the time
    ``backward`` counts the references to each gradient."""
    acc = {root.key: np.ones_like(root.data)}
    while tape.nodes:
        node = tape.nodes.pop()
        g = acc.pop(node.out_key, None)
        if g is None:
            continue
        for key, gi in zip(node.in_keys, node.backward(g)):
            if key is not None and gi is not None:
                acc[key] = acc[key] + gi if key in acc else gi
    return acc


def backward(tape: Tape, root: Tensor,
             wrt: Mapping[Hashable, Tensor]) -> dict[Hashable, Array]:
    """d(root)/d(t) for each tensor ``t`` of ``wrt``, keyed and ordered as ``wrt``.

    Each gradient is a C-order array that nothing else refers to; a tensor the
    root does not reach (or one without ``requires_grad``) gets zeros. ``wrt``
    holds leaves only: a tensor some recorded node produced raises
    ``ContractError``, because each node's output gradient is dropped as soon
    as that node has run.

    The sweep consumes the tape: it pops each node as it reaches it, so the
    node's backward rule and the arrays that rule holds are freed once the
    node has run (unless the caller still holds them). A tape is swept once;
    a second call raises ``ContractError``.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if tape.swept:
        raise ContractError("tape already swept: backward consumes its nodes")
    produced = {node.out_key for node in tape.nodes}
    for name, t in wrt.items():
        if t.key in produced:
            raise ContractError(f"backward wrt {name!r}: a recorded op produced that tensor; "
                                f"only leaves keep gradients")
    tape.swept = True
    acc = _sweep(tape, root)
    grads = {}
    for name, t in wrt.items():
        g = acc.get(t.key) if t.requires_grad else None
        if g is None:
            grads[name] = np.zeros_like(t.data)
        # three references (acc, g and getrefcount's argument) mean nothing else
        # reaches g: no other entry of acc or of grads, no live Tensor, no view
        elif (type(g) is np.ndarray and g.flags.owndata and g.flags.c_contiguous
              and sys.getrefcount(g) == 3):
            grads[name] = g
        else:
            grads[name] = np.array(g, order="C")
    return grads


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], h: float = 1e-5,
               coords_per_input: int = 10, rng: np.random.Generator | None = None) -> float:
    """Compare reverse-mode grads of scalar-valued ``f`` to central differences.

    Relative error per coordinate is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|);
    returns the max over all sampled coordinates, for the caller to hold
    against its tolerance.
    ``f`` is re-evaluated with perturbed inputs, so it must be deterministic.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    inputs = list(inputs)
    with Tape() as tape:
        out = f(*inputs)
        if out.size != 1:
            raise ContractError("grad_check target must produce a scalar")
        grads = backward(tape, out, {i: t for i, t in enumerate(inputs) if t.requires_grad})

    def eval_f() -> float:
        return f(*inputs).item()

    max_err = 0.0
    for i, g_ad in grads.items():
        flat = inputs[i].data.reshape(-1)
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
    return max_err
