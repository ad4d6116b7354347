"""Float64 tensors with taped reverse-mode differentiation.

Every differentiable operation used by the forecasting model lives here:
elementwise arithmetic, matmul of matrices or of equal stacks of them, the
fused `linear` (product plus bias in one entry) and `linear_gelu` (GELU of
it, one entry too), `mix` (a weighted sum over a stack's leading axis, one
entry), shape ops, reductions, softmax, layer norm, dropout, plus the SVD
pseudo-inverse (a deliberate gradient barrier) and the Adam update. GELU
evaluates SciPy's `erf` on |x / sqrt 2| and copies the sign back, which has
erf's own bits. `gelu` (over a copy of its input) and `linear_gelu` (over
its product) share one body, `_gelu_of`, which with nothing recording runs
GELU in place, so neither keeps more than its output. Ops executed inside a
`recording()` block append one entry to the active DiffRecord;
`backward(loss)` replays that tape exactly once, in reverse execution order,
freeing each entry as it goes, and leaves gradients on the tape's leaves
(the tensors it reads but did not produce, such as parameters), so a step's
activations are freed as soon as nothing else holds them. Elementwise ops,
matmul and linear compute no adjoint for an input that takes no gradient. A
2-D `linear` whose input takes none returns its weight adjoint x.T @ g as an
`OuterProduct` of its factors, which a leaf keeps unformed until its `.grad`
is read or `adam_step` forms it block by block.

All data is float64 and row-major. The tape is thread-local, so concurrent
evaluation threads that never open a recording stay independent.

The module owns one thread pool, made on first use and sized by
`thread_count()` (DISENTS_THREADS, else 1). `pool_map` spreads independent
tasks over it, as `pipeline` does with the row chunks of an eval stack in
`predict`, `evaluate` and `mean_routing`. `by_rows` splits a kernel over the
leading axis of an array of at least SPLIT_MIN elements, one contiguous
chunk per thread. GELU's body runs its two directions that way, in
preallocated buffers; a stacked `linear` and `pinv` run over their K
matrices that way, and `adam_step` over the rows of each large parameter.
Every element sees the same operations in the same order however the rows
are split (a matrix of a stack is one BLAS or LAPACK call either way; an
`OuterProduct` is formed in row blocks of two rows or more, which on
OpenBLAS give the whole product's bits where one-row blocks do not), and the
tasks given to `pool_map` are cut by their callers without reading the
thread count, so results do not depend on it. Smaller arrays run on the
calling thread without reading the environment, and a pool worker runs
everything inline, so no worker ever waits on the pool.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, NumericError, ShapeError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """A dense float64 array plus a gradient slot of the same shape.

    `adjoint` is the gradient as `backward` left it: an array, or an
    `OuterProduct` on a 2-D `linear`'s weight; `grad` is it as an array,
    formed on first read."""

    __slots__ = ("data", "requires_grad", "adjoint", "_record")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.adjoint: Array | OuterProduct | None = None
        self._record: DiffRecord | None = None

    @property
    def grad(self) -> Array | None:
        if isinstance(self.adjoint, OuterProduct):
            self.adjoint = self.adjoint.array()
        return self.adjoint

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic operators delegate to the module-level ops so that every
    # code path goes through the tape.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return subtract(other, self)

    def __mul__(self, other):
        return multiply(self, other)

    def __rmul__(self, other):
        return multiply(other, self)

    def __truediv__(self, other):
        return divide(self, other)

    def __rtruediv__(self, other):
        return divide(other, self)

    def __neg__(self):
        return negate(self)

    def __matmul__(self, other):
        return matmul(self, other)


class OuterProduct:
    """The [n, p] weight adjoint x.T @ g of a 2-D `linear` whose input takes
    no gradient, held as its factors: a copy of the input x [m, n] and the
    output adjoint g [m, p]. `array()` forms it whole, with the bits of the
    adjoint `linear` would otherwise return; `adam_step` forms it a row
    block at a time."""

    __slots__ = ("x", "g")

    def __init__(self, x: Array, g: Array):
        self.x, self.g = x, g

    @property
    def shape(self) -> tuple[int, int]:
        return self.x.shape[1], self.g.shape[1]

    def array(self) -> Array:
        return _matmul_into(self.x.T, self.g)


def _dense(g):
    return g.array() if isinstance(g, OuterProduct) else g


class _TapeEntry:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out: Tensor, inputs: tuple[Tensor, ...], backward: Callable):
        self.out = out
        self.inputs = inputs
        self.backward = backward


class DiffRecord:
    """Execution tape: ops appended in order, adjoints replayed in reverse.

    Each recorded output points back at its record, and the record holds the
    output, so the tape is a reference cycle until `backward` replays it and
    drops the entries. `len` keeps counting the ops recorded."""

    def __init__(self):
        self._entries: list[_TapeEntry] | None = []
        self._replayed = 0  # the number of entries backward dropped

    def __len__(self) -> int:
        return self._replayed if self._entries is None else len(self._entries)

    def _append(self, entry: _TapeEntry) -> None:
        if self._entries is None:
            raise ContractError("cannot record into a DiffRecord that backward already replayed")
        self._entries.append(entry)

    def _release(self) -> list[_TapeEntry]:
        """The entries, handed out once for replay and then forgotten."""
        if self._entries is None:
            raise ContractError("this DiffRecord was already replayed by backward")
        entries, self._entries = self._entries, None
        self._replayed = len(entries)
        return entries


_LOCAL = threading.local()


def _active_record() -> DiffRecord | None:
    return getattr(_LOCAL, "record", None)


@contextmanager
def recording(record: DiffRecord | None = None):
    """Make `record` (or a fresh one) the active tape for this thread."""
    rec = DiffRecord() if record is None else record
    prev = _active_record()
    _LOCAL.record = rec
    try:
        yield rec
    finally:
        _LOCAL.record = prev


@contextmanager
def no_recording():
    """Suspend taping, e.g. for finite-difference probes inside a recording."""
    prev = _active_record()
    _LOCAL.record = None
    try:
        yield
    finally:
        _LOCAL.record = prev


SPLIT_MIN = 1 << 16  # elements; a smaller array's kernel runs on the calling thread

_POOL_LOCK = threading.Lock()
_POOL: tuple[int, ThreadPoolExecutor] | None = None  # (threads, pool)


def thread_count() -> int:
    """The thread count: DISENTS_THREADS, else 1."""
    raw = os.environ.get("DISENTS_THREADS", "").strip()
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"DISENTS_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"DISENTS_THREADS must be at least 1, got {raw!r}")
    return threads


def _mark_worker() -> None:
    _LOCAL.pool_worker = True


def _on_worker() -> bool:
    return getattr(_LOCAL, "pool_worker", False)


def _pool(threads: int) -> ThreadPoolExecutor:
    """The shared pool, remade when asked for another size. A replaced pool
    is not shut down, so a caller still holding it can finish; its idle
    workers exit once it is collected."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != threads:
            _POOL = threads, ThreadPoolExecutor(threads, thread_name_prefix="disents",
                                                initializer=_mark_worker)
        return _POOL[1]


def drop_pool() -> None:
    """Shut the shared pool down, cancelling queued tasks; the next threaded
    call makes a fresh one."""
    global _POOL
    with _POOL_LOCK:
        dropped, _POOL = _POOL, None
    if dropped is not None:
        dropped[1].shutdown(wait=True, cancel_futures=True)


def pool_map(fn: Callable, items: Sequence) -> list:
    """`[fn(i) for i in items]`, spread over `thread_count()` threads of the
    shared pool; on the calling thread when there is one thread or one item,
    or when the caller is itself a pool worker.

    A failure cancels the tasks that have not started and is raised, the
    first in item order, only once every other task has ended or been
    cancelled, so no task still runs when `pool_map` returns or raises."""
    threads = thread_count()
    if threads == 1 or len(items) <= 1 or _on_worker():
        return [fn(i) for i in items]
    pool = _pool(threads)
    futures = [pool.submit(fn, item) for item in items]
    wait(futures, return_when=FIRST_EXCEPTION)
    for future in futures:  # no-op on a task that has started or ended
        future.cancel()
    wait(futures)
    # The pool starts tasks in item order, so every failed task comes before
    # every cancelled one, and this raises the first failure.
    return [future.result() for future in futures]


def by_rows(fn: Callable, x: Array) -> None:
    """Call `fn(index)` over index expressions that together cover `x`'s
    leading axis once: `...` on the calling thread when `x` has fewer than
    SPLIT_MIN elements or the caller is a pool worker, else one contiguous
    `slice` of rows per thread, the first run by the caller. `fn` must write
    only the rows it is given."""
    threads = 1 if x.size < SPLIT_MIN or _on_worker() else thread_count()
    if threads == 1 or x.shape[0] == 1:
        fn(...)
        return
    pieces = min(threads, x.shape[0])
    bounds = [x.shape[0] * i // pieces for i in range(pieces + 1)]
    chunks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    pool = _pool(threads)
    futures = [pool.submit(fn, chunk) for chunk in chunks[1:]]
    try:
        fn(chunks[0])
    finally:
        for future in futures:  # every chunk ends, or is cancelled, before the caller goes on
            future.exception()
    for future in futures:
        future.result()


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on `inputs` joins the active tape: one is recording and
    an input takes a gradient."""
    return _active_record() is not None and any(t.requires_grad for t in inputs)


def _record_op(out_data: Array, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    tracked = _tracked(inputs)
    out = Tensor(out_data, requires_grad=tracked)
    if tracked:
        out._record = _active_record()
        out._record._append(_TapeEntry(out, inputs, backward))
    return out


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _elementwise(a, b, fwd, bwd_a, bwd_b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"operands are not broadcastable: {a.shape} vs {b.shape}") from exc

    def backward(g):
        return (
            _unbroadcast(bwd_a(g, a.data, b.data), a.data.shape) if a.requires_grad else None,
            _unbroadcast(bwd_b(g, a.data, b.data), b.data.shape) if b.requires_grad else None,
        )

    return _record_op(out, (a, b), backward)


def add(a, b) -> Tensor:
    return _elementwise(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def subtract(a, b) -> Tensor:
    return _elementwise(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def multiply(a, b) -> Tensor:
    return _elementwise(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x)


def divide(a, b) -> Tensor:
    return _elementwise(
        a, b, lambda x, y: x / y, lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y)
    )


def negate(t) -> Tensor:
    t = _lift(t)
    return _record_op(-t.data, (t,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """[m, n] @ [n, p], or equal stacks [..., m, n] @ [..., n, p] (no broadcasting)."""
    a, b = _lift(a), _lift(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul expects two matrices or equal stacks, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return (g @ np.swapaxes(b.data, -1, -2) if a.requires_grad else None,
                np.swapaxes(a.data, -1, -2) @ g if b.requires_grad else None)

    return _record_op(out, (a, b), backward)


def _matmul_into(a: Array, b: Array, bias: Array | None = None) -> Array:
    """a @ b (+ bias over the last axis) in a fresh C-ordered buffer, the bias
    added in place. A [K, ...] stack runs matrix by matrix over `by_rows` of
    its K axis, gated on its largest operand; a 2-D product runs whole. On
    OpenBLAS, row blocks of two rows or more of x.T @ g with up to 8 inner
    rows (1-5 and 8 measured) kept the whole product's bits, but a one-row
    block (its gemv path) does not, nor do row blocks of the gate's narrow
    [R, 64] @ [64, K] `w_out` head."""
    out = np.empty(a.shape[:-1] + b.shape[-1:])

    def matrices(s):
        np.matmul(a[s], b[s], out=out[s])
        if bias is not None:
            out[s] += bias[s, np.newaxis, :]

    if a.ndim == 2:
        matrices(...)
    else:
        by_rows(matrices, max(a, b, out, key=np.size))
    return out


def _affine(x: Tensor, w: Tensor, b: Tensor) -> tuple[Array, Callable]:
    """`linear`'s product in a fresh C-ordered buffer, and the function that
    maps an adjoint of it to the adjoints of x, w and b."""
    if (x.ndim not in (2, 3) or w.ndim != x.ndim or b.ndim != x.ndim - 1
            or not x.shape[:-2] == w.shape[:-2] == b.shape[:-1]
            or x.shape[-1] != w.shape[-2] or b.shape[-1] != w.shape[-1]):
        raise ShapeError(f"linear expects [m, n] @ [n, p] + [p] or [K, m, n] @ [K, n, p] + [K, p], "
                         f"got {x.shape}, {w.shape} and {b.shape}")

    def backward(g):
        if not w.requires_grad:
            d_w = None
        elif x.ndim == 2 and not x.requires_grad:  # x is copied: it may be a view the caller writes
            d_w = OuterProduct(np.array(x.data), g)
        else:
            d_w = _matmul_into(np.swapaxes(x.data, -1, -2), g)
        return (_matmul_into(g, np.swapaxes(w.data, -1, -2)) if x.requires_grad else None, d_w,
                g.sum(axis=-2) if b.requires_grad else None)

    return _matmul_into(x.data, w.data, b.data), backward


def linear(x, w, b) -> Tensor:
    """x @ w + b: [m, n] @ [n, p] + [p], or one per matrix of a stack,
    [K, m, n] @ [K, n, p] + [K, p]. The bias is added into the product's own
    buffer, and a stack's product and adjoints are split over the pool by
    matrix (`_matmul_into`); the bits are those of `matmul` then `add`."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    out, backward = _affine(x, w, b)
    return _record_op(out, (x, w, b), backward)


def linear_gelu(x, w, b) -> Tensor:
    """gelu(linear(x, w, b)) as one op, with the bits and adjoints of the
    two (the weight's `OuterProduct` included): GELU's one body (`_gelu_of`)
    over the product's own buffer, so with nothing recording the layer's
    output is its one full-size array."""
    x, w, b = _lift(x), _lift(w), _lift(b)
    z, affine_backward = _affine(x, w, b)
    return _gelu_of(z, (x, w, b), affine_backward)


def mix(weights, stack) -> Tensor:
    """The weighted sum of a stack over its leading axis: weights [..., K]
    and stack [K, ..., H] give [..., H], sum_k weights[..., k, None] *
    stack[k]. The products are added in k order into one zeroed buffer
    through one scratch of the output's shape, which gives the bits of
    `sum(multiply(w, stack), axis=0)` for w the weights moved to [K, ..., 1]:
    NumPy sums the leading axis of a C-ordered array one slice at a time,
    from 0.0. No [K, ..., H] product is made going forward."""
    weights, stack = _lift(weights), _lift(stack)
    k = weights.shape[-1] if weights.ndim else 0
    if stack.ndim < 2 or weights.shape != stack.shape[1:-1] + (k,) or stack.shape[0] != k:
        raise ShapeError(f"mix expects weights [..., K] and a stack [K, ..., H], "
                         f"got {weights.shape} and {stack.shape}")
    w, s = weights.data[..., np.newaxis], stack.data  # w[..., k, :] is [..., 1]
    out, scratch = np.zeros(stack.shape[1:]), np.empty(stack.shape[1:])
    for i in range(k):
        out += np.multiply(w[..., i, :], s[i], out=scratch)

    def backward(g):
        d_w = d_s = None
        if weights.requires_grad:
            d_w, product = np.empty(weights.shape), np.empty(g.shape)
            for i in range(k):  # summed down to [..., 1] as `multiply` does it
                np.multiply(g, s[i], out=product)
                d_w[..., i] = _unbroadcast(product, w.shape[:-2] + (1,))[..., 0]
        if stack.requires_grad:
            d_s = np.empty(stack.shape)
            for i in range(k):
                np.multiply(g, w[..., i, :], out=d_s[i])
        return d_w, d_s

    return _record_op(out, (weights, stack), backward)


def transpose(t, axes=(1, 0)) -> Tensor:
    t = _lift(t)
    if sorted(axes) != list(range(t.ndim)):
        raise ShapeError(f"transpose axes {axes} do not permute the axes of shape {t.shape}")
    return _record_op(t.data.transpose(axes), (t,),
                      lambda g: (g.transpose([list(axes).index(i) for i in range(g.ndim)]),))


def reshape(t, shape) -> Tensor:
    t = _lift(t)
    try:
        out = t.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {t.shape} to {shape}") from exc
    orig = t.data.shape
    return _record_op(out, (t,), lambda g: (g.reshape(orig),))


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    ts = [_lift(t) for t in tensors]
    if not ts:
        raise ContractError("concat needs at least one tensor")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat shapes incompatible: {[t.shape for t in ts]}") from exc
    sizes = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def backward(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _record_op(out, tuple(ts), backward)


def slice_axis(t, axis: int, start: int, stop: int) -> Tensor:
    t = _lift(t)
    if not -t.ndim <= axis < t.ndim:
        raise ShapeError(f"slice axis {axis} out of range for shape {t.shape}")
    axis %= t.ndim
    index = tuple(slice(start, stop) if i == axis else slice(None) for i in range(t.ndim))
    out = t.data[index]

    def backward(g):
        full = np.zeros_like(t.data)
        full[index] = g
        return (full,)

    return _record_op(out, (t,), backward)


def gather_rows(t, indices) -> Tensor:
    """Select rows of a matrix, or rows of each matrix of a stack: `t` is
    [..., n, d] and `indices` [..., k] indexes the n rows of the matrix it
    lines up with, each matrix on its own: an index out of [-n, n) raises
    IndexError and a negative one counts from the end of its own matrix.
    Duplicate indices accumulate in the adjoint."""
    t = _lift(t)
    idx = np.asarray(indices, dtype=np.intp)
    if t.ndim < 2 or idx.shape[:-1] != t.shape[:-2] or idx.ndim < 1:
        raise ShapeError(f"gather_rows expects [..., n, d] data and [..., k] indices, "
                         f"got shapes {t.shape} and {idx.shape}")
    out = np.take_along_axis(t.data, idx[..., np.newaxis], axis=-2)

    def backward(g):
        full = np.zeros(t.data.shape)
        np.add.at(full, np.indices(idx.shape, sparse=True)[:-1] + (idx,), g)  # (matrix..., row)
        return (full,)

    return _record_op(out, (t,), backward)


def exp(t) -> Tensor:
    t = _lift(t)
    out = np.exp(t.data)
    return _record_op(out, (t,), lambda g: (g * out,))


def log(t) -> Tensor:
    t = _lift(t)
    return _record_op(np.log(t.data), (t,), lambda g: (g / t.data,))


def sqrt(t) -> Tensor:
    t = _lift(t)
    out = np.sqrt(t.data)
    return _record_op(out, (t,), lambda g: (g * 0.5 / out,))


def relu(t) -> Tensor:
    t = _lift(t)
    mask = t.data > 0
    return _record_op(np.where(mask, t.data, 0.0), (t,), lambda g: (g * mask,))


def _gelu_kernel(x: Array, cdf: Array, out: Array) -> None:
    """out = x * Phi(x), with Phi(x) = 0.5 * (1 + erf(x / sqrt 2)) left in
    `cdf`: into fresh buffers on a tape (`_gelu_of`), and with `out` being
    `x` in place (`_gelu_in_place`). SciPy's erf computes a negative
    argument as -erf(-x), so erf runs on |x / sqrt 2| and the sign is copied
    back from x: the same bits, without erf's branch on a random sign."""
    np.multiply(x, _INV_SQRT2, out=cdf)
    np.abs(cdf, out=cdf)
    erf(cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    np.multiply(x, cdf, out=out)


def _gelu_in_place(z: Array) -> None:
    """GELU over a C-ordered buffer, in place through its flat view: each
    `by_rows` piece of its elements in blocks of ADAM_BLOCK, through one
    block-sized scratch."""
    flat = z.reshape(-1)

    def piece(index):
        part = flat[index]
        scratch = np.empty(min(ADAM_BLOCK, part.size))
        for lo in range(0, part.size, ADAM_BLOCK):
            block = part[lo:lo + ADAM_BLOCK]
            _gelu_kernel(block, scratch[:block.size], block)

    by_rows(piece, flat)


def _gelu_adjoint(x: Array, cdf: Array, g: Array) -> Array:
    """The adjoint of GELU at x for the output adjoint g, given Phi(x) in
    `cdf`, a row chunk at a time (`by_rows`). It runs the ops of
    g * (cdf + x * pdf), pdf = exp(-0.5 * x * x) / sqrt(2 pi), in their
    order with the operands of each commutative op swapped, which gives the
    same bits."""
    d_x = np.empty_like(x)

    def backward_rows(rows):
        d, xr = d_x[rows], x[rows]
        np.multiply(xr, -0.5, out=d)
        d *= xr
        np.exp(d, out=d)
        d *= _INV_SQRT_2PI
        d *= xr
        d += cdf[rows]
        d *= g[rows]

    by_rows(backward_rows, x)
    return d_x


def _gelu_of(z: Array, inputs: tuple[Tensor, ...], backward: Callable) -> Tensor:
    """GELU of `z`, a C-ordered buffer the caller hands over, as the output
    of an op on `inputs`, whose adjoints `backward` maps z's adjoint to. On
    a tape it is one entry that keeps z and Phi, both directions split by
    rows (`by_rows`); with nothing recording it runs in place over z
    (`_gelu_in_place`) and keeps nothing else."""
    if not _tracked(inputs):
        _gelu_in_place(z)
        return Tensor(z)
    cdf, out = np.empty_like(z), np.empty_like(z)
    by_rows(lambda rows: _gelu_kernel(z[rows], cdf[rows], out[rows]), z)
    return _record_op(out, inputs, lambda g: backward(_gelu_adjoint(z, cdf, g)))


def gelu(t) -> Tensor:
    """Exact Gaussian-error-linear unit, x * Phi(x): GELU's one body
    (`_gelu_of`) over a C-ordered copy of x, which is never written."""
    t = _lift(t)
    return _gelu_of(np.array(t.data, order="C"), (t,), lambda d_x: (d_x,))


def _reduce_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(a % ndim for a in axis)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axis}")
    return axes


def _reduced_count(t: Tensor, axes: tuple[int, ...], op: str) -> int:
    """The number of elements each output of `op` reduces over, never zero."""
    count = math.prod(t.shape[a] for a in axes)
    if count == 0:
        raise ShapeError(f"{op} over empty axes of shape {t.shape}")
    return count


def _expand_reduced(g: Array, axes: tuple[int, ...], keepdims: bool) -> Array:
    if keepdims:
        return g
    g = np.asarray(g)
    for a in sorted(axes):
        g = np.expand_dims(g, a)
    return g


def sum(t, axis=None, keepdims: bool = False) -> Tensor:  # noqa: A001 - numpy-style name
    t = _lift(t)
    axes = _reduce_axes(axis, t.ndim)
    out = t.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        g = _expand_reduced(g, axes, keepdims)
        return (np.broadcast_to(g, t.data.shape),)

    return _record_op(out, (t,), backward)


def mean(t, axis=None, keepdims: bool = False) -> Tensor:
    t = _lift(t)
    axes = _reduce_axes(axis, t.ndim)
    count = _reduced_count(t, axes, "mean")
    out = t.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        g = _expand_reduced(g, axes, keepdims)
        return (np.broadcast_to(g / count, t.data.shape),)

    return _record_op(out, (t,), backward)


def variance(t, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (divides by the element count, not count - 1)."""
    t = _lift(t)
    axes = _reduce_axes(axis, t.ndim)
    count = _reduced_count(t, axes, "variance")
    centered = t.data - t.data.mean(axis=axes, keepdims=True)
    out = (centered * centered).mean(axis=axes, keepdims=keepdims)

    def backward(g):
        g = _expand_reduced(g, axes, keepdims)
        return (np.broadcast_to(g, t.data.shape) * (2.0 / count) * centered,)

    return _record_op(out, (t,), backward)


def softmax(t) -> Tensor:
    """Softmax over the last dimension, stabilised by max subtraction."""
    t = _lift(t)
    if t.ndim < 1 or t.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last dimension, got shape {t.shape}")
    if not np.isfinite(t.data).all():
        raise NumericError("softmax input contains non-finite entries")
    z = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _record_op(out, (t,), backward)


def layer_norm(t, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalise the last dimension to zero mean and unit variance, then affine."""
    t, gain, bias = _lift(t), _lift(gain), _lift(bias)
    n = t.shape[-1] if t.ndim else 0
    if n < 2:
        raise ShapeError(f"layer_norm over a degenerate last dimension, shape {t.shape}")
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({n},), got {gain.shape} and {bias.shape}")
    mu = t.data.mean(axis=-1, keepdims=True)
    xhat = t.data - mu  # centred here, scaled in place below
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        d_gain = (g * xhat).sum(axis=lead)
        d_bias = g.sum(axis=lead)
        d_xhat = g * gain.data
        d_x = inv * (
            d_xhat
            - d_xhat.mean(axis=-1, keepdims=True)
            - xhat * (d_xhat * xhat).mean(axis=-1, keepdims=True)
        )
        return d_x, d_gain, d_bias

    return _record_op(out, (t, gain, bias), backward)


def dropout(t, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; the identity (same tensor) when not training or rate 0."""
    t = _lift(t)
    if not training or rate == 0.0:
        return t
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    if rng is None:
        raise ContractError("dropout in training mode needs the run RNG")
    mask = (rng.random(t.data.shape) >= rate) / (1.0 - rate)
    return _record_op(t.data * mask, (t,), lambda g: (g * mask,))


def backward(loss: Tensor) -> None:
    """Replay the loss's tape once, reversed, accumulating adjoints.

    Afterwards every leaf of the tape (a requires_grad tensor that an entry
    reads but that this record did not produce, such as a parameter) has
    `.grad` set; leaves the loss does not reach get an all-zero gradient.
    A leaf whose one adjoint is an `OuterProduct` keeps it as its `adjoint`
    unformed; a second adjoint of the same tensor, or an op reading it,
    forms it first. Op outputs get no `.grad`: each entry, and the adjoint
    of its output, is freed as soon as the entry is replayed. The record is
    spent: a second backward, or a further op recorded into it, raises
    ContractError.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ContractError("backward needs a scalar loss tensor")
    rec = loss._record
    if rec is None:
        raise ContractError("loss does not participate in any DiffRecord")
    entries = rec._release()
    acc: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    while entries:
        entry = entries.pop()
        for t in entry.inputs:
            if t.requires_grad and t._record is not rec:
                leaves[id(t)] = t
        g_out = acc.pop(id(entry.out), None)
        if g_out is None:
            continue
        for t, g in zip(entry.inputs, entry.backward(_dense(g_out))):
            if g is None or not t.requires_grad:
                continue
            prev = acc.get(id(t))
            if prev is not None:
                acc[id(t)] = _dense(prev) + _dense(g)
            elif isinstance(g, OuterProduct):
                acc[id(t)] = g
            else:
                acc[id(t)] = np.asarray(g, dtype=np.float64)
    for key, t in leaves.items():
        g = acc.get(key)
        if g is None:
            g = np.zeros_like(t.data)
        elif not isinstance(g, OuterProduct):
            g = np.asarray(g).reshape(t.data.shape)
        t.adjoint = g


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-4) -> float:
    """Max relative error between taped and central-difference gradients.

    Relative error per coordinate is |analytic - numeric| / max(1, |numeric|).
    `f` must be a deterministic scalar-valued function of its argument.
    """
    base = np.array(x.data, dtype=np.float64)
    probe = Tensor(base.copy(), requires_grad=True)
    with recording():
        out = f(probe)
        backward(out)
    if probe.grad is None:
        raise ContractError("f does not use its argument")
    analytic = probe.grad.reshape(-1).copy()
    flat = base.reshape(-1)
    numeric = np.empty_like(flat)
    with no_recording():
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] = flat[i] + h
            hi = f(Tensor(bumped.reshape(base.shape))).item()
            bumped[i] = flat[i] - h
            lo = f(Tensor(bumped.reshape(base.shape))).item()
            numeric[i] = (hi - lo) / (2.0 * h)
    err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(err.max()) if err.size else 0.0


def pinv(x, rcond: float = 1e-6) -> Tensor:
    """Moore-Penrose pseudo-inverse via SVD, singular values below
    rcond * sigma_max treated as zero. A [..., m, n] stack gives the
    [..., n, m] stack of its matrices' pseudo-inverses. The SVD, the cut and
    the product run matrix by matrix over `by_rows` of the leading axis, so a
    large stack is spread over the pool; each matrix gets the bits of its own
    pinv at any thread count.

    Deliberately a gradient barrier: the result is a constant with respect
    to differentiation and never joins the tape.
    """
    t = _lift(x)
    if t.ndim < 2:
        raise ShapeError(f"pinv expects a matrix or a stack of them, got shape {t.shape}")
    if not np.isfinite(t.data).all():
        raise NumericError("pinv input contains non-finite entries")
    out = np.empty(t.shape[:-2] + t.shape[:-3:-1])

    def matrices(i):
        u, s, vt = np.linalg.svd(t.data[i], full_matrices=False)
        keep = s > rcond * s[..., :1]
        inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
        np.matmul(np.swapaxes(vt, -1, -2) * inv[..., np.newaxis, :], np.swapaxes(u, -1, -2),
                  out=out[i])

    if t.ndim == 2:
        matrices(...)
    else:
        by_rows(matrices, t.data)
    return Tensor(out)


# Elements per Adam update block, and per block of an in-place GELU. With
# DISENTS_THREADS=2 the two row pieces of a large parameter hand the GIL to
# each other at every ufunc call, 14 per block, so fewer, larger blocks run
# faster: on 2 vCPUs with one OpenBLAS thread, blocks of 65536 rather than
# 16384 elements took the update of the 96->96 gate's [9216, 256] `sig_w1`
# from 18.3 to 13.5-14.0 ms on two threads, and left it at 21-25 ms on one.
ADAM_BLOCK = 65536
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _scratch_pair() -> tuple[Array, Array]:
    return np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)


@dataclass
class AdamState:
    """First/second moment buffers for one fixed, ordered parameter list,
    and the pairs of block-sized scratch buffers `adam_step` computes in:
    each row piece running at once takes a pair of its own from `scratch`
    and puts it back when done, so the list grows to one pair per thread."""

    lr: float = 1e-3
    step_count: int = 0
    m: list[Array] = field(default_factory=list)
    v: list[Array] = field(default_factory=list)
    scratch: list[tuple[Array, Array]] = field(
        default_factory=lambda: [_scratch_pair()], init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: Sequence[Tensor], lr: float = 1e-3) -> "AdamState":
        state = cls(lr=lr)
        state.m = [np.zeros_like(p.data) for p in params]
        state.v = [np.zeros_like(p.data) for p in params]
        return state


def _adam_blocks(shape: tuple[int, ...]):
    """Index expressions that cover an array of `shape` in blocks of at most
    ADAM_BLOCK elements: runs of leading-axis rows, as few as fit, cut
    evenly (so where a block holds three rows or more, two rows or more are
    never cut into a one-row block), and where one row is longer than a
    block, the blocks of each row in turn (a stack is blocked matrix by
    matrix)."""
    if not shape:
        yield (np.newaxis,)
        return
    row = math.prod(shape[1:])
    if row > ADAM_BLOCK:
        for i in range(shape[0]):
            yield from ((i,) + index for index in _adam_blocks(shape[1:]))
        return
    count = max(1, -(-shape[0] // (ADAM_BLOCK // max(row, 1))))
    bounds = [shape[0] * i // count for i in range(count + 1)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield (slice(lo, hi),)


def _blocks_of_two_rows(shape: tuple[int, int]) -> bool:
    """Whether `adam_step` updates an [n, p] parameter in row blocks of two
    rows or more, or in one block: a block holds three rows or more, and
    `by_rows` gives each piece two rows or more or does not split."""
    rows, width = shape
    return 3 * width <= ADAM_BLOCK and (rows * width < SPLIT_MIN or rows >= 2 * thread_count())


def adam_step(params: Sequence[Tensor], grads: Sequence[Array | OuterProduct | None],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place on the parameter data.

    A parameter of at least SPLIT_MIN elements is cut into row pieces over
    the pool (`by_rows`), and each piece is updated in blocks of at most
    ADAM_BLOCK elements (see _adam_blocks) through a scratch pair of its own.
    A row slice is a view whatever the memory layout, so every block writes
    into the parameter's own array. Each block runs the elementwise ops of
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) in that order, so the result equals
    the whole-array update bit for bit, at any thread count, without its
    full-size temporaries. An `OuterProduct` gradient is formed a block at a
    time, its rows x.T[rows] @ g into the scratch pair, when every block has
    two rows or more (`_blocks_of_two_rows`): such row blocks gave the whole
    product's bits on OpenBLAS, and a one-row block, which goes down its
    gemv path, does not. Otherwise it is formed whole first.
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ContractError(
            f"adam_step got {len(params)} params, {len(grads)} grads, state of {len(state.m)}"
        )
    state.step_count += 1
    correct1 = 1.0 - ADAM_BETA1 ** state.step_count
    correct2 = 1.0 - ADAM_BETA2 ** state.step_count
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            raise ContractError("adam_step received a missing gradient")
        if not isinstance(g, OuterProduct):
            g = np.asarray(g, dtype=np.float64)
        elif not _blocks_of_two_rows(g.shape):
            g = g.array()
        if g.shape != p.data.shape or m.shape != p.data.shape:
            raise ShapeError(
                f"adam_step shape mismatch: param {p.data.shape}, grad {g.shape}, moment {m.shape}"
            )

        def piece(rows):  # by_rows returns only once every piece has ended
            try:
                scratch = state.scratch.pop()
            except IndexError:  # every pair is held by a piece running beside this one
                scratch = _scratch_pair()
            arrays = p.data[rows], m[rows], v[rows]
            dense = None if isinstance(g, OuterProduct) else g[rows]
            try:
                for index in _adam_blocks(arrays[0].shape):
                    pb, mb, vb = (a[index] for a in arrays)
                    t1, t2 = (buf[:pb.size].reshape(pb.shape) for buf in scratch)
                    if dense is None:  # in t2, which is free until v is updated
                        lo = index[0].start + (0 if rows is ... else rows.start)
                        gb = np.matmul(g.x.T[lo:lo + pb.shape[0]], g.g, out=t2)
                    else:
                        gb = dense[index]
                    mb *= ADAM_BETA1
                    mb += np.multiply(gb, 1.0 - ADAM_BETA1, out=t1)
                    vb *= ADAM_BETA2
                    np.multiply(gb, gb, out=t1)
                    vb += np.multiply(t1, 1.0 - ADAM_BETA2, out=t1)
                    np.divide(mb, correct1, out=t1)
                    np.multiply(t1, state.lr, out=t1)
                    np.divide(vb, correct2, out=t2)
                    np.sqrt(t2, out=t2)
                    np.add(t2, ADAM_EPS, out=t2)
                    pb -= np.divide(t1, t2, out=t1)
            finally:
                state.scratch.append(scratch)

        by_rows(piece, p.data)
