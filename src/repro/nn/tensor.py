"""A small reverse-mode automatic differentiation engine on top of numpy.

This module is the substrate that replaces PyTorch for this reproduction: the
REX paper's schedules only need *some* gradient-based training loop whose
optimizer exposes a mutable learning rate, so a compact, well-tested autograd
Tensor is sufficient.

Design notes
------------
* ``Tensor`` wraps a ``numpy.ndarray``.  Float data is coerced to the
  process-wide default dtype (:mod:`repro.nn.dtype`, ``float64`` unless
  overridden) or to an explicit ``dtype=`` argument; integer/bool data is kept
  as-is for indices/labels.
* Each differentiable op builds a closure that accumulates gradients into its
  parents; ``Tensor.backward`` runs a topological sort and calls the closures
  in reverse order.
* Gradients are stored in the tensor's own dtype.  Backward closures hand
  freshly allocated arrays to ``_accumulate(..., own=True)``, which then adopts
  them instead of copying — the hot ops (matmul, add, mul, relu, softmax)
  allocate at most one array per propagated gradient.
* Broadcasting is supported everywhere through :func:`unbroadcast`, which sums
  a gradient back down to the shape of the operand it belongs to.
* Only operations needed by the model zoo are implemented, but each is
  implemented fully (correct gradients, shape checks, no silent fallbacks).
* A tensor may carry a *seed axis*: ``seed_dim = S`` declares that axis 0
  stacks S independent seed replicas (vmap-style batched multi-seed training,
  see :mod:`repro.nn.batched`).  The flag propagates through every op — an op
  with at least one seed-stacked parent produces a seed-stacked result — so
  rank-sensitive layers (conv, norm, pooling, attention) can detect the extra
  leading axis without any out-of-band signalling.  All batched kernels keep
  each seed's slice bitwise identical to the run it would produce alone.
* The hot kernels stage their results through ``out=`` buffers drawn from the
  active :class:`~repro.nn.plan.GraphPlan`'s workspace arena when a trainer
  has one active (see :mod:`repro.nn.plan`); with no plan active the same
  ufunc/GEMM calls run with ``out=None`` and numpy allocates as before, so
  planned and unplanned runs are bitwise identical.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import plan as _plan
from repro.nn.dtype import EmulatedDtype, active_emulation, get_default_dtype, resolve_dtype

__all__ = ["Tensor", "unbroadcast", "no_grad", "is_grad_enabled"]


_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (like ``torch.no_grad``)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    numpy broadcasting may have (a) prepended dimensions and (b) stretched
    size-1 dimensions; both must be summed out when propagating gradients.
    Returns ``grad`` itself when the shapes already match, a fresh array
    otherwise.
    """
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: object, dtype: np.dtype | None = None) -> np.ndarray:
    if isinstance(data, np.ndarray):
        if data.dtype.kind in "iub":
            return data
        return data.astype(dtype or get_default_dtype(), copy=False)
    return np.asarray(data, dtype=dtype or get_default_dtype())


# ---------------------------------------------------------------------------
# arena-staged kernel helpers
#
# Each returns the same value as the plain numpy expression it replaces; the
# only difference is *where* the result lives: a workspace-arena buffer when a
# GraphPlan is active, a fresh allocation otherwise (``out=None``).  Keeping
# one code path per op is what makes planned-vs-unplanned bitwise equality a
# structural property rather than a test-enforced hope.
# ---------------------------------------------------------------------------

def _no_backward() -> None:
    return None


def _basic_view_index(index: object) -> tuple | None:
    """``index`` as a tuple that always yields a view, or ``None`` if it is not basic.

    Basic indices are ints, slices, ``None`` and ``Ellipsis``; anything else
    (arrays, lists, booleans) is advanced indexing.  A trailing ``Ellipsis``
    makes a full integer index return a 0-d view instead of a scalar copy.
    """
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if isinstance(item, (bool, np.bool_)) or not (
            isinstance(item, (int, np.integer, slice)) or item is None or item is Ellipsis
        ):
            return None
    return items if any(item is Ellipsis for item in items) else (*items, Ellipsis)


def _ew(ufunc: np.ufunc, a: np.ndarray, b: np.ndarray, kinds: str = "fi") -> np.ndarray:
    """``ufunc(a, b)`` staged through the arena when dtypes are homogeneous."""
    plan = _plan.ACTIVE
    if plan is not None and a.dtype == b.dtype and a.dtype.kind in kinds:
        # result-shape fast paths (bias adds, scalar scales, keepdims stats)
        # before the generic — and comparatively slow — np.broadcast_shapes
        if a.shape == b.shape or (a.ndim >= b.ndim and a.shape[a.ndim - b.ndim:] == b.shape):
            shape = a.shape
        elif b.ndim > a.ndim and b.shape[b.ndim - a.ndim:] == a.shape:
            shape = b.shape
        else:
            shape = np.broadcast_shapes(a.shape, b.shape)
        return ufunc(a, b, out=plan.checkout(shape, a.dtype))
    return ufunc(a, b)


def _scalar_ew(ufunc: np.ufunc, a: np.ndarray, scalar: float) -> np.ndarray:
    """``ufunc(a, scalar)`` staged through the arena for float arrays."""
    plan = _plan.ACTIVE
    if plan is not None and a.dtype.kind == "f":
        return ufunc(a, scalar, out=plan.checkout(a.shape, a.dtype))
    return ufunc(a, scalar)


def _unary(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc(a)`` staged through the arena for float arrays."""
    plan = _plan.ACTIVE
    if plan is not None and a.dtype.kind == "f":
        return ufunc(a, out=plan.checkout(a.shape, a.dtype))
    return ufunc(a)


def _neg(a: np.ndarray) -> np.ndarray:
    return _unary(np.negative, a)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with the GEMM result staged through the arena when possible."""
    plan = _plan.ACTIVE
    if plan is not None and a.dtype == b.dtype and a.ndim >= 2 and b.ndim >= 2:
        try:
            batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        except ValueError:
            return a @ b
        out = plan.checkout(batch + (a.shape[-2], b.shape[-1]), a.dtype)
        return np.matmul(a, b, out=out)
    return a @ b


class Tensor:
    """A numpy-backed tensor that records a computation graph for autograd."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_bw",
        "_prev",
        "name",
        "seed_dim",
        "_plan_gen",
        "_plan_idx",
    )

    def __init__(
        self,
        data: object,
        requires_grad: bool = False,
        _prev: tuple["Tensor", ...] = (),
        name: str | None = None,
        dtype: str | np.dtype | type | None = None,
    ) -> None:
        # Dtype policy: *leaf* tensors (user data, batches, scalars) are
        # coerced to the process default so the active ``default_dtype``
        # context governs what enters the graph; *interior* results (``_prev``
        # non-empty, i.e. produced by an op) keep the dtype numpy computed, so
        # a float32 graph stays float32 even when touched outside the context.
        #
        # Under an emulated dtype (bfloat16/float16) the cast-on-store
        # contract is enforced here, at the single point every array enters
        # the graph: leaf data is quantized on a private copy (never mutating
        # caller/dataset arrays), interior op results are quantized in place
        # — the closures captured by backward and by graph plans alias
        # ``out.data``, so in-place is what keeps forward values, backward
        # inputs, and plan replays all seeing the same grid.  Only interiors
        # that *own* their memory (fresh ufunc/GEMM results, arena buffers)
        # are quantized: a view (transpose/reshape/slice) shares its parent's
        # already-stored values, and quantizing it in place would write
        # through to the parent — mutating parameters from inside the forward
        # pass and breaking batched≡serial equivalence wherever the two paths
        # build different view structures over the same values.
        if dtype is not None:
            resolved = resolve_dtype(dtype)
            if isinstance(resolved, EmulatedDtype):
                arr = _as_array(data, resolved.storage)
                if arr.dtype == resolved.storage:
                    if _prev:
                        if arr.base is None and arr.flags.writeable:
                            resolved.quantize_(arr)
                    else:
                        arr = resolved.quantize(arr)
                self.data = arr
            else:
                self.data = _as_array(data, resolved)
        elif _prev:
            arr = data if isinstance(data, np.ndarray) else np.asarray(data)
            emulation = active_emulation()
            if (
                emulation is not None
                and arr.dtype == emulation.storage
                and arr.base is None
                and arr.flags.writeable
            ):
                emulation.quantize_(arr)
            self.data = arr
        else:
            emulation = active_emulation()
            if emulation is not None:
                arr = _as_array(data, emulation.storage)
                if arr.dtype == emulation.storage:
                    arr = emulation.quantize(arr)
                self.data = arr
            else:
                self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._bw: Callable[[], None] = _no_backward
        self._prev: tuple[Tensor, ...] = _prev if _GRAD_ENABLED else ()
        self.name = name
        # Plan bookkeeping: which generation (if any) indexed this tensor
        # into the active plan's tape (generations are process-globally
        # unique, so stamps can never alias across plans).
        self._plan_gen = 0
        # The seed axis is contagious: an op result is seed-stacked when any
        # operand is (see module docstring).  Ops never mix different seed
        # counts, so the first tagged parent decides.
        self.seed_dim: int | None = None
        for parent in _prev:
            if parent.seed_dim is not None:
                self.seed_dim = parent.seed_dim
                break
        if _GRAD_ENABLED:
            plan = _plan.ACTIVE
            if plan is not None:
                plan.register(self, self._prev)

    @property
    def _backward(self) -> Callable[[], None]:
        """The op's backward closure (a no-op for leaves)."""
        return self._bw

    @_backward.setter
    def _backward(self, fn: Callable[[], None]) -> None:
        # An output that needs no gradient (every result under no_grad) never
        # runs its closure, and keeping it would tie the tensor into a
        # reference cycle (the closure captures the tensor) that only the
        # cyclic collector frees; dropping it frees the graph by refcount.
        if self.requires_grad:
            self._bw = fn

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def ensure(value: "Tensor | float | int | np.ndarray") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @classmethod
    def zeros(
        cls, *shape: int, requires_grad: bool = False, dtype: str | np.dtype | type | None = None
    ) -> "Tensor":
        resolved = resolve_dtype(dtype)
        storage = resolved.storage if isinstance(resolved, EmulatedDtype) else resolved
        return cls(np.zeros(shape, dtype=storage), requires_grad=requires_grad, dtype=resolved)

    @classmethod
    def ones(
        cls, *shape: int, requires_grad: bool = False, dtype: str | np.dtype | type | None = None
    ) -> "Tensor":
        resolved = resolve_dtype(dtype)
        storage = resolved.storage if isinstance(resolved, EmulatedDtype) else resolved
        return cls(np.ones(shape, dtype=storage), requires_grad=requires_grad, dtype=resolved)

    @classmethod
    def randn(
        cls,
        *shape: int,
        rng: np.random.Generator | None = None,
        requires_grad: bool = False,
        dtype: str | np.dtype | type | None = None,
    ) -> "Tensor":
        rng = rng or np.random.default_rng()
        resolved = resolve_dtype(dtype)
        storage = resolved.storage if isinstance(resolved, EmulatedDtype) else resolved
        # Always draw in float64 then cast: the stream of random values is then
        # identical across dtypes, so a float32 run starts from the same
        # (rounded) weights as its float64 twin — and a bfloat16 run from the
        # same weights rounded once more to the emulated grid.
        return cls(
            rng.standard_normal(shape).astype(storage, copy=False),
            requires_grad=requires_grad,
            dtype=resolved,
        )

    # -- basic properties ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); treat as read-only."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        if self.data.dtype.kind == "f":
            # preserve the tensor's own dtype, not the ambient default
            return Tensor(self.data.copy(), requires_grad=False, dtype=self.data.dtype)
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype: str | np.dtype | type) -> "Tensor":
        """Differentiable cast; the gradient is cast back to this tensor's dtype."""
        target = resolve_dtype(dtype)
        if isinstance(target, EmulatedDtype):
            # cast-on-store: storage conversion plus one rounding to the grid
            out_data = target.quantize(self.data.astype(target.storage, copy=False))
            out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))
        else:
            if target == self.data.dtype:
                return self
            out = Tensor(self.data.astype(target), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(out.grad.astype(self.data.dtype), own=True)

        out._backward = _backward
        return out

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # -- graph plumbing -------------------------------------------------------
    def _accumulate(self, grad: np.ndarray, own: bool = False) -> None:
        """Add ``grad`` into ``self.grad`` (created on first use).

        ``own=True`` declares that the caller hands over a freshly allocated
        (or arena-owned) array nothing else writes concurrently; it is then
        adopted directly instead of defensively copied.  The gradient always
        lives in ``self.data``'s dtype, so a float32 parameter accumulates a
        float32 gradient.

        Under an active plan a *stale* gradient buffer (kept by a planned
        ``zero_grad``) is overwritten in place instead of re-allocated, and a
        first not-owned contribution is copied into an arena buffer — the
        steady-state backward performs no gradient allocations at all.
        """
        data = self.data
        grad = np.asarray(grad)
        if grad.dtype != data.dtype:
            grad = grad.astype(data.dtype)
            own = True
        if grad.shape != data.shape:
            grad = unbroadcast(grad, data.shape)
            own = True
        current = self.grad
        if current is None:
            # First contribution of this step.  Under a plan the checkout
            # below returns the *same* pooled buffer this site produced last
            # step (the arena, not ``self.grad``, keeps it alive across
            # ``zero_grad``), so the copy is an in-place overwrite and the
            # checkout sequence stays identical on every step.
            if own:
                self.grad = grad
            else:
                plan = _plan.ACTIVE
                if plan is not None:
                    buf = plan.checkout(grad.shape, grad.dtype)
                    np.copyto(buf, grad)
                    self.grad = buf
                else:
                    self.grad = grad.copy()
        else:
            current += grad
        # Cast-on-store for *leaf* gradients: the gradient a parameter hands
        # to the optimizer lives on the emulated grid, quantized after every
        # contribution lands.  Interior gradients deliberately stay float32 —
        # the fused backward chains compiled by repro.nn.plan_passes replicate
        # the closure ufunc sequences (not ``_accumulate``), so quantizing
        # interior accumulations would break the pass≡no-pass bitwise oracle.
        if self.requires_grad and not self._prev:
            emulation = active_emulation()
            if emulation is not None and self.grad.dtype == emulation.storage:
                emulation.quantize_(self.grad)

    def zero_grad(self) -> None:
        """Drop the gradient reference (planned or not).

        Identical semantics with a plan active: ``grad`` must become ``None``
        so a parameter that receives no contribution this step is skipped by
        the optimizers' ``if p.grad is None`` guard — keeping a stale array
        here would silently re-apply last step's gradient.  The buffer itself
        is not lost: the arena still owns it and the next step's first
        ``_accumulate`` checks it out again at the same position.
        """
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad and not self._prev:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        plan = _plan.ACTIVE
        if plan is not None and plan.use_compiled(self):
            # Replay the compiled backward schedule (see repro.nn.plan_passes):
            # same closures, same checkout positions, same accumulation order
            # — minus fused-away and dead-code-eliminated dispatches.
            self._accumulate(grad)
            plan.execute_schedule()
            return
        topo: list[Tensor] | None = plan.topo_order(self) if plan is not None else None
        if topo is None:
            topo = []
            visited: set[int] = set()
            stack: list[tuple[Tensor, bool]] = [(self, False)]
            # Iterative DFS: deep models (e.g. the transformer proxy) overflow
            # the recursion limit with a recursive topo sort.
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.append((node, True))
                for parent in node._prev:
                    if id(parent) not in visited:
                        stack.append((parent, False))
            if plan is not None:
                # Remember the order as creation-order indices: steps whose
                # tape signature matches replay it without another DFS.
                plan.capture_topo(self, topo)

        if plan is not None and plan.wants_backward_capture():
            # Capture step with compiler passes enabled: record each closure's
            # checkout range so compile_step can analyse lifetimes and build
            # the replay schedule.
            plan.begin_backward(self)
            self._accumulate(grad)
            plan.note_seed_done()
            for node in reversed(topo):
                start = plan._pos
                node._backward()
                plan.note_closure(node, start)
            plan.end_backward()
            return

        self._accumulate(grad)
        for node in reversed(topo):
            node._backward()

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(
            _ew(np.add, self.data, other.data),
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(out.grad)

        out._backward = _backward
        _plan.tag(out, "add")
        return out

    def __radd__(self, other: object) -> "Tensor":
        return self.__add__(other)  # type: ignore[arg-type]

    def __neg__(self) -> "Tensor":
        out = Tensor(_neg(self.data), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(_neg(out.grad), own=True)

        out._backward = _backward
        _plan.tag(out, "neg")
        return out

    def __sub__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        # A dedicated node (rather than ``self + (-other)``): one graph node
        # and one temporary fewer on a path batchnorm/layernorm hit every
        # step, with bitwise-identical values (a - b == a + (-b) in IEEE754).
        other = Tensor.ensure(other)
        out = Tensor(
            _ew(np.subtract, self.data, other.data),
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(_neg(out.grad), own=True)

        out._backward = _backward
        _plan.tag(out, "sub")
        return out

    def __rsub__(self, other: object) -> "Tensor":
        return Tensor.ensure(other).__sub__(self)  # type: ignore[arg-type]

    def __mul__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(
            _ew(np.multiply, self.data, other.data),
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            if self.requires_grad:
                self._accumulate(_ew(np.multiply, out.grad, other.data), own=True)
            if other.requires_grad:
                other._accumulate(_ew(np.multiply, out.grad, self.data), own=True)

        out._backward = _backward
        _plan.tag(out, "mul")
        return out

    def __rmul__(self, other: object) -> "Tensor":
        return self.__mul__(other)  # type: ignore[arg-type]

    def __truediv__(self, other: "Tensor | float | np.ndarray") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(
            _ew(np.true_divide, self.data, other.data, kinds="f"),
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            if self.requires_grad:
                self._accumulate(
                    _ew(np.true_divide, out.grad, other.data, kinds="f"), own=True
                )
            if other.requires_grad:
                # -out.grad * self.data / other.data**2, staged step by step
                num = _ew(np.multiply, _neg(out.grad), self.data)
                den = _scalar_ew(np.power, other.data, 2)
                other._accumulate(_ew(np.true_divide, num, den, kinds="f"), own=True)

        out._backward = _backward
        _plan.tag(out, "div")
        return out

    def __rtruediv__(self, other: object) -> "Tensor":
        return Tensor.ensure(other).__truediv__(self)  # type: ignore[arg-type]

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out = Tensor(
            _scalar_ew(np.power, self.data, exponent),
            requires_grad=self.requires_grad,
            _prev=(self,),
        )

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                scaled = _scalar_ew(np.multiply, out.grad, exponent)
                powed = _scalar_ew(np.power, self.data, exponent - 1)
                self._accumulate(_ew(np.multiply, scaled, powed), own=True)

        out._backward = _backward
        _plan.tag(out, "pow", exponent)
        return out

    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        other = Tensor.ensure(other)
        out = Tensor(
            _matmul(self.data, other.data),
            requires_grad=self.requires_grad or other.requires_grad,
            _prev=(self, other),
        )

        def _backward() -> None:
            if out.grad is None:
                return
            a, b, g = self.data, other.data, out.grad
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.expand_dims(g, -1) * b
                else:
                    grad_a = _matmul(g, np.swapaxes(b, -1, -2))
                self._accumulate(grad_a, own=True)
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, g)
                elif b.ndim == 1:
                    grad_b = np.einsum("...i,...->i", a, g)
                else:
                    grad_b = _matmul(np.swapaxes(a, -1, -2), g)
                other._accumulate(grad_b, own=True)

        out._backward = _backward
        return out

    # -- elementwise nonlinearities ------------------------------------------
    def exp(self) -> "Tensor":
        out = Tensor(_unary(np.exp, self.data), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(_ew(np.multiply, out.grad, out.data), own=True)

        out._backward = _backward
        _plan.tag(out, "exp")
        return out

    def log(self) -> "Tensor":
        out = Tensor(_unary(np.log, self.data), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(_ew(np.true_divide, out.grad, self.data, kinds="f"), own=True)

        out._backward = _backward
        _plan.tag(out, "log")
        return out

    def sqrt(self) -> "Tensor":
        return self.__pow__(0.5)

    def tanh(self) -> "Tensor":
        out_data = _unary(np.tanh, self.data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                # out.grad * (1 - out_data**2), staged in one buffer
                sq = _scalar_ew(np.power, out_data, 2)
                np.subtract(1.0, sq, out=sq)
                np.multiply(out.grad, sq, out=sq)
                self._accumulate(sq, own=True)

        out._backward = _backward
        _plan.tag(out, "tanh")
        return out

    def sigmoid(self) -> "Tensor":
        # 1 / (1 + exp(-x)), staged in one buffer
        out_data = _neg(self.data)
        np.exp(out_data, out=out_data)
        out_data += 1.0
        np.divide(1.0, out_data, out=out_data)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                # out.grad * s * (1 - s), staged in two buffers
                left = _ew(np.multiply, out.grad, out_data)
                plan = _plan.ACTIVE
                if plan is not None:
                    right = np.subtract(
                        1.0, out_data, out=plan.checkout(out_data.shape, out_data.dtype)
                    )
                else:
                    right = 1.0 - out_data
                np.multiply(left, right, out=left)
                self._accumulate(left, own=True)

        out._backward = _backward
        _plan.tag(out, "sigmoid")
        return out

    def relu(self) -> "Tensor":
        # Boolean mask (1 byte/element) instead of a float mask, and a single
        # ufunc for the forward value.
        plan = _plan.ACTIVE
        a = self.data
        if plan is not None:
            mask = np.greater(a, 0, out=plan.checkout(a.shape, np.dtype(bool)))
            out_data = np.maximum(a, 0, out=plan.checkout(a.shape, a.dtype))
        else:
            mask = a > 0
            out_data = np.maximum(a, 0)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                g = out.grad
                inner = _plan.ACTIVE
                if inner is not None:
                    grad = np.multiply(g, mask, out=inner.checkout(g.shape, g.dtype))
                else:
                    grad = g * mask
                self._accumulate(grad, own=True)

        out._backward = _backward
        _plan.tag(out, "relu")
        return out

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, self.data.dtype.type(1.0), self.data.dtype.type(negative_slope))
        out = Tensor(
            _ew(np.multiply, self.data, scale),
            requires_grad=self.requires_grad,
            _prev=(self,),
        )

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(_ew(np.multiply, out.grad, scale), own=True)

        out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        sign = _unary(np.sign, self.data)
        out = Tensor(_unary(np.abs, self.data), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(_ew(np.multiply, out.grad, sign), own=True)

        out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data > low) & (self.data < high)
        out = Tensor(np.clip(self.data, low, high), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(out.grad * mask, own=True)

        out._backward = _backward
        return out

    # -- reductions -----------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None or not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                shape = list(self.data.shape)
                for a in axes:
                    shape[a] = 1
                grad = grad.reshape(shape)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        out._backward = _backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is None or not self.requires_grad:
                return
            # The tie mask is cast with the tensor's own dtype (not a
            # hard-coded float64) so float32 graphs keep float32 gradients.
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(mask * out.grad, own=True)
            else:
                expanded_max = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded_max).astype(self.data.dtype)
                mask /= mask.sum(axis=axis, keepdims=True)
                grad = out.grad
                if not keepdims:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(mask * grad, own=True)

        out._backward = _backward
        return out

    # -- shape manipulation -----------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])  # type: ignore[assignment]
        out = Tensor(self.data.reshape(shape), requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(out.grad.reshape(self.data.shape))

        out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: tuple[int, ...] | None = axes if axes else None
        out = Tensor(
            self.data.transpose(axes_tuple), requires_grad=self.requires_grad, _prev=(self,)
        )

        def _backward() -> None:
            if out.grad is None or not self.requires_grad:
                return
            if axes_tuple is None:
                self._accumulate(out.grad.transpose())
            else:
                inverse = np.argsort(axes_tuple)
                self._accumulate(out.grad.transpose(inverse))

        out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Swap two axes (used by the seed-batched matmul paths)."""
        out = Tensor(
            np.swapaxes(self.data, axis1, axis2), requires_grad=self.requires_grad, _prev=(self,)
        )

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(np.swapaxes(out.grad, axis1, axis2))

        out._backward = _backward
        return out

    def __getitem__(self, index: object) -> "Tensor":
        out = Tensor(self.data[index], requires_grad=self.requires_grad, _prev=(self,))
        view_index = _basic_view_index(index)

        def _backward() -> None:
            if out.grad is None or not self.requires_grad:
                return
            plan = _plan.ACTIVE
            if plan is not None:
                grad = plan.checkout(self.data.shape, self.data.dtype)
                grad.fill(0)
            else:
                grad = np.zeros_like(self.data)
            if view_index is not None:
                # a basic index selects each element at most once, so adding
                # into the zeroed view computes add.at's 0 + g without its
                # per-element dispatch
                view = grad[view_index]
                np.add(view, out.grad, out=view)
            else:
                np.add.at(grad, index, out.grad)
            self._accumulate(grad, own=True)

        out._backward = _backward
        return out

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two (spatial) dimensions of an NCHW tensor."""
        if padding == 0:
            return self
        if self.data.ndim != 4:
            raise ValueError("pad2d expects an NCHW tensor")
        p = int(padding)
        out_data = np.pad(self.data, ((0, 0), (0, 0), (p, p), (p, p)))
        out = Tensor(out_data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward() -> None:
            if out.grad is not None and self.requires_grad:
                self._accumulate(out.grad[:, :, p:-p, p:-p])

        out._backward = _backward
        return out

    # -- comparisons return plain bool arrays (no grad) ---------------------------
    def __gt__(self, other: object) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data > other_data

    def __lt__(self, other: object) -> np.ndarray:
        other_data = other.data if isinstance(other, Tensor) else other
        return self.data < other_data

    # -- fused softmax family ---------------------------------------------------
    # These used to be composed from sub/exp/sum/div primitives, which built a
    # five-node graph with ~6 full-size temporaries per call.  Softmax sits on
    # the hot path of every classifier loss and every attention layer, so both
    # are fused into a single graph node with a closed-form backward.
    def softmax(self, axis: int = -1) -> "Tensor":
        a = self.data
        shifted = _ew(np.subtract, a, a.max(axis=axis, keepdims=True))
        np.exp(shifted, out=shifted)
        shifted /= shifted.sum(axis=axis, keepdims=True)
        out = Tensor(shifted, requires_grad=self.requires_grad, _prev=(self,))
        out_data = out.data

        def _backward() -> None:
            if out.grad is None or not self.requires_grad:
                return
            # dL/dx = s * (g - sum(g * s))
            grad = _ew(np.multiply, out.grad, out_data)
            grad -= _ew(np.multiply, out_data, grad.sum(axis=axis, keepdims=True))
            self._accumulate(grad, own=True)

        out._backward = _backward
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        a = self.data
        shifted = _ew(np.subtract, a, a.max(axis=axis, keepdims=True))
        exp = _unary(np.exp, shifted)
        logsumexp = np.log(np.sum(exp, axis=axis, keepdims=True))
        shifted -= logsumexp
        out = Tensor(shifted, requires_grad=self.requires_grad, _prev=(self,))
        out_data = out.data

        def _backward() -> None:
            if out.grad is None or not self.requires_grad:
                return
            # dL/dx = g - softmax * sum(g)
            grad = _unary(np.exp, out_data)
            grad *= -out.grad.sum(axis=axis, keepdims=True)
            grad += out.grad
            self._accumulate(grad, own=True)

        out._backward = _backward
        return out


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in tensors),
        _prev=tuple(tensors),
    )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward() -> None:
        if out.grad is None:
            return
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if not t.requires_grad:
                continue
            slicer: list[slice] = [slice(None)] * data.ndim
            slicer[axis] = slice(start, stop)
            t._accumulate(out.grad[tuple(slicer)])

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor.ensure(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    out = Tensor(
        data,
        requires_grad=any(t.requires_grad for t in tensors),
        _prev=tuple(tensors),
    )

    def _backward() -> None:
        if out.grad is None:
            return
        grads = np.split(out.grad, len(tensors), axis=axis)
        for t, g in zip(tensors, grads):
            if t.requires_grad:
                t._accumulate(np.squeeze(g, axis=axis))

    out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection ``condition ? a : b`` (condition is constant)."""
    a, b = Tensor.ensure(a), Tensor.ensure(b)
    cond = np.asarray(condition, dtype=bool)
    out = Tensor(
        np.where(cond, a.data, b.data),
        requires_grad=a.requires_grad or b.requires_grad,
        _prev=(a, b),
    )

    def _backward() -> None:
        if out.grad is None:
            return
        if a.requires_grad:
            a._accumulate(np.where(cond, out.grad, 0.0), own=True)
        if b.requires_grad:
            b._accumulate(np.where(cond, 0.0, out.grad), own=True)

    out._backward = _backward
    return out
