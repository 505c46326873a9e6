"""Optimizer base class with PyTorch-style parameter groups.

The learning-rate schedules in :mod:`repro.schedules` manipulate
``optimizer.param_groups[i]["lr"]`` (and, for OneCycle, ``"momentum"`` /
``"betas"``), exactly as ``torch.optim.lr_scheduler`` does, so the scheduler
code reads like the PyTorch implementations the paper references.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.nn.modules.base import Parameter

__all__ = [
    "Optimizer",
    "ParamGroup",
    "decayed_grad_",
    "ema_update_",
    "ema_sq_update_",
]

ParamGroup = dict[str, Any]


class _Flat:
    """Contiguous storage for a run of same-dtype parameters of one group.

    The parameters' values lie back to back in one buffer and each
    ``p.data`` is rebound to a view of its slice; every state tensor an
    optimizer keeps (momentum, moments...) gets one buffer of the same
    layout, zeroed on creation, whose per-parameter views are what ``state``
    holds.  Elementwise updates over a slice of these buffers therefore
    update many parameters with one ufunc call each.  Existing values and
    state arrays are copied in, so building (or rebuilding) the storage
    changes no value.
    """

    __slots__ = ("params", "offsets", "views", "data", "grad", "_state", "_scratch")

    def __init__(self, params: list[Parameter], state: dict[int, dict[str, Any]]) -> None:
        self.params = params
        self.offsets = [0]
        for p in params:
            self.offsets.append(self.offsets[-1] + p.data.size)
        self.data = np.empty(self.offsets[-1], params[0].data.dtype)
        self.views = self._views(self.data)
        for p, view in zip(params, self.views):
            np.copyto(view, p.data)
            p.data = view
        self.grad = np.empty_like(self.data)
        #: state key -> (buffer, per-parameter views)
        self._state: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}
        self._scratch: dict[str, np.ndarray] = {}
        self.adopt_state(state)

    def adopt_state(self, state: dict[int, dict[str, Any]]) -> None:
        """Copy the float arrays of the parameters' ``state`` entries into the
        flat state buffers (cast to the parameters' dtype) and point the
        entries at their views."""
        for i, p in enumerate(self.params):
            entry = state.get(id(p), {})
            for key, value in entry.items():
                if isinstance(value, np.ndarray) and value.dtype.kind == "f":
                    view = self.state(key)[1][i]
                    np.copyto(view, value)
                    entry[key] = view

    def _views(self, buf: np.ndarray) -> list[np.ndarray]:
        return [
            buf[lo:hi].reshape(p.data.shape)
            for p, lo, hi in zip(self.params, self.offsets, self.offsets[1:])
        ]

    def runs(self, state: dict[int, dict[str, Any]]) -> Iterator["_Run"]:
        """The maximal contiguous runs of parameters that have a gradient
        and share a state layout (the same state keys and step count)."""
        start, layout, entries = 0, None, []
        for j, p in enumerate(self.params):
            entry = None if p.grad is None else state.setdefault(id(p), {})
            key = None if entry is None else (len(entry), entry.get("step"))
            if entries and key != layout:
                yield _Run(self, start, j, entries)
                entries = []
            if entry is not None:
                if not entries:
                    start, layout = j, key
                entries.append(entry)
        if entries:
            yield _Run(self, start, len(self.params), entries)

    def intact(self) -> bool:
        """Whether every ``p.data`` is still its view (nothing rebound it)."""
        return all(p.data is view for p, view in zip(self.params, self.views))

    def state(self, key: str) -> tuple[np.ndarray, list[np.ndarray]]:
        """State tensor ``key``'s flat buffer and per-parameter views (created zeroed)."""
        pair = self._state.get(key)
        if pair is None:
            buf = np.zeros_like(self.data)
            pair = self._state[key] = (buf, self._views(buf))
        return pair

    def scratch(self, key: str) -> np.ndarray:
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = np.empty_like(self.data)
        return buf


class _Run:
    """One fused update's operands: a contiguous slice of a :class:`_Flat`.

    The parameters in ``flat.params[start:stop]`` all have a gradient this
    step and share one state layout (the same state keys and step count),
    so one set of ufunc calls over ``data``/``grad`` and the :meth:`state`
    and :meth:`scratch` slices updates all of them.  ``entries`` are their
    ``state`` dicts.
    """

    __slots__ = ("flat", "start", "stop", "lo", "hi", "entries", "data", "grad")

    def __init__(self, flat: _Flat, start: int, stop: int, entries: list[dict[str, Any]]) -> None:
        self.flat, self.start, self.stop, self.entries = flat, start, stop, entries
        self.lo, self.hi = flat.offsets[start], flat.offsets[stop]
        self.data = flat.data[self.lo:self.hi]
        self.grad = flat.grad[self.lo:self.hi]
        grads = [p.grad for p in flat.params[start:stop]]
        np.concatenate(grads, axis=None, out=self.grad)

    def is_fresh(self, key: str) -> bool:
        """Whether state tensor ``key`` does not exist yet (its first step)."""
        return key not in self.entries[0]

    def state(self, key: str) -> np.ndarray:
        """This run's slice of state tensor ``key``, created zeroed on first use."""
        buf, views = self.flat.state(key)
        buf = buf[self.lo:self.hi]
        if key not in self.entries[0]:
            buf.fill(0)
            for entry, view in zip(self.entries, views[self.start:self.stop]):
                entry[key] = view
        return buf

    def scratch(self, key: str) -> np.ndarray:
        """This run's slice of work buffer ``key``; contents are meaningless between steps."""
        return self.flat.scratch(key)[self.lo:self.hi]


class Optimizer:
    """Base class: owns parameter groups, per-parameter state and flat storage.

    Each group's parameters live in contiguous buffers (:class:`_Flat`, one
    per run of same-dtype parameters).  :meth:`step` copies the present
    gradients into a flat gradient buffer and calls the subclass's fused
    :meth:`_update` once per maximal contiguous run of parameters that have
    a gradient and share a state layout, so the number of numpy calls per
    step does not grow with the number of parameters.  The updates are
    elementwise, so every value is bitwise what a per-parameter loop gives.
    """

    def __init__(self, params: Iterable[Parameter] | Sequence[ParamGroup], defaults: dict[str, Any]) -> None:
        self.defaults = dict(defaults)
        self.param_groups: list[ParamGroup] = []
        self.state: dict[int, dict[str, Any]] = {}
        #: (group, flat storage) pairs, in parameter order
        self._flats: list[tuple[ParamGroup, _Flat]] = []

        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if isinstance(params[0], dict):
            for group in params:  # type: ignore[assignment]
                self.add_param_group(dict(group))
        else:
            self.add_param_group({"params": list(params)})

    def add_param_group(self, group: ParamGroup) -> None:
        if "params" not in group or not group["params"]:
            raise ValueError("each parameter group must contain a non-empty 'params' list")
        for key, value in self.defaults.items():
            group.setdefault(key, value)
        if "lr" in group and group["lr"] < 0:
            raise ValueError(f"learning rate must be non-negative, got {group['lr']}")
        seen = {id(p) for g in self.param_groups for p in g["params"]}
        for p in group["params"]:
            if not isinstance(p, Parameter):
                raise TypeError(f"optimizer parameters must be Parameter instances, got {type(p)}")
            if id(p) in seen:
                raise ValueError("a parameter appears in more than one parameter group")
        self.param_groups.append(group)
        self._flats.extend(self._flatten(group))

    def _flatten(self, group: ParamGroup) -> list[tuple[ParamGroup, _Flat]]:
        """Flat storage for ``group``: one :class:`_Flat` per run of same-dtype parameters."""
        runs: list[list[Parameter]] = []
        for p in group["params"]:
            if runs and runs[-1][0].data.dtype == p.data.dtype:
                runs[-1].append(p)
            else:
                runs.append([p])
        return [(group, _Flat(run, self.state)) for run in runs]

    # -- state helpers -------------------------------------------------------
    def state_for(self, param: Parameter) -> dict[str, Any]:
        return self.state.setdefault(id(param), {})

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for p in group["params"]:
                p.zero_grad()

    # -- lr access used by schedulers -----------------------------------------
    def get_lr(self) -> float:
        """Learning rate of the first parameter group."""
        return float(self.param_groups[0]["lr"])

    def set_lr(self, lr: float) -> None:
        """Set the learning rate of every parameter group."""
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        for group in self.param_groups:
            group["lr"] = float(lr)

    # -- the actual update -------------------------------------------------------
    def _update(self, group: ParamGroup, run: _Run) -> None:
        """Fused in-place update of one run (see :class:`_Run`)."""
        raise NotImplementedError

    def step(self) -> None:
        if not all(flat.intact() for _, flat in self._flats):
            # something rebound a parameter's data (seed stacking does):
            # re-flatten, copying the values and the state
            self._flats = [pair for group in self.param_groups for pair in self._flatten(group)]
        for group, flat in self._flats:
            for run in flat.runs(self.state):
                self._update(group, run)

    # -- serialization -------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        groups = [
            {k: v for k, v in g.items() if k != "params"} | {"n_params": len(g["params"])}
            for g in self.param_groups
        ]
        flat_state = []
        for group in self.param_groups:
            for p in group["params"]:
                entry = {
                    k: (v.copy() if isinstance(v, np.ndarray) else v)
                    for k, v in self.state.get(id(p), {}).items()
                }
                flat_state.append(entry)
        return {"param_groups": groups, "state": flat_state}

    def load_state_dict(self, state_dict: dict[str, Any]) -> None:
        groups = state_dict["param_groups"]
        if len(groups) != len(self.param_groups):
            raise ValueError("parameter group count mismatch in state dict")
        flat_params = [p for g in self.param_groups for p in g["params"]]
        flat_state = state_dict["state"]
        if len(flat_state) != len(flat_params):
            raise ValueError("per-parameter state count mismatch in state dict")
        for saved, group in zip(groups, self.param_groups):
            for key, value in saved.items():
                if key != "n_params":
                    group[key] = value
        for p, entry in zip(flat_params, flat_state):
            self.state[id(p)] = {
                k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in entry.items()
            }
        # float state lands in the existing flat buffers, cast to the
        # parameters' dtype, so the fused in-place updates never silently
        # upcast a float32 buffer and ``p.data`` stays the same view
        for _, flat in self._flats:
            flat.adopt_state(self.state)

    def __repr__(self) -> str:
        n = sum(len(g["params"]) for g in self.param_groups)
        return f"{type(self).__name__}(groups={len(self.param_groups)}, params={n}, lr={self.get_lr()})"


# ---------------------------------------------------------------------------
# fused in-place update helpers
#
# Every optimizer step used to rebind its state buffers (``buf = momentum *
# buf + grad``), allocating one or more fresh arrays per parameter per step.
# These helpers express the same updates as in-place ufunc calls staged
# through a caller-provided scratch array, so the steady-state step performs
# zero allocations.
# ---------------------------------------------------------------------------

def decayed_grad_(grad: np.ndarray, param_data: np.ndarray, weight_decay: float, scratch: np.ndarray) -> np.ndarray:
    """Return ``grad + weight_decay * param_data`` staged in ``scratch``.

    With ``weight_decay == 0`` the original ``grad`` is returned untouched;
    otherwise the result lives in ``scratch`` (``grad`` itself is never
    modified — it belongs to the autograd engine).
    """
    if not weight_decay:
        return grad
    np.multiply(param_data, weight_decay, out=scratch)
    scratch += grad
    return scratch


def ema_update_(buf: np.ndarray, value: np.ndarray, decay: float, weight: float, scratch: np.ndarray) -> None:
    """In-place exponential moving average: ``buf <- decay*buf + weight*value``."""
    buf *= decay
    if weight == 1.0:
        buf += value
    else:
        np.multiply(value, weight, out=scratch)
        buf += scratch


def ema_sq_update_(buf: np.ndarray, value: np.ndarray, decay: float, weight: float, scratch: np.ndarray) -> None:
    """In-place second-moment EMA: ``buf <- decay*buf + weight*value**2``."""
    buf *= decay
    np.multiply(value, value, out=scratch)
    if weight != 1.0:
        scratch *= weight
    buf += scratch
