"""Process-lifetime memo of the inputs a cell does not own.

Many cells of one sweep start from the same inputs: every schedule of a GLUE
table fine-tunes the same pre-trained encoder on the same task splits, and
every (schedule, budget) cell of a setting trains on the same synthetic
dataset for a given seed.  :class:`InputMemo` builds each such input once per
process and hands it to every later cell.

Contracts:

* **Keys** carry everything the input depends on (see the callers in
  :mod:`repro.experiments.workloads` and :mod:`repro.experiments.glue_runner`),
  so a hit returns exactly the bytes a fresh build would.
* **Read-only.** Every stored array is marked read-only, so a write to a
  shared input raises instead of leaking into the next cell.  Callers receive
  a fresh shallow copy of the stored containers (tuples, mappings, datasets)
  whose arrays are the stored read-only arrays.
* **Bounded.** The stored arrays never total more than :data:`MAX_BYTES`;
  the least recently used entries are dropped to make room, and a value larger
  than the whole bound is handed out without being stored.
* **Thread-safe.** ``repro serve`` trains cells in threads.  One lock is held
  across lookup, build and store, so concurrent requests build each key once.
"""

from __future__ import annotations

import copy
import os
import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Callable, Hashable, Mapping, TypeVar

import numpy as np

from repro.data.dataset import ArrayDataset

__all__ = ["InputMemo", "INPUTS", "MAX_BYTES"]

T = TypeVar("T")

#: bound of the process memo: 14 split pairs of the largest proxy dataset at
#: full scale (detection, 4.6 MB a pair), enough for every seed of a 10-seed
#: sweep of any one setting
MAX_BYTES = 64 * 2**20


def _arrays(value: Any) -> list[np.ndarray]:
    """Every numpy array reachable through the container types the memo stores."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, ArrayDataset):
        return list(value.arrays)
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    if isinstance(value, Mapping):
        return [a for item in value.values() for a in _arrays(item)]
    raise TypeError(f"InputMemo cannot store a value of type {type(value).__name__}")


def _share(value: Any) -> Any:
    """A fresh shallow copy of a stored value; its arrays stay the shared read-only ones."""
    if isinstance(value, np.ndarray):
        return value
    if isinstance(value, ArrayDataset):
        return copy.copy(value)
    if isinstance(value, tuple):
        return tuple(_share(item) for item in value)
    return MappingProxyType({key: _share(item) for key, item in value.items()})


class InputMemo:
    """A bounded, thread-safe map from a key to a read-only input built on first use."""

    def __init__(self) -> None:
        self.max_bytes = MAX_BYTES
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._nbytes = 0
        self._reset_lock()

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored arrays (always at most ``max_bytes``)."""
        return self._nbytes

    def clear(self) -> None:
        """Drop every entry (the state of a fresh process)."""
        with self._lock:
            self._entries.clear()
            self._nbytes = 0

    def get(self, key: Hashable, build: Callable[[], T]) -> T:
        """Return the input stored under ``key``, calling ``build()`` on its first use.

        ``build`` returns numpy arrays, :class:`~repro.data.dataset.ArrayDataset`\\ s,
        or tuples and mappings of them.  Its arrays are marked read-only
        before anything is handed out, whether or not the value fits the bound.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return _share(entry[0])
            value = build()
            arrays = _arrays(value)
            for array in arrays:
                array.flags.writeable = False
            nbytes = sum(a.nbytes for a in arrays)
            if nbytes <= self.max_bytes:
                while self._nbytes + nbytes > self.max_bytes:
                    _, (_, evicted) = self._entries.popitem(last=False)
                    self._nbytes -= evicted
                self._entries[key] = (value, nbytes)
                self._nbytes += nbytes
            return _share(value)


#: the memo the experiment runners share for the life of the process
INPUTS = InputMemo()

# A worker forked while another thread held the memo's lock would inherit it
# locked forever; the child starts with a fresh lock (entries stay valid).
os.register_at_fork(after_in_child=INPUTS._reset_lock)
