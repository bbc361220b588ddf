"""In-situ spans around the public functions of the mcsda package.

The tracer replaces every public function of the package, in every
module namespace that holds it, by a wrapper named after the namespace
its caller resolves it from: ``mcsda.discriminant.solve_ratio_trace`` is
the solver as the fitting code calls it, ``mcsda.cli.load_dataset`` the
loader as the command line calls it. Each call records one span (name,
start, end, parent span, op id and an optional work count) in flat
arrays kept in memory; :meth:`Tracer.summary` turns them into self time
per function after the run. Nothing under ``src/`` is modified: the
wrappers live only in this process, between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`.

Spans assume one thread: the stack of open spans is shared, so the
benchmark keeps ``--jobs`` at 1.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "mcsda"

# Entry points that are not in any ``__all__`` but that the benchmark calls.
EXTRA_ENTRY_POINTS = (("mcsda.cli", "main"),)


def _dir_bytes(path) -> int:
    """Bytes of the regular files directly inside a dataset or model directory."""
    root = Path(path)
    return sum(p.stat().st_size for p in root.iterdir() if p.is_file())


def _solve_n3(pair, *args, **kwargs) -> int:
    return int(pair.size) ** 3


# Work counted at the call boundary: the computed cost of a solve (n^3 of
# the pencil) and the bytes a load reads.
COUNTERS = {
    "linalg.solve_ratio_trace": _solve_n3,
    "datasets.load_dataset": lambda path, *a, **k: _dir_bytes(path),
    "model_io.load_model": lambda path, *a, **k: _dir_bytes(path),
}


class Tracer:
    """Records nested spans of one thread in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self._patches: list[tuple[types.ModuleType, str, object, object]] = []

    def _intern(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def _wrap(self, name: str, fn):
        layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        nid = self._intern(name, layer)
        counter = COUNTERS.get(layer)
        stack = self._stack
        name_ids, parents, ops = self.name_id, self.parent, self.op
        counts, starts, ends = self.count, self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            counts.append(counter(*args, **kwargs) if counter else 0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op_id: int):
        """A span the benchmark opens itself, around one op."""
        self.op_id = op_id
        i = len(self.start)
        self.name_id.append(self._intern(name, layer))
        self.parent.append(self._stack[-1])
        self.op.append(op_id)
        self.count.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _targets(self) -> list[tuple[str, str]]:
        """(module, attribute) of every public package function, in every
        package namespace that holds it."""
        targets = set(EXTRA_ENTRY_POINTS)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(module).items():
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__
                if home.startswith(PACKAGE + ".") and attr in getattr(
                    sys.modules[home], "__all__", ()
                ):
                    targets.add((name, attr))
        return sorted(targets)

    def install(self) -> None:
        """Put the wrappers in place (built once, on the first call)."""
        if not self._patches:
            for module_name, attr in self._targets():
                module = sys.modules[module_name]
                original = getattr(module, attr)
                wrapped = self._wrap(f"{module_name}.{attr}", original)
                self._patches.append((module, attr, original, wrapped))
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per-span arrays with self time: duration minus the time its
        direct children cover (children of one thread never overlap).
        ``layer_idx`` indexes ``layers``, the distinct ``module.function``
        names."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = end - start
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        layers = sorted(set(self.layers))
        lut = np.array([layers.index(x) for x in self.layers], dtype=np.int64)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        return {
            "layers": layers,
            "layer_idx": lut[name_id] if len(name_id) else np.zeros(0, np.int64),
            "duration": duration,
            "self": duration - child,
            "count": np.frombuffer(self.count, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def dump(self, path) -> None:
        """Write every span to an ``.npz`` file (names as a string table)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            layers=np.asarray(self.layers),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            count=np.frombuffer(self.count, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
