"""In-memory spans for the traced run, recorded from outside the program.

A span is (name, start, end, parent, item, work): the wrapped function,
its perf_counter_ns interval, the index of the enclosing span (-1 at the
root), the work item it belongs to, and a work count taken from the call
(RK4 steps for ``integrate``, layers for the scattering kernels, else 1).

Wrappers are installed by replacing the module attribute that the caller
looks up (``matterwave.dynamics.integrate`` for ``cli``'s
``dynamics.integrate(...)``), so ``src/`` is unchanged and the untraced
run executes exactly the code users run.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

# (module, attribute the caller looks up, span name, work count from args)
TARGETS = (
    ("matterwave.cli", "load_species_registry", "quantities.load_species_registry", None),
    ("matterwave.mode", "make_mode", "mode.make_mode", None),
    ("matterwave.fields", "evaluate", "fields.evaluate", None),
    ("matterwave.dynamics", "integrate", "dynamics.integrate", lambda a, k: a[4] if len(a) > 4 else k["steps"]),
    ("matterwave.scattering", "transfer_matrix", "scattering.transfer_matrix", lambda a, k: len(a[0].layers)),
    ("matterwave.scattering", "numerov_oracle", "scattering.numerov_oracle", lambda a, k: len(a[0].layers)),
    ("matterwave.interferometer", "mzi_output", "interferometer.mzi_output", None),
    ("matterwave.resonator", "airy_transmission", "resonator.airy_transmission", None),
    ("matterwave.resonator", "accel_from_shift", "resonator.accel_from_shift", None),
    ("matterwave.interactions", "resonance_pull", "interactions.resonance_pull", None),
)


class Tracer:
    """Columns of spans kept in memory until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.work = array("q")
        self._stack: list[int] = []
        self.current_item = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int, work: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.current_item)
        self.work.append(work)
        self._stack.append(idx)
        return idx

    def call(self, name: str, fn, *args, work: int = 1, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        idx = self._open(self._intern(name), work)
        self.start[idx] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn, work_of=None):
        name_id = self._intern(name)
        clock = time.perf_counter_ns
        start, end, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id, work_of(args, kwargs) if work_of else 1)
            start[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every TARGETS entry; returns a function that restores them."""
        saved = []
        for module_name, attr, span_name, work_of in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, work_of))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def to_json(self) -> dict:
        return {"names": self.names, "name": list(self.name), "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent),
                "item": list(self.item), "work": list(self.work)}

    def extend_json(self, data: dict) -> None:
        """Append the spans a child process recorded to the current item."""
        offset = len(self.start)
        for i in range(len(data["start"])):
            self.name.append(self._intern(data["names"][data["name"][i]]))
            self.start.append(data["start"][i])
            self.end.append(data["end"][i])
            parent = data["parent"][i]
            self.parent.append(parent + offset if parent >= 0 else -1)
            self.item.append(self.current_item)
            self.work.append(data["work"][i])


class LayerStats:
    """Per-name totals and self times derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        # numpy only here: cli_shim imports this module before it times
        # `import matterwave`, which brings numpy in
        import numpy as np

        self.names = tracer.names
        self.name = np.array(tracer.name, dtype=np.int32)
        self.start = np.array(tracer.start, dtype=np.int64)
        self.end = np.array(tracer.end, dtype=np.int64)
        self.item = np.array(tracer.item, dtype=np.int64)
        self.parent = np.array(tracer.parent, dtype=np.int64)
        self.work = np.array(tracer.work, dtype=np.int64)
        self.dur = (self.end - self.start).astype(np.float64) * 1e-9
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                               minlength=len(self.dur))
        self.self_time = self.dur - children

    def _mask(self, name: str):
        # name ids start at 0, so a name never recorded matches no span
        return self.name == (self.names.index(name) if name in self.names else -1)

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())

    def work_sum(self, name: str) -> int:
        return int(self.work[self._mask(name)].sum())

    def median_s(self, name: str, work: int | None = None) -> float:
        import numpy as np

        mask = self._mask(name)
        if work is not None:
            mask &= self.work == work
        return float(np.median(self.dur[mask])) if mask.any() else 0.0

    def save(self, path: str, context: dict) -> None:
        """Write the spans out once the run has ended."""
        import numpy as np

        np.savez(path, name=self.name, start_ns=self.start, end_ns=self.end,
                 parent=self.parent, item=self.item, work=self.work, self_s=self.self_time,
                 meta=np.array(json.dumps({"names": self.names, **context})))


def parse_importtime(stderr_text: str) -> dict:
    """Cumulative seconds of `matterwave` and of scipy from `-X importtime`.

    scipy's share is the sum over the outermost scipy entries, which are
    the scipy modules not nested inside another scipy module's import.
    """
    entries = []  # (depth, name, cumulative_us) in the post-order Python prints
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the column header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((depth, name, cumulative))
    matterwave_us = sum(c for d, n, c in entries if n == "matterwave")
    scipy_us = 0
    # an entry's parent is the next entry with a smaller depth (post-order)
    for i, (depth, name, cumulative) in enumerate(entries):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        nested = False
        level = depth
        for d, n, _ in entries[i + 1:]:
            if d < level:
                if n == "scipy" or n.startswith("scipy."):
                    nested = True
                    break
                level = d
                if d == 0:
                    break
        if not nested:
            scipy_us += cumulative
    return {"matterwave_s": matterwave_us * 1e-6, "scipy_s": scipy_us * 1e-6}
