"""Span recording for the traced benchmark run.

The traced run wraps the layer functions of the ``repro`` package from
the benchmark's own files; the program itself is not modified.  Most
modules bind functions such as ``propagate_fault`` by name at import
time, so a wrapper is installed at every module attribute that holds
the original function, not only where it is defined.  Methods
(``SymbolicSession.step``, the strategies' ``observe``, the BDD
manager's ``rename``/``collect``, the checkpoint writer) are wrapped on
their classes.

Every wrapped call becomes one span: name, start, end, parent span and
whether it raised.  Spans are kept in flat in-memory columns while the
pass runs and written out once at the end.  A ``symbolic.step`` span
that raised is an aborted step: the session is unchanged and the frame
is re-run, so all of its time is thrown away.

Kernel counts (ite calls, computed-table hits and misses, nodes
created) come from ``BddManager.enable_stats()``, switched on for every
manager created while tracing is installed.  A manager's counters are
folded into the recorder when the manager is freed, and the managers
still alive are folded when tracing is removed.
"""

import array
import functools
import gc
import json
import sys
import time
import weakref

from repro.bdd.manager import BddManager
from repro.engines.algebra import BddAlgebra, BoolAlgebra, ThreeValuedAlgebra
from repro.runtime.checkpoint import CheckpointWriter
from repro.symbolic.fault_sim import SymbolicSession
from repro.symbolic.strategies import MotStrategy, RmotStrategy, SotStrategy

_KERNEL_KEYS = ("ite_calls", "nodes_created", "cache_hits", "cache_misses")

_ALGEBRA_SUFFIX = {
    BddAlgebra: "bdd",
    ThreeValuedAlgebra: "3v",
    BoolAlgebra: "bool",
}


class SpanRecorder:
    """Flat columns of spans, in the order they were opened.

    A parent is always opened before its children, so a span's parent
    index is smaller than its own; -1 marks a root span.
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.failed = array.array("b")
        self._stack = [-1]
        self.kernel = dict.fromkeys(_KERNEL_KEYS, 0)

    def name_id(self, name):
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index, failed=False):
        self.end[index] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[index] = 1

    def __len__(self):
        return len(self.start)

    def fold_kernel(self, manager):
        stats = manager.stats()
        for key in _KERNEL_KEYS:
            self.kernel[key] += stats[key]

    # ------------------------------------------------------------------
    def summary(self, discard="symbolic.step"):
        """Per span name: calls, failed calls, inclusive time, self time,
        the inclusive time of the calls that raised, and ``kept_s``: self
        time spent outside any failed *discard* span (work that was not
        thrown away).  The ``kept_s`` of all names plus the ``failed_s``
        of *discard* partition the time of the root spans."""
        count = len(self.start)
        child_time = [0.0] * count
        wasted = [False] * count
        discard_id = self._name_ids.get(discard)
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            up = parent[index]
            if up >= 0:
                child_time[up] += end[index] - start[index]
            wasted[index] = (
                (self.name[index] == discard_id and self.failed[index])
                or (up >= 0 and wasted[up])
            )
        table = {
            name: {
                "calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0,
                "failed_s": 0.0, "kept_s": 0.0,
            }
            for name in self.names
        }
        for index in range(count):
            row = table[self.names[self.name[index]]]
            duration = end[index] - start[index]
            own = duration - child_time[index]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += own
            if not wasted[index]:
                row["kept_s"] += own
            if self.failed[index]:
                row["failed"] += 1
                row["failed_s"] += duration
        return table

    def write(self, path, meta):
        """Write every span as JSON columns (times relative to the
        first span, in seconds)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "meta": meta,
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "failed"],
                    "name": self.name.tolist(),
                    "start": [round(t - origin, 7) for t in self.start],
                    "end": [round(t - origin, 7) for t in self.end],
                    "parent": self.parent.tolist(),
                    "failed": self.failed.tolist(),
                },
                handle,
                separators=(",", ":"),
            )


def _span_wrapper(recorder, name, function):
    name_id = recorder.name_id(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = recorder.open(name_id)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.close(index, failed=True)
            raise
        recorder.close(index)
        return result

    return wrapper


def _algebra_wrapper(recorder, prefix, function):
    """Span named ``<prefix>_<algebra>``; the algebra is argument 1."""
    ids = {
        kind: recorder.name_id(f"{prefix}_{suffix}")
        for kind, suffix in _ALGEBRA_SUFFIX.items()
    }

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        algebra = args[1] if len(args) > 1 else kwargs["algebra"]
        index = recorder.open(ids[type(algebra)])
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.close(index, failed=True)
            raise
        recorder.close(index)
        return result

    return wrapper


class Tracing:
    """Install the layer wrappers; :meth:`remove` restores everything."""

    #: (module, attribute, span name) of the layer functions wrapped at
    #: every import site
    FUNCTIONS = (
        ("repro.xred.idxred", "eliminate_x_redundant", "xred.idxred"),
        (
            "repro.engines.parallel_fault_sim",
            "fault_simulate_3v_parallel",
            "engines.fault3v_parallel",
        ),
        (
            "repro.sequences.deterministic",
            "deterministic_sequence",
            "sequences.deterministic",
        ),
        ("repro.symbolic.hybrid", "hybrid_fault_simulate", "symbolic.hybrid"),
        ("repro.runtime.campaign", "run_campaign", "runtime.campaign"),
        ("repro.audit.runner", "run_audit", "audit.run"),
    )

    #: functions whose spans are split by the algebra they run under
    ALGEBRA_FUNCTIONS = (
        ("repro.engines.propagate", "propagate_fault", "engines.propagate"),
        ("repro.engines.evaluate", "simulate_frame", "engines.simulate_frame"),
    )

    METHODS = (
        (SymbolicSession, "step", "symbolic.step"),
        (SotStrategy, "observe", "symbolic.observe"),
        (RmotStrategy, "observe", "symbolic.observe"),
        (MotStrategy, "observe", "symbolic.observe"),
        (BddManager, "rename", "bdd.rename"),
        (BddManager, "collect", "bdd.collect"),
        (CheckpointWriter, "write_header", "runtime.checkpoint"),
        (CheckpointWriter, "write_checkpoint", "runtime.checkpoint"),
        (CheckpointWriter, "write_progress", "runtime.checkpoint"),
    )

    def __init__(self, recorder):
        self.recorder = recorder
        self._undo = []
        self._managers = weakref.WeakSet()
        try:
            for module_name, attr, span in self.FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                self._replace_everywhere(
                    original, _span_wrapper(recorder, span, original)
                )
            for module_name, attr, prefix in self.ALGEBRA_FUNCTIONS:
                original = getattr(sys.modules[module_name], attr)
                self._replace_everywhere(
                    original, _algebra_wrapper(recorder, prefix, original)
                )
            for cls, attr, span in self.METHODS:
                original = cls.__dict__[attr]
                self._set(cls, attr, _span_wrapper(recorder, span, original))
            self._install_kernel_stats()
        except BaseException:
            self.remove()
            raise

    def _set(self, owner, attr, value):
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _install_kernel_stats(self):
        recorder = self.recorder
        managers = self._managers
        original_init = BddManager.__dict__["__init__"]

        @functools.wraps(original_init)
        def init(manager, *args, **kwargs):
            original_init(manager, *args, **kwargs)
            manager.enable_stats()
            manager._bench_unfolded = True
            managers.add(manager)

        def finalize(manager):
            if manager.__dict__.pop("_bench_unfolded", False):
                recorder.fold_kernel(manager)

        self._set(BddManager, "__init__", init)
        self._set(BddManager, "__del__", finalize)

    def remove(self):
        """Fold the managers still alive, then undo every patch."""
        gc.collect()
        for manager in list(self._managers):
            if manager.__dict__.pop("_bench_unfolded", False):
                self.recorder.fold_kernel(manager)
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
