"""Outside-in span tracing for the perf ledger.

Nothing under ``src/`` knows about this module.  :func:`install` swaps
public entry points of each layer (class attributes and module-level
functions) for timing wrappers, and :func:`uninstall` restores them.
Each call through a wrapper is one span: name, start, end, parent and
the repeat's run id.  The first ``RAW_LIMIT`` spans are kept verbatim;
every span feeds the per-name aggregates (count, inclusive time, self
time), so memory stays bounded on long repeats.

A span name is ``<layer>:<function>``; the layer comes from the module
the wrapped code lives in (:func:`layer_of`).  Two wrappers attribute
work that no class attribute could reach:

* ``Trace.subscribe`` wraps the subscriber it is given, so the
  ``LiveChecker`` callback is spanned under ``consistency`` instead
  of being folded into ``sim.trace``;
* ``Engine.schedule`` wraps the scheduled callback, so an event's
  handler is spanned under the module that defines it and
  ``Engine.step`` keeps only the dispatch cost as self time.

Self time = a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Optional

#: Raw spans kept per trace file (aggregates cover every span).
RAW_LIMIT = 50_000

ROOT_SPAN = "host:repeat"

#: Longest module prefix wins.
_LAYER_PREFIXES = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.sim", "sim.network"),
    ("repro.consistency", "consistency"),
    ("repro.p4", "p4"),
    ("repro.core.controller", "core.controller"),
    ("repro.core", "core.switch"),
    ("repro.serve", "serve"),
    ("repro.algos", "serve"),
    ("repro.chaos", "chaos"),
    ("repro.topo", "topo"),
    ("repro.traffic", "topo"),
    ("repro.obs", "obs"),
    ("repro.harness", "harness"),
    ("repro.baselines", "baselines"),
    ("repro.sweep", "sweep"),
    ("repro.ops", "ops"),
)

#: (module, class, method) — wrapped as class attributes.
METHODS = (
    ("repro.sim.engine", "Engine", "step"),
    ("repro.sim.engine", "Engine", "run"),
    ("repro.sim.network", "Network", "transmit"),
    ("repro.sim.network", "Network", "transmit_control"),
    ("repro.sim.trace", "Trace", "record"),
    ("repro.p4.pipeline", "Pipeline", "process"),
    ("repro.core.dataplane", "P4UpdateProgram", "ingress"),
    ("repro.core.controller", "P4UpdateController", "prepare_update"),
    ("repro.core.controller", "P4UpdateController", "push_update"),
    ("repro.core.controller", "P4UpdateController", "handle_control"),
    ("repro.core.switch", "P4UpdateSwitch", "handle_control"),
    ("repro.serve.orchestrator", "ServiceOrchestrator", "submit"),
    ("repro.serve.orchestrator", "ServiceOrchestrator", "finalize"),
    ("repro.ops.session", "OpsSession", "run"),
    ("repro.ops.session", "OpsSession", "finalize"),
)

#: (module, function) — wrapped in every loaded module that bound the
#: name with ``from ... import`` (the benchmark's own included).  ``capture`` keeps the return
#: value so the layers' own counters can be read after the repeat.
FUNCTIONS = (
    ("repro.chaos.runner", "trace_signature", False),
    ("repro.serve.service", "run_service", False),
    ("repro.serve.workload", "build_flow_population", False),
    ("repro.harness.scenarios", "multi_flow_scenario", False),
    ("repro.harness.build", "build_p4update_network", True),
    ("repro.harness.baselines_build", "build_ezsegway_network", True),
    ("repro.harness.baselines_build", "build_central_network", True),
    ("repro.harness.experiment", "run_experiment", False),
    ("repro.harness.prep", "prep_workload", False),
    ("repro.baselines.ezsegway", "prepare_ez_update", False),
    ("repro.baselines.ezsegway", "congestion_dependency_graph", False),
    ("repro.sweep.worker", "run_shard_payload", False),
    ("repro.sweep.executor", "run_sweep", False),
    ("repro.sweep.merge", "build_sweep_results", False),
    ("repro.ops.session", "build_session", False),
    ("repro.ops.checkpoint", "write_checkpoint", False),
    ("repro.ops.checkpoint", "load_checkpoint", True),
)


def layer_of(module: Optional[str]) -> str:
    """The ledger layer a module's code is accounted to."""
    module = module or ""
    for prefix, layer in _LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Recorder:
    """In-memory span store: a call stack, aggregates, first raw spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.count: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        # [name_id, start_ns, end_ns, parent_raw_index, run_id]
        self.raw: list[list[int]] = []
        # one [child_ns, raw_index] frame per open span
        self.stack: list[list[int]] = []
        self.run_id = 0
        #: Return values of the ``capture`` entry points, in call order.
        self.captured: list[Any] = []

    def name_id(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def call(self, nid: int, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` as one span (the only hot path of a traced run)."""
        stack = self.stack
        raw = self.raw
        raw_index = -1
        if len(raw) < RAW_LIMIT:
            raw_index = len(raw)
            raw.append([nid, 0, 0, stack[-1][1] if stack else -1, self.run_id])
        frame = [0, raw_index]          # [child_ns, raw_index]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            self.count[nid] += 1
            self.total_ns[nid] += duration
            self.self_ns[nid] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            if raw_index >= 0:
                row = raw[raw_index]
                row[1] = start
                row[2] = end

    # -- reading ------------------------------------------------------------

    def aggregates(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "count": self.count[i],
                "total_ms": self.total_ns[i] / 1e6,
                "self_ms": self.self_ns[i] / 1e6,
            }
            for i, name in enumerate(self.names)
        }

    def count_of(self, name: str) -> int:
        nid = self.ids.get(name)
        return self.count[nid] if nid is not None else 0

    def total_ms(self, name: str) -> float:
        nid = self.ids.get(name)
        return self.total_ns[nid] / 1e6 if nid is not None else 0.0

    def self_ms(self, name: str) -> float:
        nid = self.ids.get(name)
        return self.self_ns[nid] / 1e6 if nid is not None else 0.0

    def layer_self_ms(self) -> dict[str, float]:
        """Self time per layer; the root span's own is ``unattributed``."""
        layers: dict[str, float] = {}
        for i, name in enumerate(self.names):
            layer = "unattributed" if name == ROOT_SPAN else name.split(":", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_ns[i] / 1e6
        return layers

    def to_doc(self) -> dict[str, Any]:
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "run_id"],
            "names": list(self.names),
            "aggregates": self.aggregates(),
            "layer_self_ms": self.layer_self_ms(),
            "raw_spans": self.raw,
            "raw_spans_kept": len(self.raw),
            "spans_total": sum(self.count),
        }


#: The recorder of the installed tracing session.  Module-level on
#: purpose: a :class:`SpannedCallback` restored from an ops checkpoint
#: must find the live recorder without having been handed one.
_ACTIVE: Optional[Recorder] = None

_NO_KWARGS: dict[str, Any] = {}

#: (owner, attribute, original) for :func:`uninstall`.
_PATCHED: list[tuple[Any, str, Any]] = []


class SpannedCallback:
    """A callable spanned under its owner's layer.

    Picklable (ops checkpoints serialise engine events and trace
    subscribers) and equal to the callback it wraps, so
    ``Trace.unsubscribe(original)`` still finds it.
    """

    def __init__(self, fn: Callable[..., Any], name: str) -> None:
        self.fn = fn
        self.name = name

    def __call__(self, *args: Any) -> Any:
        recorder = _ACTIVE
        if recorder is None:
            return self.fn(*args)
        return recorder.call(
            recorder.name_id(self.name), self.fn, args, _NO_KWARGS
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpannedCallback):
            return self.fn == other.fn
        return self.fn == other

    def __hash__(self) -> int:
        return hash(self.fn)


def callback_name(callback: Callable[..., Any]) -> str:
    """``<layer>:<qualname>`` from where the callback's code lives."""
    target = callback
    while isinstance(target, functools.partial):
        target = target.func
    target = getattr(target, "__func__", target)
    qualname = getattr(target, "__qualname__", type(target).__name__)
    return f"{layer_of(getattr(target, '__module__', None))}:{qualname}"


def _span_wrapper(recorder: Recorder, name: str, fn: Callable[..., Any],
                  capture: bool = False) -> Callable[..., Any]:
    nid = recorder.name_id(name)
    call = recorder.call

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return call(nid, fn, args, kwargs)

    @functools.wraps(fn)
    def capturing(*args: Any, **kwargs: Any) -> Any:
        result = call(nid, fn, args, kwargs)
        recorder.captured.append(result)
        return result

    return capturing if capture else wrapper


def _callback_wrapper(fn: Callable[..., Any], position: int) -> Callable[..., Any]:
    """Wrap ``fn`` so the callable at ``args[position]`` gets spanned."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        callback = args[position]
        if not isinstance(callback, SpannedCallback):
            spanned = SpannedCallback(callback, callback_name(callback))
            args = args[:position] + (spanned,) + args[position + 1:]
        return fn(*args, **kwargs)

    return wrapper


def _patch(owner: Any, attribute: str, replacement: Any) -> None:
    _PATCHED.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def install() -> Recorder:
    """Wrap every entry point; returns the recorder now collecting."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("span tracing is already installed")
    recorder = Recorder()
    for module_name, class_name, method in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        name = f"{layer_of(module_name)}:{class_name}.{method}"
        _patch(cls, method, _span_wrapper(recorder, name, cls.__dict__[method]))

    from repro.sim.engine import Engine
    from repro.sim.trace import Trace

    # schedule(self, delay, callback, *args) / subscribe(self, callback)
    _patch(Engine, "schedule", _callback_wrapper(Engine.__dict__["schedule"], 2))
    _patch(Trace, "subscribe", _callback_wrapper(Trace.__dict__["subscribe"], 1))

    for module_name, function, capture in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function)
        name = f"{layer_of(module_name)}:{function}"
        wrapper = _span_wrapper(recorder, name, original, capture)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(function) is original:
                _patch(module, function, wrapper)
    _ACTIVE = recorder
    return recorder


def uninstall() -> None:
    """Restore every wrapped attribute (safe to call twice)."""
    global _ACTIVE
    while _PATCHED:
        owner, attribute, original = _PATCHED.pop()
        setattr(owner, attribute, original)
    _ACTIVE = None


def installed() -> bool:
    return _ACTIVE is not None or bool(_PATCHED)
