"""Per-layer spans for the traced benchmark run.

The benchmark never edits the program: it wraps the program's functions
from the outside.  :class:`SpanTracer` replaces each target function on
its class or module with a wrapper that records a call count and the
span's *self time* (its duration minus the time covered by spans that
ran inside it), then puts every original back on :meth:`uninstall`.

Every span belongs to one layer, named after the program's modules
(``simcore``, ``worker``, ``containers``, ...).  Event callbacks are
attributed dynamically: the wrapper on ``Event.fire`` charges a
callback's own code to the layer of the module that defined it, so a
worker exit handler counts as ``worker`` and a fabric timeout as
``fabric``.  The root span is ``runner.run`` around
``repro.experiments.runner.run_cluster``; its self time is the part of
a run no layer span covers, reported as ``runner.unattributed_share``.

Wall time (``perf_counter``) is used inside spans because it is a vDSO
call; the CPU clocks are system calls and would double the overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: Module prefix → layer, longest prefix first.  A layer is one of the
#: program's own modules (or a small group of them).
_MODULE_LAYERS = (
    ("repro.cluster.worker", "worker"),
    ("repro.cluster.pool", "worker"),
    ("repro.cluster.contention", "worker"),
    ("repro.cluster.obsbus", "obsbus"),
    ("repro.cluster.fleet", "fleet"),
    ("repro.cluster.shards", "fleet"),
    ("repro.cluster.fabric", "fabric"),
    ("repro.cluster", "manager"),
    ("repro.simcore", "simcore"),
    ("repro.containers", "containers"),
    ("repro.core", "core"),
    ("repro.baselines", "core"),
    ("repro.metrics", "metrics"),
    ("repro.workloads", "workloads"),
    ("repro.experiments", "runner"),
)

LAYERS = (
    "simcore", "worker", "containers", "obsbus", "fleet", "core",
    "manager", "fabric", "metrics", "workloads", "runner",
)

ROOT = "runner.run"


def layer_of_module(module: str) -> str:
    """The layer a module belongs to (``runner`` for anything unknown)."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "runner"


def subclasses(cls) -> list:
    """*cls* and all its subclasses, depth first."""
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(subclasses(sub))
    return out


class SpanTracer:
    """Wraps program functions and accumulates calls and self time per span.

    ``calls[key]`` and ``self_s[key]`` are keyed ``"<layer>.<name>"``.
    ``total_s`` is kept for the root span only.  ``counters`` holds
    extra counts that wrappers derive from arguments or return values
    (limit updates that changed a limit, workers per fused batch).
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapper factory ----------------------------------------------------

    def _wrap(self, key: str, fn, on_result=None):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s
        clock = time.perf_counter
        is_root = key == ROOT

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[key] += dt - frame[0]
                calls[key] += 1
                if stack:
                    stack[-1][0] += dt
                if is_root:
                    total_s[key] += dt
            if on_result is not None:
                on_result(args, result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key)
        return span

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def wrap(self, owner, name: str, key: str, on_result=None) -> None:
        """Wrap ``owner.name`` (a class or a module attribute) as span *key*."""
        self._replace(owner, name, self._wrap(key, owner.__dict__[name], on_result))

    def wrap_hierarchy(self, base, name: str, key: str) -> None:
        """Wrap *name* on *base* and on every subclass that defines it."""
        for cls in subclasses(base):
            if name in cls.__dict__ and callable(cls.__dict__[name]):
                self.wrap(cls, name, key)

    def wrap_fire(self, event_cls) -> None:
        """Attribute each event callback's own code to its module's layer."""
        spans: dict[str, object] = {}
        original = event_cls.__dict__["fire"]

        def fire(event):
            cb = event.callback
            owner = getattr(cb, "__self__", None)
            module = (
                type(owner).__module__ if owner is not None
                else getattr(cb, "__module__", None)
            ) or ""
            span = spans.get(module)
            if span is None:
                span = spans[module] = self._wrap(
                    layer_of_module(module) + ".fire", original
                )
            span(event)

        self._replace(event_cls, "fire", fire)

    def wrap_iter(self, owner, key: str) -> None:
        """Time every ``next()`` on the iterators ``owner.__iter__`` returns."""
        original = owner.__dict__["__iter__"]
        step = self._wrap(key, next)

        class _Timed:
            __slots__ = ("_it",)

            def __init__(self, it):
                self._it = it

            def __iter__(self):
                return self

            def __next__(self):
                return step(self._it)

        def __iter__(stream):
            return _Timed(original(stream))

        self._replace(owner, "__iter__", __iter__)

    def uninstall(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- views --------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self time summed per layer (the root's self time is ``runner``)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out


def install(tracer: SpanTracer) -> None:
    """Wrap the program's layer boundaries on *tracer*.

    The list names, per layer, the functions other layers call into, so
    that time spent in one layer on behalf of another is charged to the
    layer whose code ran.  Everything is imported here so that every
    policy subclass exists before the hierarchies are walked.
    """
    from repro.cluster import fleet as fleet_mod
    from repro.cluster.admission import AdmissionPolicy
    from repro.cluster.fabric import FabricPolicy
    from repro.cluster.fleet import FleetTicker
    from repro.cluster.manager import Manager
    from repro.cluster.obsbus import BusSampler, ObservationBus
    from repro.cluster.placement import PlacementPolicy
    from repro.cluster.rebalance import RebalancePolicy
    from repro.cluster.worker import Worker
    from repro.containers.allocator import CpuAllocator
    from repro.containers.cgroup import CgroupAccount
    from repro.containers.runtime import ContainerRuntime
    from repro.core.executor import Executor
    from repro.core.monitor import ContainerMonitor
    from repro.core.policy import SchedulingPolicy
    from repro.experiments import runner as runner_mod
    from repro.metrics.recorder import MetricsRecorder
    from repro.metrics.sketch import QuantileSketch, StreamMetrics
    from repro.simcore.engine import Simulator
    from repro.simcore.equeue import EventQueue
    from repro.simcore.events import Event
    from repro.workloads.curves import ConvergenceCurve
    from repro.workloads.generator import WorkloadSpec, WorkloadStream

    t = tracer
    t.wrap(runner_mod, "run_cluster", ROOT)

    for name in ("__init__", "step", "schedule"):
        t.wrap(Simulator, name, f"simcore.{name}")
    for name in ("push", "pop", "cancel"):
        t.wrap(EventQueue, name, f"simcore.{name}")
    t.wrap_fire(Event)

    def count_useful(args, result):
        t.counters["core.limit_attempts"] += len(args[1])
        t.counters["core.limit_useful"] += result

    def count_update(args, result):
        t.counters["core.limit_attempts"] += 1
        t.counters["core.limit_useful"] += bool(result)

    t.wrap(Worker, "batch_update", "worker.batch_update", count_useful)
    t.wrap(Worker, "update_limit", "worker.update_limit", count_update)
    for name in (
        "__init__", "launch", "settle", "has_headroom", "detach", "attach",
        "crash", "set_capacity", "poke", "is_empty", "memory_used",
        "running_containers", "_reallocate", "_realloc_begin",
        "_realloc_finish",
    ):
        key = "worker.headroom" if name == "has_headroom" else f"worker.{name}"
        t.wrap(Worker, name, key)

    t.wrap(CpuAllocator, "allocate", "containers.allocate")
    t.wrap(CpuAllocator, "allocate_segmented", "containers.allocate_segmented")
    t.wrap(CgroupAccount, "window_mean_cached", "containers.window_mean")
    for name in ("running", "run", "update", "get", "release", "adopt",
                 "mark_exited", "remove"):
        t.wrap(ContainerRuntime, name, f"containers.{name}")

    t.wrap(ObservationBus, "observe", "obsbus.observe")
    t.wrap(ObservationBus, "seed_windows", "obsbus.seed_windows")
    t.wrap(BusSampler, "sample", "obsbus.sample")

    def count_rows(args, _result):
        t.counters["fleet.rows"] += len(args[0])

    t.wrap(fleet_mod, "fleet_settle", "fleet.settle", count_rows)
    t.wrap(fleet_mod, "fleet_reallocate", "fleet.realloc")
    t.wrap(fleet_mod, "fleet_sample", "fleet.sample")
    t.wrap(fleet_mod, "fleet_sample_streaming", "fleet.sample_streaming")
    t.wrap(FleetTicker, "_on_batch", "fleet.on_batch")

    t.wrap(Executor, "run_algorithm", "core.algorithm")
    t.wrap(Executor, "_listener_step", "core.listener")
    t.wrap(ContainerMonitor, "measure", "core.measure")
    t.wrap_hierarchy(SchedulingPolicy, "attach", "core.attach")

    t.wrap(Manager, "__init__", "manager.__init__")
    t.wrap(Manager, "_on_arrival", "manager.submit")
    for name in ("_drain_queue", "_deliver_place", "_deliver_exit",
                 "_on_worker_exit", "_rebalance_pass", "_deliver_detach",
                 "_deliver_attach", "_crash_worker", "_resolve_orphan"):
        t.wrap(Manager, name, f"manager.{name}")
    t.wrap_hierarchy(PlacementPolicy, "select", "manager.select")
    t.wrap_hierarchy(AdmissionPolicy, "push", "manager.admission_push")
    t.wrap_hierarchy(AdmissionPolicy, "pop_fitting", "manager.admission_pop")
    t.wrap_hierarchy(RebalancePolicy, "plan", "manager.rebalance_plan")

    t.wrap_hierarchy(FabricPolicy, "send", "fabric.send")

    for name in ("__init__", "start", "stop", "sample_now", "_on_exit",
                 "_on_launch"):
        key = "metrics.sample" if name == "sample_now" else f"metrics.{name}"
        t.wrap(MetricsRecorder, name, key)
    t.wrap(QuantileSketch, "add", "metrics.sketch_add")
    t.wrap(StreamMetrics, "observe_placement", "metrics.observe_placement")

    t.wrap_iter(WorkloadStream, "workloads.stream_next")
    t.wrap(ConvergenceCurve, "value", "workloads.curve_value")
    t.wrap(WorkloadSpec, "build_job", "workloads.build_job")


def layer_metrics(tracer: SpanTracer, spanned: list, plain: list) -> dict:
    """Per-layer metrics per traced round, as ``name -> (value, unit)``.

    *spanned* are the traced rounds and *plain* the untraced rounds of
    the same run; both reproduce the same simulated outputs, so counts
    taken from the outputs are per round too.
    """
    import statistics

    n = len(spanned)
    calls = lambda key: tracer.calls.get(key, 0) / n  # noqa: E731
    self_s = lambda key: tracer.self_s.get(key, 0.0) / n  # noqa: E731

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    outs = spanned[0].outputs
    fabric = {k: sum(o["fabric"][k] for o in outs) for k in outs[0]["fabric"]}
    counters = tracer.counters
    root_total = tracer.total_s.get(ROOT, 0.0)
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = (float(value), unit)

    put("simcore.step_calls", calls("simcore.step"), "count")
    put("simcore.step_self_s", self_s("simcore.step"), "s")
    put("simcore.push_calls", calls("simcore.push"), "count")
    put("simcore.push_s", self_s("simcore.push"), "s")
    put("simcore.pop_s", self_s("simcore.pop"), "s")
    put("simcore.cancel_calls", calls("simcore.cancel"), "count")

    put("worker.settle_calls", calls("worker.settle"), "count")
    put("worker.settle_s", self_s("worker.settle"), "s")
    put("worker.headroom_calls", calls("worker.headroom"), "count")
    put("worker.headroom_s", self_s("worker.headroom"), "s")
    for name in ("launch", "detach", "attach"):
        put(f"worker.{name}_calls", calls(f"worker.{name}"), "count")

    put("containers.allocate_calls", calls("containers.allocate"), "count")
    put("containers.allocate_s", self_s("containers.allocate"), "s")
    put("containers.allocate_segmented_s",
        self_s("containers.allocate_segmented"), "s")
    put("containers.window_mean_calls", calls("containers.window_mean"), "count")
    put("containers.window_mean_s", self_s("containers.window_mean"), "s")
    put("containers.running_calls", calls("containers.running"), "count")
    put("containers.running_s", self_s("containers.running"), "s")

    for name in ("observe", "sample"):
        put(f"obsbus.{name}_calls", calls(f"obsbus.{name}"), "count")
        put(f"obsbus.{name}_s", self_s(f"obsbus.{name}"), "s")

    batches = calls("fleet.settle")
    put("fleet.batches", batches, "count")
    put("fleet.rows_per_batch", ratio(counters["fleet.rows"] / n, batches),
        "rows/batch")
    put("fleet.settle_s", self_s("fleet.settle"), "s")
    put("fleet.realloc_s", self_s("fleet.realloc"), "s")
    put("fleet.sample_s",
        self_s("fleet.sample") + self_s("fleet.sample_streaming"), "s")

    put("core.algorithm_calls", calls("core.algorithm"), "count")
    put("core.algorithm_s", self_s("core.algorithm"), "s")
    put("core.listener_calls", calls("core.listener"), "count")
    put("core.listener_s", self_s("core.listener"), "s")
    put("core.measure_s", self_s("core.measure"), "s")
    put("core.limit_update_useful_ratio",
        ratio(counters["core.limit_useful"], counters["core.limit_attempts"]),
        "ratio")

    plans = calls("manager.rebalance_plan")
    put("manager.submit_calls", calls("manager.submit"), "count")
    put("manager.select_calls", calls("manager.select"), "count")
    put("manager.select_s", self_s("manager.select"), "s")
    put("manager.admission_pop_calls", calls("manager.admission_pop"), "count")
    put("manager.admission_pop_s", self_s("manager.admission_pop"), "s")
    put("manager.rebalance_plan_calls", plans, "count")
    put("manager.rebalance_plan_s", self_s("manager.rebalance_plan"), "s")
    put("manager.migrations_per_plan",
        ratio(sum(o["migrations"] for o in outs), plans), "moves/plan")
    put("manager.crash_retries", sum(o["crash_retries"] for o in outs), "count")
    put("manager.queue_delay_p95_sim_s",
        statistics.fmean(o["queue_delay_p95_sim_s"] for o in outs), "sim_s")

    sent = fabric["messages_sent"]
    put("fabric.send_calls", calls("fabric.send"), "count")
    put("fabric.send_s", self_s("fabric.send"), "s")
    put("fabric.resend_ratio", ratio(fabric["message_retries"], sent), "ratio")
    put("fabric.drop_ratio", ratio(fabric["messages_dropped"], sent), "ratio")

    put("metrics.sample_calls", calls("metrics.sample"), "count")
    put("metrics.sample_s", self_s("metrics.sample"), "s")
    put("metrics.sketch_add_calls", calls("metrics.sketch_add"), "count")
    put("metrics.sketch_add_s", self_s("metrics.sketch_add"), "s")

    for name in ("stream_next", "curve_value"):
        put(f"workloads.{name}_calls", calls(f"workloads.{name}"), "count")
        put(f"workloads.{name}_s", self_s(f"workloads.{name}"), "s")

    for layer, value in tracer.layer_self().items():
        if layer != "runner":
            put(f"{layer}.self_s", value / n, "s")
    put("runner.run_s", root_total / n, "s")
    put("runner.unattributed_share",
        ratio(tracer.self_s.get(ROOT, 0.0), root_total), "ratio")
    put("runner.trace_overhead_ratio",
        ratio(statistics.median(r.ref for r in spanned),
              statistics.median(r.ref for r in plain)), "ratio")
    return m
