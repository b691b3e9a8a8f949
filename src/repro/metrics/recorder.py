"""The metrics recorder: policy-independent observation of a run.

The recorder plays the role of the paper's measurement harness: it samples
every running container at a fixed cadence and keeps per-container step
series of CPU usage, limit, evaluation value and growth efficiency, plus
completion records captured from worker exit hooks.  It is attached to
*every* run — including NA — which is how the paper obtains growth-
efficiency traces for the baseline (Figs. 13–14 plot ``G`` "in both
FlowCon and NA").

Each sample settles and reallocates the worker, which also re-samples
contention jitter; the sampling grid therefore doubles as the OS-noise
granularity.  Every tick runs the fused fleet pass
(:func:`repro.cluster.fleet.fleet_tick`): runs built by the runner batch
same-instant ticks across workers through the fleet ticker, and
:meth:`sample_now` — what a hand-wired simulation's ticks fire, and the
public one-shot sample — runs it as a batch of one.

Recording pays only for what is read: a dense tick stores one raw row
per container in its :class:`ContainerTrace` (time, window means,
limit, training progress) and evaluates nothing.  ``E(t)``, the growth
efficiency and the four step series are built from those rows when a
series is first read, with the same functions in the same order, so
they are bit-identical to series built on the tick.  Runs whose traces
nobody reads (perfbench, batch records) never build them.

Streaming mode
--------------
``MetricsRecorder(..., streaming=True)`` trades per-container series for
O(1) memory per container: sampling still settles and reallocates the
worker and advances the bus pass (so run *dynamics* — settle points,
jitter draws, pruning cadence — are bit-identical to dense mode), but no
step series or growth histories are kept, and completions fold into a
shared :class:`~repro.metrics.sketch.StreamMetrics` sink instead of a
list.
Exited containers are forgotten from the sampler windows, so a
million-job run holds recorder state only for *live* containers.  The
default dense mode is untouched.
"""

from __future__ import annotations

import math

from repro.cluster.fleet import fleet_tick
from repro.cluster.worker import Worker
from repro.containers.container import Container, Workload
from repro.containers.spec import ResourceType
from repro.core.efficiency import EfficiencyHistory
from repro.errors import MetricsError
from repro.metrics.summary import CompletionRecord, RunSummary
from repro.metrics.timeseries import StepSeries
from repro.simcore.events import PRIORITY_SAMPLE, Event, EventKind

__all__ = ["ContainerTrace", "MetricsRecorder"]


class ContainerTrace:
    """All step series recorded for one container, built when read.

    A dense recorder's tick does not touch the series.  It extends the
    trace's flat pending list by one five-value raw row: ``time``, CPU
    window mean, the growth resource's window mean (both from
    :meth:`BusSampler.read <repro.cluster.obsbus.BusSampler.read>`), CPU
    limit and the job's training progress; the exit hook adds ``time,
    0.0, None, None, None``.  Reading :attr:`cpu_usage`,
    :attr:`cpu_limit`, :attr:`eval_value` or :attr:`growth` first folds
    the pending rows, in tick order, into the four :class:`StepSeries`:
    ``E = job.eval_at(progress)``, growth through the trace's own
    :class:`EfficiencyHistory`, and every point through
    :meth:`StepSeries.append`, so the monotonic-time check and the
    equal-time overwrite rule run at read time, not on the tick.  Folded
    rows are dropped, so a read in mid-run followed by more ticks builds
    the same bits as one read at the end.  (Flat floats rather than a
    tuple per row: tuples are tracked by the cyclic garbage collector,
    and a tuple per container-sample cost both memory and collector
    time.)
    """

    __slots__ = (
        "cid", "label", "image", "_job", "_pending", "_history",
        "_cpu_usage", "_cpu_limit", "_eval_value", "_growth",
    )

    def __init__(
        self, cid: int, label: str, image: str, job: Workload
    ) -> None:
        self.cid = cid
        self.label = label
        self.image = image
        self._job = job
        self._pending: list[float | None] = []
        self._history = EfficiencyHistory(cid=cid)
        self._cpu_usage = StepSeries("cpu")
        self._cpu_limit = StepSeries("limit")
        self._eval_value = StepSeries("eval")
        self._growth = StepSeries("growth")

    @property
    def cpu_usage(self) -> StepSeries:
        """Mean CPU usage over each sampling window (0.0 from exit on)."""
        if self._pending:
            self._fold()
        return self._cpu_usage

    @property
    def cpu_limit(self) -> StepSeries:
        """CPU limit at each sample."""
        if self._pending:
            self._fold()
        return self._cpu_limit

    @property
    def eval_value(self) -> StepSeries:
        """Evaluation function ``E(t)`` at each sample."""
        if self._pending:
            self._fold()
        return self._eval_value

    @property
    def growth(self) -> StepSeries:
        """Growth efficiency (Eq. 2) from the second sample on."""
        if self._pending:
            self._fold()
        return self._growth

    def _fold(self) -> None:
        """Fold the pending rows into the series.  The cursor drops only
        rows folded in full, so a row that raises stays pending."""
        pending = self._pending
        usage = self._cpu_usage
        limit = self._cpu_limit
        evals = self._eval_value
        growth = self._growth
        observe = self._history.observe_usage
        eval_at = self._job.eval_at
        done = 0
        it = iter(pending)
        try:
            for t, cpu, used, cpu_limit, progress in zip(it, it, it, it, it):
                usage.append(t, cpu)
                if cpu_limit is not None:  # not an exit row
                    limit.append(t, cpu_limit)
                    e = eval_at(progress)
                    evals.append(t, e)
                    grown = observe(t, e, used)
                    if grown is not None:
                        growth.append(t, grown.growth)
                done += 5
        finally:
            del pending[:done]


class MetricsRecorder:
    """Samples one worker for the duration of a run.

    Parameters
    ----------
    worker:
        The worker to observe.
    sample_interval:
        Sampling cadence in seconds (positive and finite).
    resource:
        Resource dimension for the recorded growth efficiency.
    streaming:
        When ``True``, keep no per-container series or completion list —
        O(1) memory per container; completions fold into *sink* (when
        given) and exited containers are forgotten.  Dense-mode
        dynamics are preserved exactly (same poke/observe cadence).
    sink:
        Optional :class:`~repro.metrics.sketch.StreamMetrics` shared by
        every recorder of a streaming run; receives one
        ``observe_completion`` per exit.
    """

    def __init__(
        self,
        worker: Worker,
        sample_interval: float = 5.0,
        resource: ResourceType = ResourceType.CPU,
        *,
        streaming: bool = False,
        sink=None,
    ) -> None:
        # isfinite first: NaN compares false with everything.
        if not math.isfinite(sample_interval) or sample_interval <= 0:
            raise MetricsError(
                f"sample_interval must be positive and finite, "
                f"got {sample_interval!r}"
            )
        self.worker = worker
        self.sample_interval = float(sample_interval)
        self.streaming = bool(streaming)
        self.sink = sink
        self.traces: dict[int, ContainerTrace] = {}
        self.completions: list[CompletionRecord] = []
        self.resource = resource
        self._sampler = worker.obsbus.sampler()
        self._labels: dict[str, int] = {}
        self._handle = None
        self._started = False
        self._hooks_installed = False

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Install hooks and begin sampling (restartable after stop).

        Hooks are installed exactly once across start/stop/start cycles:
        a recorder restarted on a crash-recovered worker must not record
        each completion twice.
        """
        if self._started:
            return
        self._started = True
        if not self._hooks_installed:
            self._hooks_installed = True
            self.worker.exit_hooks.append(self._on_exit)
            self.worker.launch_hooks.append(self._on_launch)
        self._schedule_sample()

    def stop(self) -> None:
        """Stop sampling (hooks remain; they only record)."""
        self._started = False
        if self._handle is not None:
            self.worker.sim.cancel(self._handle)
            self._handle = None

    # -- sampling -------------------------------------------------------------------

    def _schedule_sample(self) -> None:
        # ``payload=self`` identifies the owning recorder to the fleet
        # ticker's fused sampling pass; without an armed ticker the event
        # fires ``_on_sample`` directly.  Pushed straight onto the queue:
        # the interval is positive, so the next tick is never in the past.
        sim = self.worker.sim
        self._handle = sim.queue.push(
            Event(
                sim.now + self.sample_interval,
                EventKind.METRIC_SAMPLE,
                self._on_sample,
                PRIORITY_SAMPLE,
                self,
            )
        )

    def _on_sample(self, _event: Event) -> None:
        if not self._started:
            return
        self.sample_now()
        self._schedule_sample()

    def sample_now(self) -> None:
        """Take one sample of every running container immediately.

        The fused fleet pass over a batch of one: settle and reallocate
        the worker, open its observation-bus pass, and read this
        recorder's windows.  The settle, the integral snapshots and the
        pruning cadence are shared with every other observer of the
        worker; only this recorder's windows and series are private.
        Streaming mode advances the same windows but appends nothing.
        """
        fleet_tick([self])

    # -- hooks ------------------------------------------------------------------------

    def _on_launch(self, container: Container) -> None:
        if self.streaming:
            return
        self._trace_for(container)

    def _on_exit(self, container: Container) -> None:
        if self.streaming:
            if self.sink is not None:
                self.sink.observe_completion(
                    submitted=container.created_at,
                    finished=container.finished_at,
                    completion_time=container.completion_time(),
                )
            # Exited containers leave no recorder state behind — the
            # bounded-memory guarantee is exactly this forget (streaming
            # recorders keep no traces, so no growth history either).
            self._sampler.forget(container.cid)
            return
        trace = self.traces.get(container.cid)
        if trace is not None:
            trace._pending.extend((self.worker.sim.now, 0.0, None, None, None))
        self.completions.append(
            CompletionRecord(
                label=container.name,
                image=container.image,
                cid=container.cid,
                submitted=container.created_at,
                finished=container.finished_at,
                completion_time=container.completion_time(),
            )
        )

    def _trace_for(self, container: Container) -> ContainerTrace:
        trace = self.traces.get(container.cid)
        if trace is None:
            trace = ContainerTrace(
                cid=container.cid,
                label=container.name,
                image=container.image,
                job=container.job,
            )
            self.traces[container.cid] = trace
            # First trace wins the label (labels are unique per run; the
            # index replaces the historical O(n) scan of trace_by_label).
            self._labels.setdefault(container.name, container.cid)
        return trace

    # -- results -----------------------------------------------------------------------

    def trace_by_label(self, label: str) -> ContainerTrace:
        """Trace for a job label (container name), via the label index."""
        cid = self._labels.get(label)
        if cid is None:
            raise MetricsError(f"no trace recorded for label {label!r}")
        return self.traces[cid]

    def summary(self) -> RunSummary:
        """Completion-time summary for the whole run (dense mode only)."""
        if self.streaming:
            raise MetricsError(
                "per-worker summaries are dense-mode only; streaming runs "
                "aggregate into the shared StreamMetrics sink"
            )
        if not self.completions:
            raise MetricsError("no completions recorded yet")
        return RunSummary(completions=list(self.completions))
