"""The shard-fabric worker process.

A worker is one OS process owning a :class:`WorkerPipes` pair — a
blocking command pipe in, a report pipe out (which the coordinator
reads through a partial-frame-tolerant deframer).  It receives shard
tasks from the coordinator, runs each through :func:`run_task` (an
ordinary in-process :class:`~repro.runtime.campaign.Campaign` over just
that shard's faults, or an audit shard), the same function the
coordinator's inline mode calls, and reports back:

* ``("ready", worker_id, pid)`` — once, after start-up,
* ``("heartbeat", worker_id, shard_id, frame, rss, metrics_delta)`` —
  at frame boundaries, throttled to ``heartbeat_interval`` seconds;
  the coordinator uses the gaps to detect hung workers and the
  reported resident set size (bytes, None off Linux) to recycle
  workers that bloat past the configured per-worker RSS cap.  When the
  init payload requests observability (``observe=True``) the beat also
  piggybacks a :meth:`~repro.obs.metrics.MetricsRegistry.flush_delta`
  so the coordinator's live progress display tracks shard internals
  without extra pipe traffic,
* ``("result", worker_id, shard_id, payload)`` — the per-fault
  verdicts and counters of a finished shard,
* ``("error", worker_id, shard_id, message)`` — a Python-level
  failure inside the shard run (the worker survives and stays in the
  pool; the coordinator treats the shard like a crashed one).

Workers ignore ``SIGINT`` *and* ``SIGTERM``: on Ctrl-C — or a service
manager's ``SIGTERM`` — the *coordinator* decides whether to drain
gracefully, and a signal delivered to the whole process group must not
kill workers mid-shard.  (``SIGKILL`` still works, and is what the
coordinator itself uses to reap a hung or bloated worker.)

Everything in the init payload and in messages is picklable, so the
fabric works under both the ``fork`` and ``spawn`` start methods.

The init payload may carry a ``chaos`` table (used by the
fault-injection tests and the CI chaos job): shards containing a
*crash* key hard-exit the worker before simulating, shards containing
a *hang* key sleep without heartbeating — deterministic stand-ins for
segfaults and wedged processes.
"""

import os
import pickle
import signal
import struct
import time as _time

from repro import failpoints as _failpoints
from repro.faults.status import FaultSet
from repro.runtime.governor import ResourceGovernor
from repro.runtime.ladder import DegradationLadder
from repro.runtime.memory import RssSampler

#: exit code of a chaos-injected crash (mirrors a SIGKILL-style death)
CHAOS_EXIT_CODE = 139

#: per-shard cap on trace records shipped back in the result payload;
#: overflow is counted (``trace_dropped``) rather than silently lost
TRACE_RECORD_CAP = 4096

#: node allocations between liveness-beat attempts: a beat opportunity
#: at BDD-allocation granularity, so a worker grinding through one
#: enormous frame still proves it is alive (the wall-clock throttle in
#: :meth:`WorkerGovernor.note_node` keeps the pipe traffic bounded)
_BEAT_STRIDE = 2048


class WorkerPipes:
    """The worker's two half-duplex channels: commands in, reports out.

    The coordinator keeps the command pipe blocking (its sends are
    tiny and the worker always drains them) but reads the report pipe
    through a partial-frame-tolerant :class:`~repro.runtime.fabric.
    frames.FrameReader`, so a worker that wedges mid-write can never
    stall the event loop.  Instances are passed as a ``Process`` arg;
    ``multiprocessing``'s reduction machinery handles the nested
    connections under both ``fork`` and ``spawn``.
    """

    def __init__(self, commands, reports):
        self.commands = commands
        self.reports = reports

    def recv(self):
        return self.commands.recv()

    def send(self, message):
        self.reports.send(message)

    def send_truncated(self, message):
        """Write *half* a frame, raw — the ``fabric.pipe.truncate``
        injection: the length prefix promises bytes that never come."""
        blob = pickle.dumps(message)
        frame = struct.pack("!i", len(blob)) + blob
        os.write(self.reports.fileno(), frame[: max(len(frame) // 2, 5)])

    def close(self):
        for conn in (self.commands, self.reports):
            try:
                conn.close()
            except OSError:
                pass


class WorkerGovernor(ResourceGovernor):
    """A resource governor that also emits heartbeats.

    Every frame-boundary check (the campaign main loop *and* the
    word-parallel pre-pass both route through :meth:`check_frame`)
    doubles as a liveness beat, throttled so a fast sweep does not
    flood the pipe.  Each beat carries the worker's current RSS so the
    coordinator can recycle a bloating worker; a sampler is therefore
    always constructed, budget or not.

    Beats also flow at node-allocation granularity (:meth:`note_node`,
    every ``_BEAT_STRIDE`` allocations, same wall-clock throttle): a
    single pathological frame can run for minutes, and the hang
    watchdog must not mistake it for a wedged process.
    """

    def __init__(self, heartbeat, heartbeat_interval, **kwargs):
        kwargs.setdefault("rss_sampler", RssSampler())
        super().__init__(**kwargs)
        self._heartbeat = heartbeat
        self._heartbeat_interval = heartbeat_interval
        self._last_beat = None  # no heartbeat sent yet
        self._since_beat = 0
        #: meter allocations only when a budget asked for it, so an
        #: unbudgeted pooled run reports the same ``nodes_allocated``
        #: (zero) as the inline path — the hook itself stays installed
        #: regardless, purely as the liveness signal
        self._metered = super()._wants_alloc_hook()

    def _wants_alloc_hook(self):
        # always hook allocations, budgets or not: the alloc hook is
        # what keeps heartbeats flowing through long frames
        return True

    def check_frame(self, frame, pack=None):
        super().check_frame(frame, pack=pack)
        self._maybe_beat(frame)

    def note_node(self, manager=None):
        if self._metered:
            super().note_node(manager)
        self._since_beat += 1
        if self._since_beat >= _BEAT_STRIDE:
            self._since_beat = 0
            self._maybe_beat(self.frame)

    def _maybe_beat(self, frame):
        now = _time.monotonic()
        if (
            self._last_beat is None
            or now - self._last_beat >= self._heartbeat_interval
        ):
            self._last_beat = now
            self._heartbeat(frame, self.sample_rss())


def run_shard(compiled, faults, sequence, indices, campaign_kwargs,
              governor=None, tracer=None, metrics=None):
    """Run one shard in-process and return its result payload.

    *indices* select the shard's faults out of the canonical *faults*
    order; the returned ``"states"`` list is aligned with them.

    *tracer* (a canonical ``wall=False`` :class:`~repro.obs.tracer.
    Tracer` over a :class:`~repro.obs.tracer.ListSink`) and *metrics*
    (a fresh :class:`~repro.obs.metrics.MetricsRegistry`) are per-shard
    observability channels: their contents ride home in the payload as
    ``"trace"`` / ``"trace_dropped"`` / ``"metrics"`` so the
    coordinator can merge them deterministically.
    """
    from repro.runtime.campaign import Campaign

    fault_set = FaultSet([faults[i] for i in indices])
    if not indices:
        payload = {
            "states": [],
            "stopped": "completed",
            "frames_total": 0,
            "frames_symbolic": 0,
            "frames_three_valued": 0,
            "fallbacks": 0,
            "gc_runs": 0,
            "peak_nodes": 2,
            "demotions": 0,
            "demotion_log": [],
            "quarantined": [],
            "rung_population": {},
            "nodes_allocated": 0,
            "elapsed": 0.0,
            "pressure": None,
            "peak_rss": 0,
        }
        _attach_observability(payload, tracer, metrics)
        return payload
    campaign = Campaign(
        compiled,
        sequence,
        fault_set,
        governor=governor,
        tracer=tracer,
        metrics=metrics,
        **campaign_kwargs,
    )
    result = campaign.run()
    payload = {
        "states": [record.state_to_json() for record in fault_set],
        "stopped": result.stopped,
        "frames_total": result.frames_total,
        "frames_symbolic": result.frames_symbolic,
        "frames_three_valued": result.frames_three_valued,
        "fallbacks": result.fallbacks,
        "gc_runs": result.gc_runs,
        "peak_nodes": result.peak_nodes,
        "demotions": result.demotions,
        "demotion_log": result.demotion_log,
        "quarantined": result.quarantined,
        "rung_population": result.rung_population,
        "nodes_allocated": campaign.governor.nodes_allocated,
        "elapsed": campaign.governor.elapsed(),
        "pressure": result.pressure,
        "peak_rss": campaign.governor.peak_rss,
    }
    _attach_observability(payload, tracer, metrics)
    return payload


def _attach_observability(payload, tracer, metrics):
    """Pack the shard's trace records and metrics into the payload."""
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    if tracer is not None:
        tracer.close()  # flush any stray open spans into the sink
        sink = tracer.sink
        payload["trace"] = list(getattr(sink, "records", ()) or ())
        payload["trace_dropped"] = getattr(sink, "dropped", 0)


def _make_observability(init):
    """(tracer, metrics) for one shard run, or (None, None)."""
    if not init.get("observe"):
        return None, None
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import ListSink, Tracer

    return Tracer(ListSink(TRACE_RECORD_CAP), wall=False), MetricsRegistry()


def task_governor(opts, heartbeat=None, heartbeat_interval=None):
    """The governor of one shard task.

    *opts* are the budgets the coordinator apportioned for the dispatch
    (``ShardFabric._task_opts``; its keys are the governor's budget
    keywords).  Given a *heartbeat*, as in a pool worker, it is a
    :class:`WorkerGovernor` whose checks double as liveness beats.
    """
    if heartbeat is None:
        return ResourceGovernor(**opts)
    return WorkerGovernor(heartbeat, heartbeat_interval, **opts)


def run_task(init, indices, governor, tracer=None, metrics=None):
    """Run one shard task and return its result payload.

    The task is a campaign, or a witness-replay audit when
    ``init["task"] == "audit"``; *init* is the coordinator's init
    payload.  Pool workers and the fabric's inline mode (``workers=0``)
    both run every shard through here, so both are tested by the same
    code.
    """
    if init.get("task") == "audit":
        from repro.audit.fabric import run_audit_shard

        return run_audit_shard(
            init["compiled"], init["faults"], init["sequence"], indices,
            init["audit"], governor=governor, tracer=tracer,
            metrics=metrics,
        )
    return run_shard(
        init["compiled"], init["faults"], init["sequence"], indices,
        _campaign_kwargs(init), governor=governor, tracer=tracer,
        metrics=metrics,
    )


def _campaign_kwargs(init):
    return {
        "ladder": DegradationLadder.from_json(init["ladder"]),
        "node_limit": init["node_limit"],
        "checkpoint_path": None,
        # progress (and therefore governor frame checks) every frame:
        # the worker's heartbeat cadence, throttled by wall-clock above
        "checkpoint_every": 1,
        "fallback_frames": init["fallback_frames"],
        "initial_state": init["initial_state"],
        "variable_scheme": init["variable_scheme"],
        "xred": init["xred"],
        "pre_pass_3v": init["pre_pass_3v"],
    }


def _apply_chaos(chaos, shard_keys):
    """Deterministic fault injection for tests and the CI chaos job."""
    if not chaos:
        return
    crash_keys = set(chaos.get("crash_keys") or ())
    hang_keys = set(chaos.get("hang_keys") or ())
    if crash_keys & shard_keys:
        # a segfault-class death: no exception, no cleanup, no message
        os._exit(CHAOS_EXIT_CODE)
    if hang_keys & shard_keys:
        # a wedged worker: alive but silent (no heartbeats)
        _time.sleep(chaos.get("hang_seconds", 3600.0))


def worker_main(worker_id, pipes, init):
    """Entry point of a pool worker process."""
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, signal.SIG_IGN)
        except (ValueError, OSError):  # pragma: no cover - exotic
            pass
    # the coordinator ships its active failpoint spec so injections
    # behave identically pooled and inline; policy counters restart
    # per process (a respawned worker re-fires a ``once`` site)
    _failpoints.configure(init.get("failpoints") or "", replace=True)
    faults = init["faults"]
    heartbeat_interval = init.get("heartbeat_interval", 0.05)
    chaos = init.get("chaos")
    try:
        pipes.send(("ready", worker_id, os.getpid()))
        while True:
            message = pipes.recv()
            if message[0] == "stop":
                break
            _, shard_id, indices, opts = message
            if _failpoints.fire("fabric.worker.stall"):
                # a wedged-but-alive process: no beats, no progress —
                # exactly what the hang watchdog exists to catch
                _time.sleep(3600.0)
            _apply_chaos(
                chaos, {faults[i].key() for i in indices}
            )
            tracer, registry = _make_observability(init)

            def heartbeat(frame, rss=None, _shard_id=shard_id,
                          _registry=registry):
                if _failpoints.fire("fabric.heartbeat.drop"):
                    return
                delta = (
                    _registry.flush_delta() if _registry is not None else None
                )
                beat = ("heartbeat", worker_id, _shard_id, frame, rss, delta)
                pipes.send(beat)
                if _failpoints.fire("fabric.heartbeat.dup"):
                    pipes.send(beat)

            governor = task_governor(opts, heartbeat, heartbeat_interval)
            try:
                payload = run_task(init, indices, governor, tracer, registry)
            except Exception as exc:  # deterministic shard failure
                pipes.send(
                    ("error", worker_id, shard_id,
                     f"{type(exc).__name__}: {exc}")
                )
                continue
            if _failpoints.fire("fabric.pipe.truncate"):
                # half a result frame, then silence: the coordinator
                # must buffer the partial frame without blocking and
                # let the hang watchdog reap this worker
                pipes.send_truncated(("result", worker_id, shard_id, payload))
                _time.sleep(3600.0)
            pipes.send(("result", worker_id, shard_id, payload))
    except (EOFError, OSError, KeyboardInterrupt):
        # coordinator went away (or we are being torn down): just exit
        pass
    finally:
        pipes.close()
