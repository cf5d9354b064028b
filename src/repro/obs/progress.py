"""An opt-in single-line TTY progress display for campaigns.

The campaign runtime and the shard fabric both expose a
``progress_hook(payload)`` callback; :class:`ProgressLine` is the CLI's
implementation.  It rewrites one terminal line (carriage return, no
scrollback spam), throttles itself by wall clock, and degrades to
plain newline-separated updates when stderr is not a TTY (so CI logs
stay readable).  It understands both payload shapes:

* campaign: ``{"frame", "frames_total", "live", "detected", ...}``
* fabric: ``{"shards_done", "shards", "faults_done", "faults_total",
  "workers", "frame", "metrics"}``

Both carry enough to derive throughput (faults or frames per second)
and an ETA, which the line renders when the denominator is known.  A
closed or otherwise unwritable stream (a piped consumer that exited,
a captured stderr torn down mid-campaign) permanently disables the
display instead of raising into the campaign loop — progress is a
convenience, never a failure mode.
"""

import sys
import time


class ProgressLine:
    """Renders campaign/fabric progress payloads onto one TTY line."""

    def __init__(self, stream=None, interval=0.2):
        self._stream = stream if stream is not None else sys.stderr
        self._interval = interval
        self._last = None  # no line rendered yet
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._width = 0
        self._started = time.monotonic()
        self._dead = False

    def __call__(self, payload):
        self.update(payload)

    def update(self, payload):
        if self._dead:
            return
        now = time.monotonic()
        if self._last is not None and now - self._last < self._interval:
            return
        self._last = now
        text = self._format(payload, now - self._started)
        self._emit(text)

    @staticmethod
    def _rate_eta(done, total, elapsed):
        """(per-second rate, ETA seconds) — None where underivable."""
        if not done or not elapsed or elapsed <= 0:
            return None, None
        rate = done / elapsed
        if total and total > done and rate > 0:
            return rate, (total - done) / rate
        return rate, None

    @staticmethod
    def _duration(seconds):
        if seconds >= 3600:
            return f"{seconds / 3600:.1f}h"
        if seconds >= 60:
            return f"{seconds / 60:.1f}m"
        return f"{seconds:.0f}s"

    def _format(self, payload, elapsed):
        parts = [f"[{elapsed:7.1f}s]"]
        # the payload's own elapsed (campaign/fabric clock) beats ours:
        # it survives resume and does not count hook-attach latency
        work_elapsed = payload.get("elapsed") or elapsed
        rate = eta = None
        if "shards_done" in payload:
            parts.append(
                f"shards {payload.get('shards_done', 0)}"
                f"/{payload.get('shards', '?')}"
            )
            if payload.get("workers") is not None:
                parts.append(f"workers {payload['workers']}")
            rate, eta = self._rate_eta(
                payload.get("faults_done"),
                payload.get("faults_total"),
                work_elapsed,
            )
        if payload.get("frame") is not None:
            frames = payload.get("frames_total") or payload.get("frames")
            tail = f"/{frames}" if frames else ""
            parts.append(f"frame {payload['frame']}{tail}")
            if rate is None and "shards_done" not in payload:
                # serial campaign: detections accrue per frame; frame
                # progress is the honest throughput denominator
                _frame_rate, eta = self._rate_eta(
                    payload["frame"], frames, work_elapsed
                )
                detected = payload.get("detected")
                if detected and work_elapsed > 0:
                    rate = detected / work_elapsed
        for key, label in (("live", "live"), ("detected", "det"),
                           ("demotions", "dem"), ("quarantined", "quar")):
            if payload.get(key) is not None:
                parts.append(f"{label} {payload[key]}")
        if rate is not None:
            parts.append(f"{rate:.1f} faults/s")
        if eta is not None:
            parts.append(f"eta {self._duration(eta)}")
        metrics = payload.get("metrics")
        if metrics:
            nodes = metrics.get("bdd.nodes_created")
            if nodes is not None:
                parts.append(f"nodes {nodes}")
            hits = metrics.get("bdd.cache_hits", 0)
            misses = metrics.get("bdd.cache_misses", 0)
            if hits or misses:
                parts.append(f"hit {hits / (hits + misses) * 100:.0f}%")
        return " ".join(parts)

    def _emit(self, text):
        try:
            if self._tty:
                pad = max(0, self._width - len(text))
                self._stream.write("\r" + text + " " * pad)
                self._width = len(text)
            else:
                self._stream.write(text + "\n")
            self._stream.flush()
        except (ValueError, OSError):
            # closed or broken stream: silently stop displaying; the
            # campaign must not die because its audience left
            self._dead = True

    def finish(self):
        """Terminate the progress line so following output starts clean."""
        if self._dead:
            return
        if self._tty and self._width:
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (ValueError, OSError):
                self._dead = True
        self._width = 0
