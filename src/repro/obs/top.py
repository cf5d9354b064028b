"""``repro top`` — a live terminal view of a running campaign.

Tails one of two progress sources and renders each payload on a
single rewritten terminal line (reusing :class:`ProgressLine`'s TTY
discipline, including its non-TTY newline degradation and its
dead-stream guard):

* a **service job** — long-polls ``GET /jobs/<id>/events`` on a
  running ``repro serve`` daemon, resuming from the last seen seq so a
  flaky connection just picks up where it left off;
* a **local campaign checkpoint** — re-reads the campaign's JSONL
  checkpoint and renders the newest ``progress`` record, which is how
  you watch a campaign started in another shell with ``--checkpoint``.

On top of the base line, :class:`TopLine` renders the operator
signals the plain progress line omits: per-worker RSS, ladder rung
population and cumulative BDD-node effort.
"""

import json
import time
from urllib.error import URLError
from urllib.request import Request, urlopen

from repro.obs.progress import ProgressLine


def _format_bytes(value):
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return (f"{value:.0f}{unit}" if unit == "B"
                    else f"{value:.1f}{unit}")
        value /= 1024
    return f"{value:.1f}GiB"


class TopLine(ProgressLine):
    """The `repro top` display: ProgressLine plus operator signals."""

    def __init__(self, stream=None, interval=0.0):
        # interval 0: `top` already paces itself by its poll loop
        super().__init__(stream=stream, interval=interval)
        self.last_state = None

    def _format(self, payload, elapsed):
        text = super()._format(payload, elapsed)
        extras = []
        if payload.get("state"):
            self.last_state = payload["state"]
        if self.last_state:
            extras.append(f"state {self.last_state}")
        rung = payload.get("rung_population")
        if rung:
            extras.append(
                "rungs " + "/".join(str(n) for n in rung.values())
            )
        nodes = payload.get("nodes_allocated")
        if nodes:
            extras.append(f"effort {nodes}")
        worker_rss = payload.get("worker_rss")
        if worker_rss:
            shown = ",".join(
                f"{wid}:{_format_bytes(rss)}"
                for wid, rss in sorted(worker_rss.items())[:4]
            )
            extras.append(f"rss {shown}")
        elif payload.get("peak_rss"):
            extras.append(f"rss {_format_bytes(payload['peak_rss'])}")
        return " ".join([text] + extras) if extras else text


# -- sources -----------------------------------------------------------


def service_events(base_url, job_id, poll_timeout=5.0, once=False):
    """Yield event payloads from a running service's long-poll API.

    Stops when the stream reports ``closed`` (the job reached a
    terminal state) or, with ``once=True``, after the first response —
    the mode tests and scripts use.
    """
    base = base_url.rstrip("/")
    seq = 0
    while True:
        url = (
            f"{base}/jobs/{job_id}/events"
            f"?after={seq}&timeout={poll_timeout}"
        )
        request = Request(url, headers={"Accept": "application/json"})
        with urlopen(request, timeout=poll_timeout + 10) as response:
            body = json.load(response)
        for event in body.get("events", []):
            seq = event["seq"]
            yield event
        if body.get("closed") or once:
            return


def checkpoint_progress(path, interval=0.5, once=False):
    """Yield the newest ``progress`` record of a campaign checkpoint.

    Re-reads the file each poll (checkpoints are modest and the
    re-read tolerates torn tails exactly like resume does) and yields
    only when the newest progress record changed.  Stops when ``once``
    or when the campaign's final snapshot stops advancing the file for
    ~10 polls.
    """
    from repro.runtime.checkpoint import read_jsonl_records

    last = None
    quiet = 0
    while True:
        newest = None
        for record in read_jsonl_records(
            path, on_corrupt=lambda report: None
        ):
            if record.get("type") == "progress":
                newest = record
        if newest is not None and newest != last:
            last = newest
            quiet = 0
            yield {k: v for k, v in newest.items() if k != "type"}
        else:
            quiet += 1
        if once or quiet >= 10:
            return
        time.sleep(interval)


def run_top(job=None, url=None, checkpoint=None, once=False,
            stream=None, poll_timeout=5.0, interval=0.5):
    """Drive the live view; returns a CLI exit code."""
    line = TopLine(stream=stream)
    try:
        if checkpoint is not None:
            source = checkpoint_progress(
                checkpoint, interval=interval, once=once
            )
        else:
            source = service_events(
                url, job, poll_timeout=poll_timeout, once=once
            )
        for payload in source:
            line.update(payload)
    except KeyboardInterrupt:
        return 0
    except URLError as exc:
        line.finish()
        raise OSError(f"cannot reach service at {url}: {exc}")
    finally:
        line.finish()
    return 0
