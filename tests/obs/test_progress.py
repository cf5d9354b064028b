"""ProgressLine behavior: TTY discipline, throttling, degradation.

The progress hook runs inside the campaign loop, so the display's
failure modes matter as much as its output: a closed stream must
disable the line, not raise into the campaign, and the throttle must
bound write volume no matter how often the runtime calls the hook.
"""

import io
import time

from repro.obs.progress import ProgressLine


class _TtyStringIO(io.StringIO):
    def isatty(self):
        return True


class _ClosedStream:
    """A stream torn down mid-campaign: every write raises."""

    def isatty(self):
        return False

    def write(self, text):
        raise ValueError("I/O operation on closed file")

    def flush(self):
        raise ValueError("I/O operation on closed file")


CAMPAIGN_PAYLOAD = {
    "frame": 5,
    "frames_total": 50,
    "detected": 12,
    "live": 80,
    "demotions": 1,
    "quarantined": 0,
    "elapsed": 2.0,
}

FABRIC_PAYLOAD = {
    "shards_done": 3,
    "shards": 12,
    "workers": 4,
    "frame": None,
    "faults_done": 30,
    "faults_total": 120,
    "elapsed": 6.0,
}


def test_non_tty_degrades_to_newlines():
    stream = io.StringIO()
    line = ProgressLine(stream=stream, interval=0.0)
    line.update(CAMPAIGN_PAYLOAD)
    line.update(dict(CAMPAIGN_PAYLOAD, frame=6))
    text = stream.getvalue()
    assert "\r" not in text
    assert len(text.strip().splitlines()) == 2


def test_tty_rewrites_one_line():
    stream = _TtyStringIO()
    line = ProgressLine(stream=stream, interval=0.0)
    line.update(CAMPAIGN_PAYLOAD)
    line.update(dict(CAMPAIGN_PAYLOAD, frame=6))
    text = stream.getvalue()
    assert text.startswith("\r")
    assert text.count("\r") == 2
    assert "\n" not in text
    line.finish()
    assert stream.getvalue().endswith("\n")


def test_tty_pads_over_a_shrinking_line():
    stream = _TtyStringIO()
    line = ProgressLine(stream=stream, interval=0.0)
    line.update(dict(CAMPAIGN_PAYLOAD, detected=1000000))
    before = len(stream.getvalue())
    line.update(dict(CAMPAIGN_PAYLOAD, detected=1))
    written = stream.getvalue()[before:]
    # the shorter line is padded out so stale characters never linger
    assert len(written.rstrip("\r").rstrip(" ")) < len(written)


def test_throttle_suppresses_rapid_updates():
    stream = io.StringIO()
    line = ProgressLine(stream=stream, interval=3600.0)
    for frame in range(50):
        line.update(dict(CAMPAIGN_PAYLOAD, frame=frame))
    # only the first update beats the (huge) interval
    assert len(stream.getvalue().strip().splitlines()) == 1


def test_first_update_renders_on_a_freshly_booted_host(monkeypatch):
    # the monotonic clock starts near zero at boot: a host up for less
    # than the interval must still render the first line
    monkeypatch.setattr(time, "monotonic", lambda: 1.0)
    stream = io.StringIO()
    line = ProgressLine(stream=stream, interval=3600.0)
    line.update(CAMPAIGN_PAYLOAD)
    assert "frame 5/50" in stream.getvalue()


def test_throttle_admits_after_interval():
    stream = io.StringIO()
    line = ProgressLine(stream=stream, interval=0.01)
    line.update(CAMPAIGN_PAYLOAD)
    time.sleep(0.02)
    line.update(dict(CAMPAIGN_PAYLOAD, frame=6))
    assert len(stream.getvalue().strip().splitlines()) == 2


def test_campaign_payload_renders_frames_total():
    stream = io.StringIO()
    ProgressLine(stream=stream, interval=0.0).update(CAMPAIGN_PAYLOAD)
    assert "frame 5/50" in stream.getvalue()


def test_campaign_payload_renders_rate_and_eta():
    stream = io.StringIO()
    ProgressLine(stream=stream, interval=0.0).update(CAMPAIGN_PAYLOAD)
    text = stream.getvalue()
    # 12 detected / 2s elapsed; 45 frames to go at 2.5 f/s = 18s
    assert "6.0 faults/s" in text
    assert "eta 18s" in text


def test_fabric_payload_renders_rate_and_eta():
    stream = io.StringIO()
    ProgressLine(stream=stream, interval=0.0).update(FABRIC_PAYLOAD)
    text = stream.getvalue()
    assert "shards 3/12" in text
    assert "workers 4" in text
    # 30 faults / 6s elapsed; 90 to go at 5 f/s = 18s
    assert "5.0 faults/s" in text
    assert "eta 18s" in text


def test_eta_formats_minutes_and_hours():
    assert ProgressLine._duration(18) == "18s"
    assert ProgressLine._duration(150) == "2.5m"
    assert ProgressLine._duration(7200) == "2.0h"


def test_no_rate_without_elapsed_or_progress():
    stream = io.StringIO()
    ProgressLine(stream=stream, interval=0.0).update(
        {"frame": 0, "frames_total": 50, "detected": 0, "elapsed": 0}
    )
    text = stream.getvalue()
    assert "faults/s" not in text
    assert "eta" not in text


def test_closed_stream_disables_instead_of_raising():
    line = ProgressLine(stream=_ClosedStream(), interval=0.0)
    line.update(CAMPAIGN_PAYLOAD)  # must not raise
    line.update(CAMPAIGN_PAYLOAD)
    line.finish()
    assert line._dead


def test_stream_closing_mid_campaign_disables():
    stream = io.StringIO()
    line = ProgressLine(stream=stream, interval=0.0)
    line.update(CAMPAIGN_PAYLOAD)
    stream.close()
    line.update(dict(CAMPAIGN_PAYLOAD, frame=6))  # must not raise
    line.update(dict(CAMPAIGN_PAYLOAD, frame=7))
    line.finish()
    assert line._dead


def test_callable_protocol():
    stream = io.StringIO()
    line = ProgressLine(stream=stream, interval=0.0)
    line(CAMPAIGN_PAYLOAD)
    assert "frame 5/50" in stream.getvalue()
