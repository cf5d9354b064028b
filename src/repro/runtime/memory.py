"""Process-memory introspection for RSS-aware budgets.

A pure-Python BDD package is memory-bound long before it is CPU-bound:
the node store, the unique table and the computed table all grow with
the OBDDs, and nothing in the paper's 30,000-node space limit sees the
actual process footprint.  This module supplies the one primitive the
governor's RSS budget needs — the current resident set size —
without any dependency beyond the standard library.

On Linux the value comes from one short read of ``/proc/self/statm``
(field 2, resident pages, times the page size).  Elsewhere the
``resource`` module's peak RSS is used as a monotone stand-in; when even
that is unavailable the reader returns None and every RSS-based feature
degrades to inert.
"""

import math
import os
import sys

_STATM_PATH = "/proc/self/statm"

_PAGE_SIZE = 4096
try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, OSError, ValueError):  # pragma: no cover
    pass


def read_rss_bytes(path=_STATM_PATH):
    """Current resident set size in bytes, or None when unavailable.

    The fallback (``getrusage`` peak RSS) only ever grows, which is
    still a usable budget trigger: a budget crossed by the peak has
    certainly been crossed by the current value at some point.
    """
    try:
        with open(path, "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:  # pragma: no cover - non-Linux fallback
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS
        scale = 1 if sys.platform == "darwin" else 1024
        return int(peak) * scale
    except Exception:  # pragma: no cover - no resource module at all
        return None


class _Unavailable:
    pass


_UNAVAILABLE = _Unavailable()


class RssSampler:
    """Throttled, cached RSS sampler for hot paths.

    Reading ``/proc`` is cheap but not free, and the governor's
    node-allocation hook may consult the sampler thousands of times per
    frame.  The sampler re-reads the kernel value only every *refresh*
    calls and serves the cached value in between; it also remembers the
    peak it has seen (``peak``) for accounting.  A reader that returns
    None on first use marks the sampler unavailable for good, so
    platforms without ``/proc`` pay one failed read, not one per call.
    """

    def __init__(self, refresh=16, read=read_rss_bytes):
        if refresh < 1:
            raise ValueError("refresh must be >= 1")
        self.refresh = refresh
        self._read = read
        self._calls = 0
        self._value = None
        self.peak = 0

    def __call__(self):
        if self._value is _UNAVAILABLE:
            return None
        if self._value is None or self._calls >= self.refresh:
            self._calls = 0
            value = self._read()
            if value is None and self._value is None:
                self._value = _UNAVAILABLE
                return None
            if value is not None:
                self._value = value
                if value > self.peak:
                    self.peak = value
        self._calls += 1
        return self._value


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def parse_size(text):
    """Parse a human size string (``512M``, ``2g``, ``1048576``) to bytes.

    Used by the CLI's ``--rss-budget`` / ``--worker-rss-cap`` flags.
    Accepts a bare number (bytes), an optional one-letter binary suffix
    (K/M/G/T, case-insensitive) and an optional trailing ``b``/``iB``.
    Negative and non-finite sizes raise :class:`ValueError`.
    """
    if isinstance(text, (int, float)):
        value = text
    else:
        raw = str(text).strip().lower()
        for tail in ("ib", "b"):
            if raw.endswith(tail) and len(raw) > len(tail):
                raw = raw[: -len(tail)]
                break
        scale = 1
        if raw and raw[-1] in _SIZE_SUFFIXES:
            scale = _SIZE_SUFFIXES[raw[-1]]
            raw = raw[:-1]
        try:
            value = float(raw) * scale
        except ValueError:
            raise ValueError(
                f"unparsable size {text!r} (expected e.g. 512M, 2G, 1048576)"
            ) from None
    if value < 0 or (isinstance(value, float) and not math.isfinite(value)):
        raise ValueError(
            f"size {text!r} must be a finite number of bytes >= 0"
        )
    return int(value)
