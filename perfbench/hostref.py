"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed available to one process drifts by up to 2x
within a minute, so two runs of the same code minutes apart can differ by
more than a real change would.  The benchmark therefore runs this kernel
just before and just after each timed call (a batch of set-ups, a solve)
and scales the call's time by the kernel's nominal pass time over its
measured pass time: a time reported in ``s`` is the time the work would
take on a host where each kernel part takes its ``NOMINAL_S``.

The kernel does not touch qpush, so a change to the program cannot move
it.  It has three parts, and each timed call names the parts whose cost is
of the same kind as its own (``Workload.reference_parts``):

- ``python``: a pure-Python loop over a dict, for interpreter overhead;
- ``small_numpy``: numpy calls on a 19-entry vector, for per-call overhead;
- ``matvec``: dense products with a 700 x 1500 (8.4 MB) matrix, for
  memory bandwidth and BLAS.

A part tracks a call only if the call's cost is of its kind: the matvec
part follows a 9-link-network solve worse than the raw time does, and the
Python parts follow a 400-link VQ solve hardly better than the raw time.
"""

import time

import numpy as np

# Typical seconds of one pass of each part while the benchmark ran on the
# host it was tuned on (2 vCPUs of a shared x86-64 host, Python 3.11,
# numpy 2.4 with OpenBLAS); they only set the scale of the reported times.
NOMINAL_S = {"python": 0.015, "small_numpy": 0.015, "matvec": 0.018}

_PY_LOOPS = 54000
_SMALL_CALLS = 2700
_MATVECS = 36


def _python_part(n):
    table = {}
    acc = 0
    for i in range(n):
        key = i % 97
        acc += table.get(key, 0) + (i * 7) % 13
        table[key] = acc & 0xFFFF
    return acc


def _small_part(v, n):
    acc = 0.0
    for _ in range(n):
        acc += float(np.maximum(v * 0.5 + 1.0, 0.0).sum())
    return acc


def _matvec_part(a, v, n):
    for _ in range(n):
        v = a.T @ (a @ v)
        v /= np.abs(v).max()
    return v


class PlainClock:
    """Times calls with no reference samples: every factor is 1."""

    def timed(self, parts, fn, *args, **kwargs):
        started = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - started, 1.0


PLAIN_CLOCK = PlainClock()


def nominal_s(parts):
    """Nominal seconds of one pass of ``parts``."""
    if not parts or set(parts) - set(NOMINAL_S):
        raise ValueError(f"reference parts must be among {sorted(NOMINAL_S)}, got {parts!r}")
    return sum(NOMINAL_S[p] for p in parts)


class HostReference:
    """Brackets timed calls with kernel passes and keeps their speed factors."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._calls = {
            "python": (_python_part, _PY_LOOPS),
            "small_numpy": (_small_part, rng.standard_normal(19), _SMALL_CALLS),
            "matvec": (_matvec_part, rng.standard_normal((700, 1500)),
                       rng.standard_normal(1500), _MATVECS),
        }
        # (parts, seconds, factor) of each timed call
        self.log = []
        # seconds spent in kernel passes
        self.sampling_s = 0.0

    def sample(self, parts):
        """One timed pass of ``parts``; returns its duration in seconds."""
        started = time.perf_counter()
        for part in parts:
            fn, *args = self._calls[part]
            fn(*args)
        elapsed = time.perf_counter() - started
        self.sampling_s += elapsed
        return elapsed

    def timed(self, parts, fn, *args, **kwargs):
        """Call ``fn`` between two passes of ``parts``.

        Returns ``(result, seconds, factor)``: the call's wall time and
        the nominal pass time over the mean of the two measured ones.
        """
        nominal = nominal_s(parts)
        before = self.sample(parts)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            after = self.sample(parts)
        factor = 2.0 * nominal / (before + after)
        self.log.append((tuple(parts), elapsed, factor))
        return result, elapsed, factor

    def mark(self):
        """Index of the next timed call, for :meth:`factor_since`."""
        return len(self.log)

    def factor_since(self, mark):
        """Speed factor of the calls timed since ``mark``, weighted by time."""
        calls = self.log[mark:]
        seconds = sum(s for _, s, _ in calls)
        if not seconds:
            raise ValueError("no timed calls since the mark")
        return sum(s * f for _, s, f in calls) / seconds
