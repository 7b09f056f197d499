"""Run traces: recording, CSV serialization, slope estimates and SVG plots.

A :class:`RunReport` stores one row per recorded iteration t with the
iterate, virtual queues, objective/constraint values at the iterate and
at the running average, the cumulative constraint sums, and the Lyapunov
drift of the queue vector together with its algebraic upper bound.  On
linear constraint rows g at the running average is the cumulative sum
over t, which equals it in exact arithmetic; any other rows are
evaluated there.

The scalar CSV schema is fixed::

    t, f_xbar, max_violation, queue_norm, drift, drift_bound,
    obj_bound_residual, cons_bound_residual

Bound residual columns are NaN unless reference values were supplied.
Vectors go to an optional sidecar CSV.  Plots are rendered from parsed
CSV columns only, so re-plotting a saved trace is byte-identical.

Every CSV writer (the trace, the sidecar and the bound margins) goes
through one helper, which writes each cell of the stacked float table as
the bytes of ``'%.17g' % v`` (which round-trips doubles), block by block.
The 17 digits of a cell of magnitude in [1e-4, 1e17), where %.17g writes
fixed notation, come exactly from Dekker's error-free product of the cell
and a power of ten on a whole block; every other nonzero cell (NaN, +-inf,
or outside that range) is written by ``%.17g`` one cell at a time.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, _input_errors

__all__ = [
    "RunReport",
    "TraceRecorder",
    "record_schedule",
    "default_record_every",
    "write_trace_csv",
    "parse_trace_csv",
    "write_full_trace_csv",
    "write_summary",
    "SlopeResult",
    "slope_check",
    "render_convergence_svg",
    "plot_trace",
]

TRACE_COLUMNS = ("t", "f_xbar", "max_violation", "queue_norm", "drift",
                 "drift_bound", "obj_bound_residual", "cons_bound_residual")


def default_record_every(T):
    """Stride 1 up to 1000 iterations, about 1000 rows beyond that."""
    return 1 if T <= 1000 else math.ceil(T / 1000)


def record_schedule(T, record_every):
    """Iterations that get a trace row: every stride, plus t=1 and t=T."""
    ts = sorted({1, T} | set(range(record_every, T + 1, record_every)))
    return ts


@dataclass
class RunReport:
    """Per-iteration trace plus the configuration that produced it.

    Row i holds iteration t[i]: the iterate x(t-1) with f_x and g_x at
    it, the queues Q(t), the running average x_bar(t) with f_xbar and
    g_xbar, the running sum cum_g of g(x(tau)) over tau < t, and the
    drift of the step that produced them.  f_xbar is f evaluated at
    x_bar.  On linear rows (``constraint_terms.is_linear``) g_xbar is
    cum_g / t, which is g(x_bar) in exact arithmetic; on quadratic or log
    rows, where that mean only bounds g(x_bar) from above, and on a
    callable's rows g_xbar is g evaluated at x_bar."""

    algorithm: str
    problem: str
    alpha: float
    iterations: int
    record_every: int
    oracle: str
    x_init: np.ndarray
    t: np.ndarray
    x: np.ndarray
    x_bar: np.ndarray
    Q: np.ndarray
    f_x: np.ndarray
    f_xbar: np.ndarray
    g_x: np.ndarray
    g_xbar: np.ndarray
    cum_g: np.ndarray
    drift: np.ndarray
    drift_bound: np.ndarray
    wall_time: float = 0.0
    gamma: float = None
    program: object = None
    extras: dict = field(default_factory=dict)
    obj_bound_residual: np.ndarray = None
    cons_bound_residual: np.ndarray = None

    def __post_init__(self):
        rows = len(self.t)
        if self.obj_bound_residual is None:
            self.obj_bound_residual = np.full(rows, np.nan)
        if self.cons_bound_residual is None:
            self.cons_bound_residual = np.full(rows, np.nan)

    @property
    def queue_norm(self):
        return np.linalg.norm(self.Q, axis=1)

    @property
    def max_violation(self):
        # -inf, the maximum of an empty set, on a program with no rows
        return self.g_xbar.max(axis=1, initial=-np.inf)

    @property
    def final(self):
        """Summary scalars of the last recorded row, reduced alone: the
        same bits as the last entries of ``max_violation`` and
        ``queue_norm``, whose row-wise sums run in the same order."""
        q = self.Q[-1]
        return {
            "t": int(self.t[-1]),
            "f_xbar": float(self.f_xbar[-1]),
            "max_violation": float(self.g_xbar[-1].max(initial=-np.inf)),
            "queue_norm": float(np.sqrt(np.add.reduce(q * q))),
        }

    def columns(self):
        return {
            "t": self.t.astype(float),
            "f_xbar": self.f_xbar,
            "max_violation": self.max_violation,
            "queue_norm": self.queue_norm,
            "drift": self.drift,
            "drift_bound": self.drift_bound,
            "obj_bound_residual": self.obj_bound_residual,
            "cons_bound_residual": self.cons_bound_residual,
        }


class TraceRecorder:
    """Copies each recorded row's vectors into one block sized from the
    schedule; the report's vector arrays are slices of it.  ``rows`` counts
    the rows written.  ``record_every`` None means
    :func:`default_record_every`; a stride below 1 is a ValueError."""

    def __init__(self, T, record_every=None):
        if record_every is not None and record_every < 1:
            raise ValueError(f"record_every must be at least 1, got {record_every}")
        self.T = T
        self.record_every = default_record_every(T) if record_every is None else record_every
        schedule = record_schedule(T, self.record_every)
        self._want = set(schedule)
        self._capacity = len(schedule)
        self._vectors = None  # allocated on the first add, when n and m are known
        self._edges = None
        self._scalars = []  # (t, f_x, f_xbar, drift, drift_bound) per row
        self.rows = 0

    def wants(self, t):
        return t in self._want

    def add(self, t, x, x_bar, Q, f_x, g_x, f_xbar, g_xbar, cum_g, drift, drift_bound):
        if self._vectors is None:
            n, m = x.shape[0], Q.shape[0]
            # x, x_bar (n each), then Q, g_x, g_xbar, cum_g (m each)
            self._edges = np.cumsum((n, n, m, m, m))
            self._vectors = np.empty((self._capacity, 2 * n + 4 * m))
        np.concatenate((x, x_bar, Q, g_x, g_xbar, cum_g), out=self._vectors[self.rows])
        self._scalars.append((t, f_x, f_xbar, drift, drift_bound))
        self.rows += 1

    def build(self, **config):
        x, x_bar, Q, g_x, g_xbar, cum_g = np.split(self._vectors[:self.rows], self._edges,
                                                   axis=1)
        t, f_x, f_xbar, drift, drift_bound = np.array(self._scalars).T
        return RunReport(t=t.astype(int), x=x, x_bar=x_bar, Q=Q, f_x=f_x, g_x=g_x,
                         f_xbar=f_xbar, g_xbar=g_xbar, cum_g=cum_g, drift=drift,
                         drift_bound=drift_bound, record_every=self.record_every, **config)


_BLOCK_CELLS = 4096
_CELL_BYTES = 32  # the longest %.17g text (24 bytes) and its separator
_CELL = np.dtype((np.void, _CELL_BYTES))
_POW10 = 10.0 ** np.arange(21)  # 10**p is an exact double for p <= 22
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split: hi + lo == a exactly, each with at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)
# the text of each 4-digit group as 4 bytes, and how many of them are trailing zeros
_GROUP = np.arange(10000)
_GROUP_TEXT = ((_GROUP[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48)
               .astype(np.uint8).view(np.uint32).ravel())
_GROUP_ZEROS = sum(_GROUP % 10 ** k == 0 for k in (1, 2, 3, 4)).astype(np.uint8)
# row L keeps the first L + 1 bytes of a cell: its text and its separator
_KEEP = np.arange(_CELL_BYTES) <= np.arange(_CELL_BYTES)[:, None]


def _times_pow10(a, p):
    """(hi, lo) with hi + lo == a * 10**p exactly: Dekker's product."""
    p = p.astype(np.intp)
    hi = a * _POW10[p]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _POW10_HI[p], _POW10_LO[p]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _off_decade(hi, lo):
    """-1, 0 or 1 as the exact hi + lo lies below, in or above [1e16, 1e17)."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return above.view(np.int8) - below.view(np.int8)


def _significands(a):
    """(D, X) for each ``a`` in [1e-4, 1e17): ``a`` to 17 significant digits,
    rounded half to even, is D * 10**(X - 16), 10**16 <= D < 10**17.

    X starts at floor(log10(a)) and moves by one while the exact
    a * 10**(16 - X) = hi + lo lies outside [1e16, 1e17).  Inside it hi is
    an even integer above 2**53, so hi + rint(lo) rounds hi + lo half to
    even.  It never rounds up to 1e17: 17 digits tell doubles apart, and
    the double nearest each 10**k, k = -3..17, is not below it."""
    x = np.floor(np.log10(a)).astype(np.int8)
    np.clip(x, -4, 16, out=x)  # log10 may round across 1e-4 or 1e17
    hi, lo = _times_pow10(a, 16 - x)
    off = _off_decade(hi, lo)
    moved = np.flatnonzero(off)
    while moved.size:
        x[moved] += off[moved]
        hi[moved], lo[moved] = _times_pow10(a[moved], 16 - x[moved])
        off[moved] = _off_decade(hi[moved], lo[moved])
        moved = moved[off[moved] != 0]
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), x


def _digits(d):
    """The 17 decimal digits of each D as a (len(d), 17) uint8 array, and
    how many of them are trailing zeros."""
    q = d // 10 ** 8
    r = d - q * 10 ** 8
    groups = np.empty((5, d.size), np.intp)  # the first digit, then 4 groups of 4
    groups[0] = q // 10 ** 8
    q -= groups[0] * 10 ** 8
    groups[1] = q // 10 ** 4
    groups[2] = q - groups[1] * 10 ** 4
    groups[3] = r // 10 ** 4
    groups[4] = r - groups[3] * 10 ** 4
    zeros = np.take(_GROUP_ZEROS, groups[1:])
    empty = zeros == 4
    tz = zeros[3] + empty[3] * (zeros[2] + empty[2] * (zeros[1] + empty[1] * zeros[0]))
    return np.take(_GROUP_TEXT, groups.T).view(np.uint8)[:, 3:], tz


def _format_cells(cells, seps):
    """The bytes of ``'%.17g' % v`` for each of ``cells``, each followed by
    its byte of ``seps``, as one uint8 array.

    A cell of magnitude in [1e-4, 1e17), where %.17g writes fixed notation,
    is written from its 17 significant digits (:func:`_significands`).  Its
    text then depends only on its sign and exponent, so those cells are
    sorted by that pair and laid out one group at a time with slice copies.
    Signed zeros are written directly, and NaN, +-inf and every other
    magnitude by ``%.17g``, one cell at a time."""
    n = cells.size
    a = np.abs(cells)
    neg = np.signbit(cells)
    text = np.empty((n, _CELL_BYTES), np.uint8)
    lens = np.empty(n, np.uint8)  # the length of each cell's text
    fixed = (a >= 1e-4) & (a < 1e17)
    fast = np.flatnonzero(fixed)
    d, x = _significands(a[fast])
    key = x + np.int8(4)  # 0..20, and 21..41 for a negative cell
    key += neg[fast].view(np.int8) * np.int8(21)
    order = np.argsort(key, kind="stable")
    digits, tz = _digits(d[order])
    x = x[order]
    fraction = np.maximum(16 - x - tz.astype(np.int8), 0)  # digits kept after the point
    flen = (key[order] >= 21) + np.maximum(x, 0) + 1 + (fraction > 0) + fraction
    out = np.empty((fast.size, _CELL_BYTES), np.uint8)
    counts = np.bincount(key, minlength=42)
    end = 0
    for k in np.flatnonzero(counts):
        rows = slice(end, end + counts[k])
        end += counts[k]
        s, e = divmod(int(k), 21)
        e -= 4
        # 45, 46 and 48 are the bytes of '-', '.' and '0'
        out[rows, 0] = 45  # overwritten on a positive cell
        if e >= 0:
            out[rows, s:s + e + 1] = digits[rows, :e + 1]
            out[rows, s + e + 1] = 46
            out[rows, s + e + 2:s + 18] = digits[rows, e + 1:]
        else:  # 0.000ddd
            out[rows, s:s + 1 - e] = 48
            out[rows, s + 1] = 46
            out[rows, s + 1 - e:s + 18 - e] = digits[rows]
    at = fast[order]
    text.view(_CELL)[at] = out.view(_CELL)
    lens[at] = flen
    zero = np.flatnonzero(a == 0.0)
    text[zero, 0] = np.where(neg[zero], 45, 48)
    text[zero, 1] = 48
    lens[zero] = 1 + neg[zero]
    slow = np.flatnonzero(~fixed & (a != 0.0))
    if slow.size:
        texts = [b"%.17g" % v for v in cells[slow].tolist()]
        lens[slow] = [len(t) for t in texts]
        text[slow] = np.frombuffer(b"".join(t.ljust(_CELL_BYTES) for t in texts),
                                   np.uint8).reshape(-1, _CELL_BYTES)
    text.ravel()[np.arange(0, n * _CELL_BYTES, _CELL_BYTES) + lens] = seps
    return text[np.take(_KEEP, lens, axis=0)]


def _write_table(path, header, columns):
    """Write ``header`` and the stacked columns (1-D or 2-D blocks) as CSV,
    each cell the bytes of ``'%.17g' % v``, in blocks of about 4096 cells,
    so memory does not grow with the text.

    The bytes are exact: a cell of magnitude in [1e-4, 1e17) is written
    from its 17 significant digits, computed from Dekker's error-free
    product of the cell and a power of ten, and every other nonzero cell
    is written by ``%.17g`` itself."""
    table = np.column_stack(columns)
    rows, cols = table.shape
    per = max(1, _BLOCK_CELLS // cols)
    seps = np.full((per, cols), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    seps = seps.ravel()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for first in range(0, rows, per):
            cells = table[first:first + per].ravel()
            fh.write(_format_cells(cells, seps[:cells.size]))


def write_trace_csv(report, path):
    cols = report.columns()
    _write_table(path, TRACE_COLUMNS, [cols[c] for c in TRACE_COLUMNS])


def parse_trace_csv(path):
    """Read a trace CSV back into a dict of float arrays keyed by column.

    A file that cannot be read, without a ``t``, ``f_xbar`` or
    ``max_violation`` column (the ones a plot reads; an empty file among
    them), with a row of more or fewer cells than the header, or with a
    cell that is not a number, is a ConfigurationError.
    """
    with _input_errors(f"trace {str(path)!r}"), open(path) as fh:
        header = fh.readline().strip().split(",")
        for name in ("t", "f_xbar", "max_violation"):
            if name not in header:
                raise ConfigurationError(f"trace {str(path)!r} has no {name!r} column")
        data = [[] for _ in header]
        for lineno, line in enumerate(fh, 2):
            cells = line.strip().split(",")
            if len(cells) != len(header):
                raise ConfigurationError(f"trace {str(path)!r} line {lineno} has {len(cells)} "
                                         f"cells, expected {len(header)}")
            for slot, tok in zip(data, cells):
                slot.append(float(tok))
    return {name: np.array(vals) for name, vals in zip(header, data)}


def write_full_trace_csv(report, path):
    """Sidecar CSV with the per-row iterate and queue vectors."""
    header = (["t"] + [f"x_{i}" for i in range(report.x.shape[1])]
              + [f"Q_{k}" for k in range(report.Q.shape[1])])
    _write_table(path, header, [report.t, report.x, report.Q])


def _standard(value):
    """``value`` with every NaN or infinite float in it, at any depth of
    dicts and lists, replaced by None."""
    if isinstance(value, dict):
        return {key: _standard(v) for key, v in value.items()}
    if isinstance(value, list):
        return list(map(_standard, value))
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_json(value, path):
    """Write ``value`` as standard JSON, keys sorted and indented by two: a
    NaN or infinite float, which standard JSON has no token for, is null."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_standard(value), indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_summary(report, path, extra=None):
    """Write the run's summary to ``path`` as standard JSON and return it
    with its non-finite floats kept."""
    summary = {
        "algorithm": report.algorithm,
        "problem": report.problem,
        "alpha": report.alpha,
        "gamma": report.gamma,
        "iterations": report.iterations,
        "record_every": report.record_every,
        "oracle": report.oracle,
        "wall_time_s": report.wall_time,
        **report.final,
    }
    summary.update(report.extras)
    if extra:
        summary.update(extra)
    _write_json(summary, path)
    return summary


@dataclass(frozen=True)
class SlopeResult:
    """Least-squares slope of log10(err) against log10(t)."""

    slope: float
    points: int
    skipped: bool = False
    reason: str = ""


def slope_check(t, errors, window):
    """Fit the log-log decay rate of an error sequence over a t-window.

    Non-positive errors inside the window mean the sequence dipped below
    the measurable floor; the fit is then skipped rather than fudged.
    """
    t = np.asarray(t, dtype=float)
    errors = np.asarray(errors, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if not mask.any():
        return SlopeResult(float("nan"), 0, skipped=True, reason="empty-window")
    tw, ew = t[mask], errors[mask]
    if np.any(ew <= 0):
        return SlopeResult(float("nan"), int(mask.sum()), skipped=True,
                           reason="converged-below-floor")
    lt, le = np.log10(tw), np.log10(ew)
    slope = float(np.polyfit(lt, le, 1)[0])
    return SlopeResult(slope, int(mask.sum()))


# ---------------------------------------------------------------------------
# SVG convergence plots (hand-rolled so saved traces re-plot byte-identically)

_W, _H = 720, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ("#1f77b4", "#d62728", "#7f7f7f", "#2ca02c", "#9467bd")


def _log_points(ts, vals):
    """(log10 t, log10 v) for each pair of positive finite values: a trace
    cell of inf (or beyond the double range) has no place on the axes."""
    # Python floats, which compare several times faster than numpy scalars
    ts, vals = np.asarray(ts, dtype=float).tolist(), np.asarray(vals, dtype=float).tolist()
    return [(math.log10(t), math.log10(v)) for t, v in zip(ts, vals)
            if 0 < t < math.inf and 0 < v < math.inf]


def render_convergence_svg(columns, f_star=None, bound_constant=None, title="convergence"):
    """Render a log10-log10 convergence plot to an SVG string.

    Series: objective error f(xbar) - f_star (when ``f_star`` given),
    positive constraint violations, the 1/t reference, and the C/t
    certified-bound curve (when ``bound_constant`` given).  Falls back
    to plotting |f(xbar)| when no reference optimum is available.
    """
    ts = columns["t"]
    series = []
    if f_star is not None:
        series.append(("objective error", _log_points(ts, columns["f_xbar"] - f_star)))
    else:
        series.append(("|f(xbar)|", _log_points(ts, np.abs(columns["f_xbar"]))))
    series.append(("max violation", _log_points(ts, columns["max_violation"])))
    series.append(("1/t", _log_points(ts, 1.0 / np.asarray(ts, dtype=float))))
    if bound_constant is not None:
        series.append((f"bound {bound_constant:.3g}/t",
                       _log_points(ts, bound_constant / np.asarray(ts, dtype=float))))

    pts_all = [p for _, pts in series for p in pts]
    if not pts_all:
        xlim, ylim = (0.0, 1.0), (-1.0, 1.0)
    else:
        xs = [p[0] for p in pts_all]
        ys = [p[1] for p in pts_all]
        xlim = (math.floor(min(xs)), math.ceil(max(xs) + 1e-9))
        ylim = (math.floor(min(ys)), math.ceil(max(ys) + 1e-9))
        if xlim[0] == xlim[1]:
            xlim = (xlim[0], xlim[0] + 1)
        if ylim[0] == ylim[1]:
            ylim = (ylim[0], ylim[0] + 1)

    def sx(x):
        return _ML + (x - xlim[0]) / (xlim[1] - xlim[0]) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - ylim[0]) / (ylim[1] - ylim[0]) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="16" '
           f'font-family="sans-serif">{title}</text>']
    # axes
    out.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
               'stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>')
    for k in range(int(xlim[0]), int(xlim[1]) + 1):
        x = sx(k)
        out.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
                   'stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
                   f'font-size="12" font-family="sans-serif">1e{k}</text>')
    for k in range(int(ylim[0]), int(ylim[1]) + 1):
        y = sy(k)
        out.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
                   'stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-size="12" font-family="sans-serif">1e{k}</text>')
    out.append(f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="13" '
               'font-family="sans-serif">iteration t (log10)</text>')
    # series
    legend_y = _MT + 8
    for (label, pts), color in zip(series, _COLORS):
        if pts:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       'stroke-width="1.5"/>')
        out.append(f'<line x1="{_W - 200}" y1="{legend_y}" x2="{_W - 175}" '
                   f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_W - 170}" y="{legend_y + 4}" font-size="12" '
                   f'font-family="sans-serif">{label}</text>')
        legend_y += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


def plot_trace(csv_path, svg_path, f_star=None, bound_constant=None, title="convergence"):
    """Regenerate the convergence SVG from a saved trace CSV alone."""
    columns = parse_trace_csv(csv_path)
    svg = render_convergence_svg(columns, f_star=f_star,
                                 bound_constant=bound_constant, title=title)
    with open(svg_path, "w") as fh:
        fh.write(svg)
    return svg_path
