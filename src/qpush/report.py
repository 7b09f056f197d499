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
through one helper: the table is stacked as floats and each row is
written with one ``%.17g`` template, which round-trips doubles exactly
and gives the same bytes as formatting each cell with ``.17g``.
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


def _write_table(path, header, columns):
    """Write ``header`` and the stacked columns (1-D or 2-D blocks), one
    ``%.17g`` template per row, so memory does not grow with the table."""
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"
    table = np.column_stack(columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(row_fmt % tuple(row.tolist()))


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
