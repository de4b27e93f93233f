"""Paper-style ASCII rendering of experiment results."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _fmt(cell: Cell, ndigits: int = 2) -> str:
    if isinstance(cell, float):
        return f"{cell:.{ndigits}f}"
    return str(cell)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    ndigits: int = 2,
    title: str = "",
) -> str:
    """Render an aligned text table with a header rule."""
    str_rows: List[List[str]] = [
        [_fmt(c, ndigits) for c in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(
    values: Dict[str, float],
    width: int = 50,
    unit: str = "%",
    title: str = "",
) -> str:
    """Render a horizontal ASCII bar chart (the paper's figures are bars).

    Bars are scaled to the maximum value; zero/NaN-safe.
    """
    if not values:
        return title
    peak = max((v for v in values.values() if v == v), default=0.0)
    label_w = max(len(k) for k in values)
    lines = [title] if title else []
    for name, value in values.items():
        if value != value:  # NaN
            bar, shown = "", "nan"
        else:
            filled = int(round(width * value / peak)) if peak > 0 else 0
            bar = "█" * filled
            shown = f"{value:.1f}{unit}"
        lines.append(f"{name.ljust(label_w)} |{bar} {shown}")
    return "\n".join(lines)


def render_snapshot(
    snapshot: Dict[str, Dict[str, float]],
    title: str = "",
    skip_zero: bool = True,
    ndigits: int = 4,
) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as a counter table.

    One row per (component, counter); histogram summaries expand into
    dotted sub-keys.  Zero-valued counters are omitted by default so the
    table shows what actually happened.
    """
    rows: List[Sequence[Cell]] = []
    for group, values in snapshot.items():
        for key, value in values.items():
            if isinstance(value, dict):  # histogram summary
                items = [(f"{key}.{sub}", v) for sub, v in value.items()]
            else:
                items = [(key, value)]
            for name, v in items:
                if skip_zero and not v:
                    continue
                rows.append([group, name, v])
    return render_table(
        ["component", "counter", "value"], rows, ndigits=ndigits, title=title
    )


def _fmt_hours(hours: float) -> str:
    """MTTF cell: hours are unwieldy, so quote the natural magnitude."""
    if hours == float("inf"):
        return "inf"
    if hours >= 1e6:
        return f"{hours / 1e6:.2f}Mh"
    if hours >= 1e3:
        return f"{hours / 1e3:.1f}kh"
    return f"{hours:.0f}h"


def render_campaign(result, title: str = "") -> str:
    """Per-scheme table for a reliability ``CampaignResult``.

    One row per scheme: trial count, conditional outcome rates with
    their Wilson 95% half-widths, AVF, the FIT split and MTTF — the
    conventional-vs-paper comparison the campaign exists to make.
    """
    from repro.reliability.model import TrialOutcome

    headers = [
        "scheme", "trials", "sdc", "due", "corrected", "refetched",
        "avf", "FIT(sdc)", "FIT(due)", "MTTF", "stop",
    ]
    rows: List[Sequence[Cell]] = []
    for scheme in result.config.schemes:
        s = result.schemes[scheme]
        e = s.estimate

        def ci(outcome: "TrialOutcome") -> str:
            r = e.rates[outcome]
            return f"{r.value:.4f}±{r.half_width:.4f}"

        rows.append([
            scheme,
            s.trials,
            ci(TrialOutcome.SDC),
            ci(TrialOutcome.DUE),
            ci(TrialOutcome.CORRECTED),
            ci(TrialOutcome.REFETCHED),
            f"{e.avf.value:.4f}±{e.avf.half_width:.4f}",
            f"{e.fit_sdc[0]:.1f}",
            f"{e.fit_due[0]:.1f}",
            _fmt_hours(e.mttf_hours[0]),
            s.stopped_by,
        ])
    return render_table(headers, rows, title=title)


def render_campaign_comparison(
    per_benchmark: Dict[str, "object"], title: str = ""
) -> str:
    """Per-benchmark AVF/MTTF series across schemes.

    ``per_benchmark`` maps benchmark name to ``CampaignResult`` (the
    output of :func:`repro.experiments.reliability.benchmark_campaigns`);
    the table shows each scheme's AVF and MTTF side by side, plus the
    average row the paper-style tables carry.
    """
    series: Dict[str, Dict[str, float]] = {}
    for bench, result in per_benchmark.items():
        row: Dict[str, float] = {}
        for scheme, s in result.schemes.items():
            row[f"{scheme} avf"] = s.estimate.avf.value
            row[f"{scheme} MTTF Mh"] = s.estimate.mttf_hours[0] / 1e6
        series[bench] = row
    return render_series(series, ndigits=4, title=title)


def render_front(
    points: Sequence[Dict[str, object]],
    front: Sequence[int],
    objectives: Sequence[str],
    title: str = "",
    indices: "Sequence[int] | None" = None,
) -> str:
    """Pareto-front table for one benchmark of an autotune result.

    ``points`` are the JSON point documents of an
    ``AutotuneResponse``; ``front`` holds the benchmark's non-dominated
    indices and ``indices`` the full candidate set (default: every
    point).  Front members print first, marked ``*``; stochastic
    objectives show ``value [lo, hi]`` so the CI-aware dominance rule —
    A dominates B only when A's upper bound clears B's lower bound —
    can be read straight off the table.
    """
    front_set = set(front)
    candidates = range(len(points)) if indices is None else indices
    order = list(front) + [i for i in candidates if i not in front_set]

    def fmt(doc: Dict[str, object]) -> str:
        value, lo, hi = doc["value"], doc["lo"], doc["hi"]
        if value is None:
            return "inf"
        if lo == hi == value:
            return f"{value:.4g}"
        lo_s = "?" if lo is None else f"{lo:.4g}"
        hi_s = "inf" if hi is None else f"{hi:.4g}"
        return f"{value:.4g} [{lo_s}, {hi_s}]"

    rows: List[Sequence[Cell]] = []
    for i in order:
        doc = points[i]
        rows.append(
            ["*" if i in front_set else "", doc["label"]]
            + [fmt(doc["objectives"][name]) for name in objectives]
        )
    return render_table(
        ["", "design point"] + list(objectives), rows, title=title
    )


def render_series(
    series: Dict[str, Dict[str, float]],
    row_label: str = "benchmark",
    ndigits: int = 2,
    title: str = "",
    average_row: bool = True,
) -> str:
    """Render {row: {column: value}} as a table, optionally with averages.

    This matches how the paper presents its per-benchmark bar charts:
    one row per benchmark, one column per configuration, plus the
    arithmetic-mean row the text quotes.
    """
    rows = list(series.keys())
    columns: List[str] = []
    for per_row in series.values():
        for col in per_row:
            if col not in columns:
                columns.append(col)
    table_rows: List[List[Cell]] = []
    for row in rows:
        table_rows.append(
            [row] + [series[row].get(col, float("nan")) for col in columns]
        )
    if average_row and rows:
        avg: List[Cell] = ["average"]
        for col in columns:
            vals = [series[r][col] for r in rows if col in series[r]]
            if any(isinstance(v, str) for v in vals):
                avg.append("")  # a label column has no mean
            else:
                avg.append(sum(vals) / len(vals) if vals else float("nan"))
        table_rows.append(avg)
    return render_table([row_label] + columns, table_rows, ndigits, title)
