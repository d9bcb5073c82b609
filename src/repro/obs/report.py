"""Self-contained HTML dashboards from flight-recorder snapshots.

The flight recorder (:mod:`repro.obs.timeseries`) captures *curves* —
latency, queue depth, rebuild progress over the simulated clock.  This
module turns those snapshots into a single-file HTML report with
inline SVG charts (via :class:`repro.experiments.svgplot.LineChart`)
and translucent fault-overlay bands, so "what did the p99 do while
disk 0 was dead?" is answered by opening one file in a browser — no
plotting stack, no server, no external assets.

Three renderers:

* :func:`serve_report_html` renders a ``repro serve --json`` document
  as a side-by-side traditional-vs-shifted dashboard (per-tenant p99
  trajectories, rebuild progress, rebuild throughput, queue depth);
* :func:`leaderboard_report_html` renders a ``repro leaderboard
  --json`` document;
* :func:`timeseries_report_html` renders any bare snapshot
  generically, one chart per metric name.

:func:`render_report` dispatches on the input file's shape and is what
``repro obs report`` calls.
"""

from __future__ import annotations

import json
from html import escape
from pathlib import Path

from ..experiments.svgplot import LineChart
from .metrics import bucket_quantile
from .timeseries import window_mean

__all__ = [
    "serve_report_html",
    "leaderboard_report_html",
    "timeseries_report_html",
    "render_report",
    "write_report",
]

#: overlay-band colours by fault kind (unknown kinds fall back to grey)
_BAND_COLORS = {
    "disk-death": "#d62728",
    "fail-slow": "#ff7f0e",
    "transient-burst": "#9467bd",
    "lse-storm": "#8c564b",
}

_CSS = """\
body { font-family: sans-serif; margin: 1.5em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin: 0.2em 0; }
p.meta { color: #666; margin-top: 0; }
.compare { display: flex; flex-wrap: wrap; gap: 1.5em; align-items: flex-start; }
.column { flex: 1 1 560px; min-width: 480px; }
.chart { margin-bottom: 1em; }
table.scalars { border-collapse: collapse; margin-bottom: 1em; }
table.scalars td, table.scalars th {
  border: 1px solid #ccc; padding: 2px 8px; text-align: right; }
table.scalars th { background: #f4f4f4; }
.legendnote { color: #666; font-size: 0.85em; }
"""


def _right_edges(wins: list[dict], window_s: float) -> list[float]:
    """Window right edges in simulated seconds — each window's x point."""
    return [(w["w"] + 1) * window_s for w in wins]


def _add_overlays(chart: LineChart, overlays) -> None:
    for band in overlays:
        chart.add_band(
            band["t0"],
            band["t1"],
            label=band.get("label", band.get("kind", "fault")),
            color=_BAND_COLORS.get(band.get("kind", ""), "#7f7f7f"),
        )


def _series_by_name(snapshot: dict, name: str) -> list[dict]:
    """Snapshot series entries with the given metric name, key-sorted."""
    series = snapshot.get("series", {})
    return [series[k] for k in sorted(series) if series[k]["name"] == name]


def _label_text(labels: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) or "all"


def _chart_svg(chart: LineChart, overlays) -> str:
    _add_overlays(chart, overlays)
    return f'<div class="chart">{chart.to_svg()}</div>'


def _serve_charts(snapshot: dict, overlays, heading: str) -> list[str]:
    """The serve-tier chart set for one arrangement's snapshot."""
    window_s = snapshot["window_s"]
    # the snapshot's own bounds, so files exported under another
    # bucket layout still render
    buckets = snapshot["buckets"]
    parts: list[str] = []

    latency = _series_by_name(snapshot, "serve.latency_s")
    if latency:
        chart = LineChart(
            f"{heading}: user-read p99 over simulated time",
            "simulated time (s)",
            "window p99 latency (ms)",
            width=560,
            height=340,
        )
        for entry in latency:
            tenant = entry["labels"].get("tenant", "all")
            chart.add_series(
                f"tenant {tenant}",
                _right_edges(entry["windows"], window_s),
                [
                    bucket_quantile(w, 0.99, buckets) * 1e3
                    for w in entry["windows"]
                ],
            )
        parts.append(_chart_svg(chart, overlays))

    progress = _series_by_name(snapshot, "rebuild.progress")
    if progress:
        chart = LineChart(
            f"{heading}: rebuild progress",
            "simulated time (s)",
            "fraction of stripes rebuilt",
            width=560,
            height=300,
        )
        for entry in progress:
            # progress is monotone, so the window max is the value at
            # the window's right edge
            chart.add_series(
                _label_text(entry["labels"]),
                _right_edges(entry["windows"], window_s),
                [w["max"] for w in entry["windows"]],
            )
        parts.append(_chart_svg(chart, overlays))

    throughput = _series_by_name(snapshot, "rebuild.throughput_mbps")
    if throughput:
        chart = LineChart(
            f"{heading}: rebuild read throughput",
            "simulated time (s)",
            "window mean (MB/s)",
            width=560,
            height=300,
        )
        for entry in throughput:
            chart.add_series(
                _label_text(entry["labels"]),
                _right_edges(entry["windows"], window_s),
                [window_mean(w) for w in entry["windows"]],
            )
        parts.append(_chart_svg(chart, overlays))

    depth = _series_by_name(snapshot, "serve.queue_depth")
    if depth:
        chart = LineChart(
            f"{heading}: in-flight queue depth",
            "simulated time (s)",
            "window mean depth",
            width=560,
            height=300,
        )
        for entry in depth:
            chart.add_series(
                _label_text(entry["labels"]),
                _right_edges(entry["windows"], window_s),
                [window_mean(w) for w in entry["windows"]],
            )
        parts.append(_chart_svg(chart, overlays))

    return parts


def _fmt_ms(seconds) -> str:
    if seconds is None:
        return "n/a"
    return f"{seconds * 1e3:.1f} ms"


def _serve_scalars(record: dict) -> str:
    slo = record.get("slo", {})
    rows = [
        ("rebuild makespan", f"{record['rebuild_makespan_s']:.3f} s"),
        ("p50 / p99", f"{_fmt_ms(slo.get('p50_s'))} / {_fmt_ms(slo.get('p99_s'))}"),
        ("served", str(slo.get("served", "n/a"))),
        ("availability", f"{record['availability']:.4f}"),
    ]
    cells = "".join(
        f"<tr><th>{escape(k)}</th><td>{escape(v)}</td></tr>" for k, v in rows
    )
    return f'<table class="scalars">{cells}</table>'


def _html_page(title: str, meta: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{escape(title)}</title>\n<style>{_CSS}</style></head>\n"
        f"<body>\n<h1>{escape(title)}</h1>\n"
        f'<p class="meta">{escape(meta)}</p>\n{body}\n'
        '<p class="legendnote">Shaded bands mark active fault intervals '
        "(hover for the fault kind and disk).</p>\n"
        "</body></html>\n"
    )


def serve_report_html(doc: dict, title: str | None = None) -> str:
    """A ``repro serve --json`` document as a two-column dashboard.

    One column per arrangement (traditional | shifted), each showing
    the per-tenant p99 trajectory, rebuild progress, rebuild
    throughput and queue depth over the simulated clock, with fault
    intervals shaded behind every chart.  Raises :class:`ValueError`
    when the document carries no timeseries (the run was made with
    observability off).
    """
    sides = [
        (side, doc[side]) for side in ("traditional", "shifted") if side in doc
    ]
    if not sides:
        raise ValueError("not a serve report: no traditional/shifted records")
    if all(not rec.get("timeseries", {}).get("series") for _, rec in sides):
        raise ValueError(
            "serve report carries no timeseries — rerun `repro serve --json` "
            "with observability on (REPRO_OBS=1, the default)"
        )
    if title is None:
        title = (
            f"Serve dashboard: {doc.get('family', 'mirror')} "
            f"n={doc.get('n', '?')} seed={doc.get('seed', '?')}"
        )
    columns = []
    for _, rec in sides:
        charts = _serve_charts(
            rec.get("timeseries", {}) or {"series": {}, "window_s": 1.0, "buckets": []},
            rec.get("overlays", ()),
            rec["layout"],
        )
        columns.append(
            '<div class="column">'
            f"<h2>{escape(rec['layout'])}</h2>"
            + _serve_scalars(rec)
            + "".join(charts)
            + "</div>"
        )
    meta = (
        f"throttle {doc.get('throttle', 'none')}, "
        f"{doc.get('process', 'poisson')} arrivals, "
        f"duration {doc.get('duration_s', float('nan')):.3f} s (simulated)"
    )
    return _html_page(title, meta, f'<div class="compare">{"".join(columns)}</div>')


def _lb_cell(value, fmt: str) -> str:
    """One leaderboard metric cell; ``None`` (a null p99) renders n/a."""
    if value is None:
        return "n/a"
    return format(value, fmt)


def leaderboard_report_html(doc: dict, title: str | None = None) -> str:
    """A ``repro leaderboard --json`` document as a ranked table.

    The entries arrive already ranked (availability down, then rebuild
    makespan, degraded p99, name); the section renders them as one
    scalars table with rank numbers, so the dashboard answers "which
    layout, when?" at a glance.  Raises :class:`ValueError` when the
    document has no entries.
    """
    entries = doc.get("entries", [])
    if not entries:
        raise ValueError("not a leaderboard report: no entries")
    if title is None:
        title = (
            f"Layout leaderboard: n={doc.get('n', '?')} "
            f"seed={doc.get('seed', '?')}"
        )
    head = (
        "<tr><th>#</th><th>layout</th><th>availability</th>"
        "<th>rebuild makespan (s)</th><th>degraded p99 (ms)</th>"
        "<th>data survival</th><th>storage eff.</th><th>served</th>"
        "<th>verified</th></tr>"
    )
    rows = []
    for rank, e in enumerate(entries, start=1):
        rows.append(
            f"<tr><td>{rank}</td><td>{escape(e['layout'])}</td>"
            f"<td>{_lb_cell(e.get('availability'), '.4f')}</td>"
            f"<td>{_lb_cell(e.get('rebuild_makespan_s'), '.3f')}</td>"
            f"<td>{_lb_cell(e.get('degraded_p99_ms'), '.1f')}</td>"
            f"<td>{_lb_cell(e.get('data_survival'), '.4f')}</td>"
            f"<td>{_lb_cell(e.get('storage_efficiency'), '.3f')}</td>"
            f"<td>{e.get('served', 'n/a')}</td>"
            f"<td>{e.get('rebuild_verified', 'n/a')}</td></tr>"
        )
    table = f'<table class="scalars">{head}{"".join(rows)}</table>'
    meta = (
        f"{len(entries)} layouts under one seeded storm + open-loop serve "
        f"mix, duration {doc.get('duration_s', float('nan')):.3f} s "
        "(simulated); ranked by availability, then rebuild makespan, "
        "then degraded p99"
    )
    return _html_page(title, meta, table)


def _check_snapshot(snapshot: dict) -> None:
    """Raise :class:`ValueError` unless every series can be plotted.

    A flight-recorder snapshot has a ``window_s`` and a ``series`` dict
    whose entries carry a ``name``, a ``labels`` dict and a list of
    ``windows``, each a dict with ``w``, ``sum`` and ``count``.
    """
    if not isinstance(snapshot.get("window_s"), (int, float)):
        raise ValueError("snapshot has no numeric window_s")
    if not isinstance(snapshot["series"], dict):
        raise ValueError("snapshot series must be an object")
    for key, entry in snapshot["series"].items():
        if not isinstance(entry, dict):
            raise ValueError(f"series {key!r} is not an object")
        missing = [k for k in ("name", "labels", "windows") if k not in entry]
        if missing:
            raise ValueError(f"series {key!r} lacks {', '.join(missing)}")
        if not isinstance(entry["labels"], dict) or not isinstance(entry["windows"], list):
            raise ValueError(f"series {key!r}: labels must be an object, windows a list")
        for win in entry["windows"]:
            if not isinstance(win, dict) or not all(k in win for k in ("w", "sum", "count")):
                raise ValueError(f"series {key!r}: a window lacks w, sum or count")


def timeseries_report_html(
    snapshot: dict, overlays=(), title: str = "Timeseries report"
) -> str:
    """A bare flight-recorder snapshot as a generic dashboard.

    One chart per metric name (one series per label set, plotting the
    window mean), fault overlays shaded behind each.  Raises
    :class:`ValueError` on an empty snapshot.
    """
    series = snapshot.get("series", {})
    if not series:
        raise ValueError(
            "snapshot has no series — was the run made with REPRO_OBS=0?"
        )
    _check_snapshot(snapshot)
    window_s = snapshot["window_s"]
    names = sorted({series[k]["name"] for k in series})
    charts = []
    for name in names:
        chart = LineChart(
            name, "simulated time (s)", "window mean", width=640, height=320
        )
        for entry in _series_by_name(snapshot, name):
            chart.add_series(
                _label_text(entry["labels"]),
                _right_edges(entry["windows"], window_s),
                [window_mean(w) for w in entry["windows"]],
            )
        charts.append(_chart_svg(chart, overlays))
    meta = (
        f"{len(series)} series, window {window_s:g} s (simulated), "
        f"schema {snapshot.get('schema', '?')}"
    )
    return _html_page(title, meta, "".join(charts))


def render_report(path, title: str | None = None) -> str:
    """Render whatever timeseries artifact lives at ``path`` to HTML.

    Dispatches on the JSON document's shape: a ``repro leaderboard
    --json`` document goes through :func:`leaderboard_report_html`, a
    ``repro serve --json`` document through :func:`serve_report_html`
    and a bare snapshot through :func:`timeseries_report_html`.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a JSON object")
    if doc.get("kind") == "leaderboard":
        return leaderboard_report_html(doc, title=title)
    if doc.get("kind") == "serve" or "traditional" in doc:
        return serve_report_html(doc, title=title)
    if "series" in doc:
        return timeseries_report_html(doc, title=title or path.name)
    raise ValueError(
        f"{path}: not a serve report or timeseries snapshot "
        "(expected `repro serve --json` output or a flight-recorder snapshot)"
    )


def write_report(path, html: str) -> Path:
    """Write rendered HTML to ``path`` and return it."""
    path = Path(path)
    path.write_text(html, encoding="utf-8")
    return path
