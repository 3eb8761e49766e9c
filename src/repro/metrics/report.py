"""Self-contained single-file HTML report over metrics artifacts.

``python -m repro.metrics.report <dir>`` folds every
``*.metrics.jsonl`` in a directory (plus ``kernel_profile.json`` when
``--profile`` produced one) into one HTML file: per-run timeline
charts (power-gate duty, link utilization, injection / bypass rates),
per-router OFF-duty heatmaps and idle-period/BET histograms, all as
inline SVG.  No scripts, no fonts, no fetches - the file renders
offline and can be attached to an issue or CI artifact as-is.
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .sampler import NET_SERIES, off_fraction_by_node

#: Timeline series shown per run, with their fixed categorical slots
#: (identity follows the series, never its rank).
TIMELINE_SERIES = (
    ("off_fraction", "router OFF", "var(--series-1)"),
    ("link_utilization", "link util", "var(--series-2)"),
    ("inject_rate", "inject rate", "var(--series-3)"),
    ("bypass_rate", "bypass rate", "var(--series-4)"),
)

#: Sequential blue ramp (light -> dark) for the OFF-duty heatmap.
HEAT_RAMP = ("#cde2fb", "#9ec5f4", "#6da7ec", "#3987e5",
             "#2a78d6", "#256abf", "#1c5cab", "#104281")

_CSS = """
:root { color-scheme: light; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --axis: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834;
  --series-3: #1baf7a; --series-4: #eda100;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary); background: var(--page);
  margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --axis: #383835;
    --series-1: #3987e5; --series-2: #d95926;
    --series-3: #199e70; --series-4: #c98500;
  }
}
.viz-root h1 { font-size: 20px; margin: 0 0 4px; }
.viz-root h2 { font-size: 15px; margin: 24px 0 2px; }
.viz-root .sub, .viz-root .meta { color: var(--text-secondary);
  font-size: 12px; margin: 0 0 8px; }
.viz-root figure { display: inline-block; vertical-align: top;
  background: var(--surface-1); border: 1px solid var(--grid);
  border-radius: 6px; padding: 10px; margin: 0 12px 12px 0; }
.viz-root figcaption { color: var(--text-secondary); font-size: 11px;
  padding-top: 4px; }
.viz-root .legend { font-size: 11px; color: var(--text-secondary);
  margin: 2px 0 6px; }
.viz-root .legend .swatch { display: inline-block; width: 9px;
  height: 9px; border-radius: 2px; margin: 0 4px 0 10px; }
.viz-root details { font-size: 11px; color: var(--text-secondary);
  margin: 0 0 10px; }
.viz-root table { border-collapse: collapse; font-size: 11px; }
.viz-root td, .viz-root th { border: 1px solid var(--grid);
  padding: 2px 6px; text-align: right;
  font-variant-numeric: tabular-nums; }
.viz-root footer { color: var(--muted); font-size: 11px;
  margin-top: 16px; }
.viz-root svg text { fill: var(--text-secondary); font-size: 10px; }
.viz-root svg .tick { stroke: var(--grid); stroke-width: 1; }
.viz-root svg .axis { stroke: var(--axis); stroke-width: 1; }
.viz-root svg .series { fill: none; stroke-width: 2;
  stroke-linejoin: round; }
.viz-root svg .label { font-size: 10px; }
"""


@dataclass
class RunSeries:
    """One instrumented run, decoded from its ``.metrics.jsonl``."""

    meta: Dict[str, object]
    cycles: List[int] = field(default_factory=list)
    windows: List[int] = field(default_factory=list)
    net: Dict[str, List[float]] = field(default_factory=dict)
    node_off: List[List[int]] = field(default_factory=list)
    summary: Dict[str, dict] = field(default_factory=dict)
    source: str = ""

    @property
    def label(self) -> str:
        t = self.meta.get("traffic") or {}
        parts = [str(self.meta.get("design", "?"))]
        if t.get("kind"):
            desc = str(t["kind"])
            if t.get("benchmark"):
                desc = str(t["benchmark"])
            elif t.get("rate"):
                desc += f" @ {t['rate']:g}"
            parts.append(desc)
        parts.append(f"{self.meta.get('width')}x{self.meta.get('height')}")
        return " · ".join(parts)

    def mean_off_by_node(self) -> List[float]:
        return off_fraction_by_node(self.windows, self.node_off)


def load_run(path: Path) -> RunSeries:
    run = RunSeries(meta={}, net={k: [] for k in NET_SERIES},
                    source=path.name)
    with path.open() as fh:
        for line in fh:
            obj = json.loads(line)
            if "meta" in obj:
                run.meta = obj["meta"]
            elif "summary" in obj:
                run.summary = obj["summary"]
            else:
                run.cycles.append(obj["cycle"])
                run.windows.append(obj["window"])
                for k in NET_SERIES:
                    run.net[k].append(obj["net"].get(k, 0.0))
                run.node_off.append(obj.get("node_off", []))
    return run


def load_runs(directory: Path) -> List[RunSeries]:
    return [load_run(p)
            for p in sorted(Path(directory).glob("*.metrics.jsonl"))]


# -- SVG builders ----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _scale(values: Sequence[float], lo: float, hi: float, vmin: float,
           vmax: float) -> List[float]:
    span = (vmax - vmin) or 1.0
    return [lo + (v - vmin) / span * (hi - lo) for v in values]


def timeline_svg(run: RunSeries, width: int = 520,
                 height: int = 170) -> str:
    ml, mr, mt, mb = 36, 64, 8, 22
    px0, px1 = ml, width - mr
    py0, py1 = height - mb, mt
    xs = run.cycles or [0]
    vmax = max([0.0001] + [v for key, _, _ in TIMELINE_SERIES
                           for v in run.net.get(key, [])])
    vmax = 1.0 if vmax <= 1.0 else float(int(vmax) + 1)
    sx = _scale(xs, px0, px1, xs[0], xs[-1] if xs[-1] != xs[0]
                else xs[0] + 1)
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="timeline for {html.escape(run.label)}">']
    for frac in (0.0, 0.5, 1.0):
        y = py0 + (py1 - py0) * frac
        cls = "axis" if frac == 0.0 else "tick"
        parts.append(f'<line class="{cls}" x1="{px0}" y1="{_fmt(y)}" '
                     f'x2="{px1}" y2="{_fmt(y)}"/>')
        parts.append(f'<text x="{px0 - 4}" y="{_fmt(y + 3)}" '
                     f'text-anchor="end">{_fmt(vmax * frac)}</text>')
    for i in (0, len(xs) - 1):
        parts.append(f'<text x="{_fmt(sx[i])}" y="{height - 8}" '
                     f'text-anchor="middle">{xs[i]}</text>')
    parts.append(f'<text x="{(px0 + px1) // 2}" y="{height - 8}" '
                 f'text-anchor="middle">cycle</text>')
    for key, label, color in TIMELINE_SERIES:
        ys = run.net.get(key, [])
        if not ys:
            continue
        sy = _scale(ys, py0, py1, 0.0, vmax)
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(sx, sy))
        parts.append(f'<polyline class="series" stroke="{color}" '
                     f'points="{pts}"><title>{html.escape(label)}'
                     f'</title></polyline>')
        # Direct label at the line's end (identity never rides on color
        # alone; the text itself stays in ink tokens).
        parts.append(f'<text class="label" x="{px1 + 4}" '
                     f'y="{_fmt(sy[-1] + 3)}">{html.escape(label)}</text>')
    parts.append("</svg>")
    return "".join(parts)


def heatmap_svg(run: RunSeries, cell: int = 26) -> str:
    values = run.mean_off_by_node()
    w = int(run.meta.get("width") or 0)
    h = int(run.meta.get("height") or 0)
    if not values or w * h != len(values):
        return ""
    pad = 16
    width, height = w * cell + 2 * pad, h * cell + 2 * pad
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="per-router OFF duty heatmap">']
    for node, v in enumerate(values):
        x = pad + (node % w) * cell
        y = pad + (node // w) * cell
        color = HEAT_RAMP[min(len(HEAT_RAMP) - 1,
                              int(v * len(HEAT_RAMP)))]
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell - 2}" '
            f'height="{cell - 2}" rx="3" fill="{color}">'
            f'<title>router {node}: OFF {v:.1%}</title></rect>')
    parts.append("</svg>")
    return "".join(parts)


def idle_hist_svg(run: RunSeries, width: int = 300,
                  height: int = 140) -> str:
    hists = run.summary.get("histograms", {})
    hist = hists.get('idle_period_cycles{kind="completed"}')
    if not hist or not hist.get("total"):
        return ""
    bounds = hist["bounds"]
    counts = hist["counts"]
    labels = [f"<={_fmt(b)}" for b in bounds] + ["inf"]
    peak = max(counts) or 1
    ml, mb, mt = 8, 26, 8
    bw = (width - 2 * ml) / len(counts)
    bet = run.meta.get("breakeven_time")
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="idle-period histogram">']
    parts.append(f'<line class="axis" x1="{ml}" y1="{height - mb}" '
                 f'x2="{width - ml}" y2="{height - mb}"/>')
    for i, count in enumerate(counts):
        bh = (height - mb - mt) * count / peak
        x = ml + i * bw
        y = height - mb - bh
        parts.append(
            f'<rect x="{_fmt(x + 1)}" y="{_fmt(y)}" '
            f'width="{_fmt(bw - 2)}" height="{_fmt(bh)}" rx="2" '
            f'fill="var(--series-1)"><title>{labels[i]} cycles: '
            f'{count} periods</title></rect>')
        parts.append(f'<text x="{_fmt(x + bw / 2)}" y="{height - 12}" '
                     f'text-anchor="middle">{labels[i]}</text>')
        if bet is not None and i < len(bounds) and bounds[i] == bet:
            parts.append(f'<text x="{_fmt(x + bw / 2)}" y="{mt + 2}" '
                         f'text-anchor="middle">BET</text>')
    parts.append("</svg>")
    return "".join(parts)


def profile_svg(profile: Dict[str, object], width: int = 300) -> str:
    phases = profile.get("phases", [])
    if not phases:
        return ""
    row_h, ml, mr = 18, 56, 48
    height = len(phases) * row_h + 12
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'aria-label="kernel-phase occupancy">']
    for i, row in enumerate(phases):
        y = 8 + i * row_h
        occ = float(row.get("occupancy", 0.0))
        bw = (width - ml - mr) * min(1.0, occ)
        parts.append(f'<text x="{ml - 6}" y="{y + 11}" '
                     f'text-anchor="end">{html.escape(str(row["phase"]))}'
                     f'</text>')
        parts.append(f'<rect x="{ml}" y="{y + 2}" width="{_fmt(bw)}" '
                     f'height="12" rx="2" fill="var(--series-1)"/>')
        parts.append(f'<text x="{_fmt(ml + bw + 4)}" y="{y + 11}">'
                     f'{occ:.3f}</text>')
    parts.append("</svg>")
    return "".join(parts)


# -- page assembly ---------------------------------------------------------

def _legend() -> str:
    spans = "".join(
        f'<span class="swatch" style="background:{color}"></span>'
        f'{html.escape(label)}'
        for _, label, color in TIMELINE_SERIES)
    return f'<p class="legend">{spans}</p>'


def _run_table(run: RunSeries, limit: int = 50) -> str:
    head = "".join(f"<th>{html.escape(k)}</th>"
                   for k in ("cycle",) + NET_SERIES)
    rows = []
    for i in range(0, len(run.cycles), max(1, len(run.cycles) // limit
                                           or 1)):
        cells = [str(run.cycles[i])] + [_fmt(run.net[k][i])
                                        for k in NET_SERIES]
        rows.append("<tr>" + "".join(f"<td>{c}</td>" for c in cells)
                    + "</tr>")
    return (f"<details><summary>data table ({len(run.cycles)} "
            f"snapshots)</summary><table><tr>{head}</tr>"
            + "".join(rows) + "</table></details>")


def _run_section(run: RunSeries) -> str:
    meta = run.meta
    bits = [f"sampled every {meta.get('interval')} cycles",
            f"{len(run.cycles)} snapshots"]
    if meta.get("measure_start") is not None:
        bits.append(f"measured [{meta['measure_start']}, "
                    f"{meta.get('measure_end')}]")
    parts = [f"<section><h2>{html.escape(run.label)}</h2>",
             f'<p class="meta">{" · ".join(bits)} · '
             f'{html.escape(run.source)}</p>', _legend()]
    parts.append(f"<figure>{timeline_svg(run)}"
                 f"<figcaption>windowed rates over time</figcaption>"
                 f"</figure>")
    heat = heatmap_svg(run)
    if heat:
        parts.append(f"<figure>{heat}<figcaption>per-router OFF duty "
                     f"(light = rarely gated, dark = mostly off)"
                     f"</figcaption></figure>")
    hist = idle_hist_svg(run)
    if hist:
        parts.append(f"<figure>{hist}<figcaption>completed idle "
                     f"periods vs BET</figcaption></figure>")
    parts.append(_run_table(run))
    parts.append("</section>")
    return "".join(parts)


def render_html(runs: Sequence[RunSeries],
                profile: Optional[Dict[str, object]] = None,
                title: str = "NoRD telemetry report") -> str:
    body = [f"<header><h1>{html.escape(title)}</h1>",
            f'<p class="sub">{len(runs)} instrumented run(s)</p>'
            "</header>"]
    for run in runs:
        body.append(_run_section(run))
    if profile:
        body.append(
            "<section><h2>cycle-kernel profile</h2>"
            f'<p class="meta">{profile.get("cycles")} profiled cycles; '
            "mean active-set occupancy per phase</p>"
            f"<figure>{profile_svg(profile)}</figure></section>")
    body.append("<footer>self-contained report - inline SVG only, no "
                "external requests; regenerate with "
                "<code>python -m repro.metrics.report</code></footer>")
    return ("<!doctype html><html><head><meta charset=\"utf-8\">"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_CSS}</style></head>"
            f'<body class="viz-root">{"".join(body)}</body></html>')


def write_report(directory, out=None, title: Optional[str] = None) -> Path:
    """Build ``report.html`` from a metrics directory; returns its path."""
    directory = Path(directory)
    runs = load_runs(directory)
    profile = None
    profile_path = directory / "kernel_profile.json"
    if profile_path.is_file():
        profile = json.loads(profile_path.read_text())
    out = Path(out) if out is not None else directory / "report.html"
    out.write_text(render_html(
        runs, profile=profile,
        title=title or "NoRD telemetry report"))
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics.report",
        description="fold *.metrics.jsonl artifacts into one "
                    "self-contained HTML report")
    parser.add_argument("directory", help="metrics artifact directory")
    parser.add_argument("-o", "--out", default=None,
                        help="output path (default: DIR/report.html)")
    parser.add_argument("--title", default=None)
    args = parser.parse_args(argv)
    directory = Path(args.directory)
    if not directory.is_dir():
        parser.error(f"not a directory: {directory}")
    out = write_report(directory, args.out, args.title)
    print(f"[metrics] report: {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
