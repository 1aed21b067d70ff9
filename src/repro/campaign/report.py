"""Deterministic stats/report stage over a completed campaign store.

For every sweep the report renders, per metric:

* an aligned **rows x cols table** (cells average the seed replicates —
  the honest value when ``seeds > 1``, the raw value when ``seeds=1``);
* **crossover lines** — for each column pair, the row intervals where
  their ordering flips (the Fig. 1 "GPSR's latency overtakes AGFW past
  112 nodes" class of claim, detected mechanically);
* a **percentile block** — n/mean/p50/p95/min/max per column (per row
  when the sweep has no column axis) over all cells x seeds
  (:mod:`repro.metrics.stats`, which rejects NaN/inf);
* when the spec's metrics include ``overhead_ratio``, each cell's stored
  **bytes by packet kind** in KiB, the mean over seeds.

Cells, rows and columns are keyed by
:func:`~repro.campaign.spec.axis_label`, so an axis whose values are
tables (``agfw_overrides``) reads ``key=value``.

Everything is a pure function of (spec, stored records): no wall clock,
no filesystem order, no float repr ambiguity — so a report after an
interrupted-and-resumed parallel campaign is byte-identical to one after
a cold sequential run.  That property is pinned by tests and the CI
smoke job.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.digest import config_digest
from repro.campaign.spec import CampaignPoint, CampaignSpec, SweepSpec, axis_label
from repro.campaign.store import ResultStore
from repro.metrics.stats import percentile

__all__ = ["IncompleteCampaignError", "campaign_report"]

#: Cell renderings per metric (default: general format), right-aligned
#: to the column width.
_CELL_FORMATS = {
    "delivery_fraction": "{:.3f}",
    "mean_latency_ms": "{:.2f}",
    "latency_p50_ms": "{:.2f}",
    "latency_p95_ms": "{:.2f}",
    "overhead_ratio": "{:.3f}",
    "sent": "{:d}",
    "delivered": "{:d}",
    "collisions": "{:d}",
    "kib": "{:.1f}",
}
_WIDTH = 12


class IncompleteCampaignError(RuntimeError):
    """The store is missing points; run the campaign (again) first."""


def _cell(metric: str, value: Optional[float], width: int = _WIDTH) -> str:
    if value is None:
        return " " * width
    fmt = _CELL_FORMATS.get(metric, "{:.4g}")
    if fmt.endswith("d}"):
        return fmt.format(int(value)).rjust(width)
    return fmt.format(float(value)).rjust(width)


def _width(labels: Sequence[str]) -> int:
    """A column wide enough for every label plus one space."""
    return max([_WIDTH] + [len(label) + 1 for label in labels])


def _layout(sweep: SweepSpec) -> Tuple[str, Optional[str], List[str]]:
    """(rows axis, cols axis or None, panel axes) for one sweep."""
    names = sweep.axis_names()
    cols = sweep.cols
    if cols is None and "protocol" in names and len(names) > 1:
        cols = "protocol"
    rows = sweep.rows
    if rows is None:
        rows = next((n for n in names if n != cols), names[0])
    if cols == rows:
        cols = None
    panels = [n for n in names if n not in (rows, cols)]
    return rows, cols, panels


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _mean_of(seeds: int) -> str:
    return f"mean of {seeds} seed{'s' if seeds != 1 else ''}"


def _crossover_lines(
    metric: str,
    rows_axis: str,
    row_labels: Sequence[str],
    col_names: Sequence[str],
    cells: Dict[Tuple[str, str], Optional[float]],
) -> List[str]:
    """Where the ordering of two columns flips along the row axis."""
    lines: List[str] = []
    for a, b in combinations(col_names, 2):
        previous: Optional[Tuple[int, str]] = None
        for row in row_labels:
            va, vb = cells.get((row, a)), cells.get((row, b))
            if va is None or vb is None:
                continue
            sign = (va > vb) - (va < vb)
            if sign == 0:
                continue
            if previous is not None and sign != previous[0]:
                lines.append(
                    f"crossover[{metric}]: {a} vs {b} flips between "
                    f"{rows_axis}={previous[1]} and {rows_axis}={row}"
                )
            previous = (sign, row)
    return lines


def _percentile_block(
    metric: str,
    groups: Sequence[str],
    samples: Dict[str, List[float]],
) -> List[str]:
    title = f"{metric} percentiles"
    width = max([len(title)] + [len(group) + 1 for group in groups])
    lines = [
        f"{title:<{width}}"
        + f"{'n':>8}{'mean':>12}{'p50':>12}{'p95':>12}{'min':>12}{'max':>12}"
    ]
    for group in groups:
        values = samples.get(group, [])
        if not values:
            continue
        lines.append(
            f"{group:<{width}}"
            + f"{len(values):>8d}"
            + _cell(metric, _mean(values))
            + _cell(metric, percentile(values, 50))
            + _cell(metric, percentile(values, 95))
            + _cell(metric, min(values))
            + _cell(metric, max(values))
        )
    return lines


def _bytes_by_kind_block(
    rows_axis: str, seeds: int, by_cell: Dict[str, List[Dict[str, int]]]
) -> List[str]:
    """Stored network-layer bytes by packet kind per cell, in KiB: the
    mean over the cell's seeds (a seed that sent no such packet counts 0)."""
    kinds = sorted({kind for sent in by_cell.values() for by_kind in sent for kind in by_kind})
    label_w = _width([rows_axis, *by_cell])
    cell_w = _width(kinds)
    lines = [
        f"bytes_by_kind KiB ({rows_axis} x kind, {_mean_of(seeds)})",
        f"{rows_axis:>{label_w}}" + "".join(f"{kind:>{cell_w}}" for kind in kinds),
    ]
    for label, sent in by_cell.items():
        rendered = "".join(
            _cell("kib", _mean([b.get(kind, 0) for b in sent]) / 1024.0, cell_w)
            if any(kind in b for b in sent)
            else _cell("kib", None, cell_w)
            for kind in kinds
        )
        lines.append((f"{label:>{label_w}}" + rendered).rstrip())
    return lines


def _sweep_section(
    spec: CampaignSpec,
    sweep: SweepSpec,
    records: Dict[str, Dict[str, object]],
    points: Sequence[Tuple[CampaignPoint, str]],
) -> List[str]:
    rows_axis, cols_axis, panel_axes = _layout(sweep)
    axes = dict(sweep.axes)
    row_labels = [axis_label(v) for v in axes[rows_axis]]
    col_names = [axis_label(v) for v in axes[cols_axis]] if cols_axis else ["value"]
    # Percentiles summarise each column; with no column axis, each row.
    groups = col_names if cols_axis else row_labels
    label_w = _width([rows_axis, *row_labels])
    cell_w = _width(col_names)
    panel_combos = list(product(*(axes[name] for name in panel_axes)))

    # Each point's axis labels, in the sweep's canonical point order.
    sweep_points = [
        ({k: axis_label(v) for k, v in p.axes}, records[d])
        for p, d in points
        if p.sweep == sweep.name
    ]
    lines: List[str] = []
    for combo in panel_combos:
        panel_sel = {k: axis_label(v) for k, v in zip(panel_axes, combo)}
        title = f"## sweep {sweep.name!r}"
        if panel_sel:
            title += " [" + ", ".join(f"{k}={v}" for k, v in panel_sel.items()) + "]"
        lines.append(title)
        panel_points = [
            (coords, record)
            for coords, record in sweep_points
            if all(coords[k] == v for k, v in panel_sel.items())
        ]
        # Cell samples: (row label, column label) -> all replicate values.
        for metric in spec.metrics:
            samples: Dict[Tuple[str, str], List[float]] = {}
            group_samples: Dict[str, List[float]] = {}
            for coords, record in panel_points:
                row = coords[rows_axis]
                col = coords[cols_axis] if cols_axis else "value"
                value = record["metrics"].get(metric)  # type: ignore[union-attr]
                if value is None:
                    continue
                samples.setdefault((row, col), []).append(float(value))
                group_samples.setdefault(col if cols_axis else row, []).append(float(value))
            cells: Dict[Tuple[str, str], Optional[float]] = {
                key: _mean(values) for key, values in samples.items()
            }
            lines.append("")
            lines.append(f"{metric} ({rows_axis} x {cols_axis or 'value'}, {_mean_of(spec.seeds)})")
            header = f"{rows_axis:>{label_w}}" + "".join(f"{c:>{cell_w}}" for c in col_names)
            lines.append(header)
            for row in row_labels:
                rendered = "".join(
                    _cell(metric, cells.get((row, col)), cell_w) for col in col_names
                )
                lines.append(f"{row:>{label_w}}" + rendered)
            lines.extend(
                _crossover_lines(metric, rows_axis, row_labels, col_names, cells)
            )
            if len(group_samples.get(groups[0], [])) > 1:
                lines.append("")
                lines.extend(_percentile_block(metric, groups, group_samples))
        if "overhead_ratio" in spec.metrics:
            by_cell: Dict[str, List[Dict[str, int]]] = {}
            for coords, record in panel_points:
                label = coords[rows_axis] + (f"/{coords[cols_axis]}" if cols_axis else "")
                by_cell.setdefault(label, []).append(record["bytes_by_kind"])  # type: ignore[arg-type]
            lines.append("")
            lines.extend(_bytes_by_kind_block(rows_axis, spec.seeds, by_cell))
        lines.append("")
    return lines


def campaign_report(spec: CampaignSpec, store: ResultStore) -> str:
    """Render the full campaign report; raises when points are missing."""
    points = [(point, config_digest(point.config)) for point in spec.points()]
    records: Dict[str, Dict[str, object]] = {}
    missing: List[str] = []
    for point, digest in points:
        record = store.get(digest)
        if record is None:
            missing.append(point.label)
        else:
            records[digest] = record
    if missing:
        raise IncompleteCampaignError(
            f"{len(missing)} of {len(points)} points missing from "
            f"{store.root} (first: {missing[0]}); run the campaign first"
        )
    cells = len(points) // spec.seeds if spec.seeds else 0
    lines = [
        f"# campaign {spec.name!r} — {len(points)} points "
        f"({cells} cells x {spec.seeds} seed"
        f"{'s' if spec.seeds != 1 else ''}), master seed {spec.seed}",
        "",
    ]
    for sweep in spec.sweeps:
        lines.extend(_sweep_section(spec, sweep, records, points))
    return "\n".join(lines).rstrip("\n") + "\n"
