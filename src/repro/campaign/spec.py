"""Declarative scenario-matrix specs: one small file → many runs.

A campaign file (TOML or JSON) names a cartesian product of
:class:`~repro.experiments.scenario.ScenarioConfig` axes::

    name = "fig1-sweep"
    seed = 1           # master seed; every point derives its own
    seeds = 1          # replicates per cell (inner-most axis)
    metrics = ["delivery_fraction", "mean_latency_ms"]

    [base]             # ScenarioConfig overrides shared by every point
    sim_time = 30.0
    traffic_start = [1.0, 3.0]

    [axes]             # each key is swept; values multiply
    protocol = ["gpsr", "agfw", "agfw-noack"]
    num_nodes = [50, 75, 100, 112, 130, 150]

Multi-sweep campaigns replace ``[axes]`` with ``[[sweep]]`` entries,
each carrying its own ``axes`` (and optional ``base`` overrides and
``rows``/``cols`` report layout) — the loss and churn axes of the
robustness sweep are two sweeps of one campaign.

Every key under ``base`` / ``axes`` must be a ``ScenarioConfig`` field
(validated against the dataclass's fields, then each value against
the field's domain in ``ScenarioConfig.DOMAINS`` and the cross-field
``RULES`` when each point is materialized) or one of the two
churn conveniences ``churn_rate`` / ``churn_downtime``, which expand to
a seeded :class:`~repro.faults.plan.FaultPlan` over every node of the
point (downtime defaults to a tenth of ``sim_time``, at least 0.5 s).

Determinism contract: the point list — ordering, axis coordinates, and
every derived seed — is a pure function of the spec values.  Seeds
derive from ``seed`` and the point's sorted axis coordinates (not the
campaign name, so two campaigns sharing a cell share its cached
result), with the replicate index appended.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from itertools import product
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.domains import FixedTuple, TupleOf
from repro.experiments.scenario import ScenarioConfig
from repro.faults.plan import FaultPlan
from repro.sim.rng import derive_seed

__all__ = [
    "CampaignSpecError",
    "SweepSpec",
    "CampaignPoint",
    "CampaignSpec",
    "load_spec",
    "spec_from_mapping",
    "METRIC_NAMES",
    "axis_label",
]

#: Metric keys every stored point record carries (the report stage and
#: a spec's ``metrics`` selection are validated against this set).
METRIC_NAMES: Tuple[str, ...] = (
    "delivery_fraction",
    "mean_latency_ms",
    "latency_p50_ms",
    "latency_p95_ms",
    "sent",
    "delivered",
    "collisions",
    "overhead_ratio",
)

#: Sweepable keys that are not ScenarioConfig fields: expanded into a
#: seeded FaultPlan when the point is materialized.
SPECIAL_KEYS = ("churn_rate", "churn_downtime")

#: Fields a spec may never set directly: the campaign owns seeding
#: (``seed`` derives per point) and plans come from the churn keys.
_FORBIDDEN_FIELDS = frozenset({"seed", "fault_plan"})


class CampaignSpecError(ValueError):
    """The campaign file is malformed or names unknown config fields."""


def axis_label(value: object) -> str:
    """The printable label of one axis value, which seeds its points and
    keys its report cells: a table value reads ``key=value,...`` in key
    order, whatever order the file wrote, and anything else is its
    ``str``."""
    if isinstance(value, dict):
        return ",".join(f"{k}={value[k]}" for k in sorted(value))
    return str(value)


def _config_field_names() -> frozenset:
    return frozenset(f.name for f in dc_fields(ScenarioConfig))


def _check_keys(keys: Sequence[str], where: str) -> None:
    valid = _config_field_names()
    for key in keys:
        if key in _FORBIDDEN_FIELDS:
            raise CampaignSpecError(
                f"{where}: {key!r} is campaign-managed and cannot be set "
                "directly (seeds derive per point; churn_rate/churn_downtime "
                "expand to fault plans)"
            )
        if key not in valid and key not in SPECIAL_KEYS:
            raise CampaignSpecError(
                f"{where}: {key!r} is not a ScenarioConfig field or one of "
                f"{SPECIAL_KEYS}"
            )


@dataclass(frozen=True)
class SweepSpec:
    """One matrix of the campaign: axes x values, with report layout."""

    name: str
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]
    base: Tuple[Tuple[str, object], ...] = ()
    rows: Optional[str] = None
    cols: Optional[str] = None

    def axis_names(self) -> List[str]:
        return [name for name, _values in self.axes]


@dataclass(frozen=True)
class CampaignPoint:
    """One cell instance of the matrix: axis coordinates + replicate."""

    sweep: str
    axes: Tuple[Tuple[str, object], ...]
    seed_index: int
    config: ScenarioConfig

    @property
    def label(self) -> str:
        coords = " ".join(f"{k}={axis_label(v)}" for k, v in self.axes)
        return f"{self.sweep}: {coords} rep={self.seed_index}"


@dataclass(frozen=True)
class CampaignSpec:
    """A fully validated campaign: sweeps over ScenarioConfig axes."""

    name: str
    seed: int = 1
    seeds: int = 1
    metrics: Tuple[str, ...] = ("delivery_fraction", "mean_latency_ms")
    base: Tuple[Tuple[str, object], ...] = ()
    sweeps: Tuple[SweepSpec, ...] = dc_field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.seeds < 1:
            raise CampaignSpecError("seeds must be >= 1")
        if not self.sweeps:
            raise CampaignSpecError("campaign defines no axes/sweeps")
        for metric in self.metrics:
            if metric not in METRIC_NAMES:
                raise CampaignSpecError(
                    f"unknown metric {metric!r}; known: {', '.join(METRIC_NAMES)}"
                )
        _check_keys([k for k, _v in self.base], "base")
        seen = set()
        for sweep in self.sweeps:
            if sweep.name in seen:
                raise CampaignSpecError(f"duplicate sweep name {sweep.name!r}")
            seen.add(sweep.name)
            _check_keys([k for k, _v in sweep.base], f"sweep {sweep.name!r} base")
            if not sweep.axes:
                raise CampaignSpecError(f"sweep {sweep.name!r} has no axes")
            for axis, values in sweep.axes:
                _check_keys([axis], f"sweep {sweep.name!r} axes")
                if not values:
                    raise CampaignSpecError(
                        f"sweep {sweep.name!r} axis {axis!r} has no values"
                    )
            for layout in (sweep.rows, sweep.cols):
                if layout is not None and layout not in sweep.axis_names():
                    raise CampaignSpecError(
                        f"sweep {sweep.name!r}: rows/cols {layout!r} is not "
                        "one of its axes"
                    )

    # ------------------------------------------------------------- points
    def points(self) -> List[CampaignPoint]:
        """The full matrix in canonical order: sweeps as declared, axis
        values in declared order (first axis outermost), replicate index
        innermost.  Pure function of the spec."""
        out: List[CampaignPoint] = []
        for sweep in self.sweeps:
            names = sweep.axis_names()
            for combo in product(*(values for _name, values in sweep.axes)):
                coords = tuple(zip(names, combo))
                for rep in range(self.seeds):
                    out.append(
                        CampaignPoint(
                            sweep=sweep.name,
                            axes=coords,
                            seed_index=rep,
                            config=self._build_config(sweep, coords, rep),
                        )
                    )
        return out

    def _build_config(
        self,
        sweep: SweepSpec,
        coords: Tuple[Tuple[str, object], ...],
        seed_index: int,
    ) -> ScenarioConfig:
        merged: Dict[str, object] = {}
        merged.update(dict(self.base))
        merged.update(dict(sweep.base))
        merged.update(dict(coords))
        churn_rate = merged.pop("churn_rate", 0.0) or 0.0
        churn_downtime = merged.pop("churn_downtime", None)
        # TOML/JSON have lists only: a tuple-domain field's list form (and
        # its list entries) become tuples.
        for key, value in list(merged.items()):
            if isinstance(ScenarioConfig.DOMAINS[key], (FixedTuple, TupleOf)) and isinstance(
                value, list
            ):
                merged[key] = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        # The point seed: master seed + sorted axis coordinates +
        # replicate.  Sweep/campaign names stay out so identical cells
        # are identical content — the cache's whole point.
        coord_label = ",".join(f"{k}={axis_label(v)}" for k, v in sorted(coords))
        point_seed = derive_seed(self.seed, f"campaign:{coord_label}:rep{seed_index}")
        merged["seed"] = point_seed
        try:
            config = ScenarioConfig(**merged)
            # A rate of 0 is no churn at all (no plan, so the digest is a
            # churn-free point's); a negative or NaN rate reaches churn()
            # and fails there.  A given downtime must be valid with or
            # without a rate, or a bad axis expands to churn-free points.
            rate = float(churn_rate)
            downtime = max(config.sim_time / 10.0, 0.5)
            if churn_downtime is not None:
                downtime = float(churn_downtime)
                if not 0 < downtime < math.inf:
                    raise ValueError(
                        f"churn_downtime: mean_downtime must be positive and finite, "
                        f"got {downtime}"
                    )
            if rate != 0.0:
                plan = FaultPlan.churn(
                    range(config.num_nodes),
                    sim_time=config.sim_time,
                    seed=derive_seed(point_seed, "campaign:churn"),
                    rate=rate,
                    mean_downtime=downtime,
                )
                config = ScenarioConfig(**{**merged, "fault_plan": plan})
        except (TypeError, ValueError) as exc:
            raise CampaignSpecError(
                f"sweep {sweep.name!r} point ({coord_label}) does not form a "
                f"valid ScenarioConfig: {exc}"
            ) from exc
        return config


# ------------------------------------------------------------------ loading
def _items(mapping: Mapping[str, object], where: str) -> Tuple[Tuple[str, object], ...]:
    if not isinstance(mapping, Mapping):
        raise CampaignSpecError(f"{where} must be a table/object")
    return tuple(mapping.items())


def _axes_items(
    mapping: Mapping[str, object], where: str
) -> Tuple[Tuple[str, Tuple[object, ...]], ...]:
    if not isinstance(mapping, Mapping):
        raise CampaignSpecError(f"{where} must be a table/object")
    axes = []
    for axis, values in mapping.items():
        if not isinstance(values, list):
            raise CampaignSpecError(
                f"{where}: axis {axis!r} must map to a list of values"
            )
        axes.append((axis, tuple(values)))
    return tuple(axes)


def spec_from_mapping(data: Mapping[str, object], default_name: str = "campaign") -> CampaignSpec:
    """Build a validated :class:`CampaignSpec` from parsed TOML/JSON."""
    if not isinstance(data, Mapping):
        raise CampaignSpecError("campaign file must contain a table/object")
    known = {"name", "seed", "seeds", "metrics", "base", "axes", "sweep"}
    unknown = sorted(set(data) - known)
    if unknown:
        raise CampaignSpecError(f"unknown top-level keys: {', '.join(unknown)}")
    if "axes" in data and "sweep" in data:
        raise CampaignSpecError("use either top-level [axes] or [[sweep]] tables, not both")
    sweeps: List[SweepSpec] = []
    if "axes" in data:
        sweeps.append(SweepSpec(name="axes", axes=_axes_items(data["axes"], "axes")))
    for index, entry in enumerate(data.get("sweep", ())):
        if not isinstance(entry, Mapping):
            raise CampaignSpecError("each [[sweep]] must be a table")
        extra = sorted(set(entry) - {"name", "base", "axes", "rows", "cols"})
        if extra:
            raise CampaignSpecError(
                f"sweep #{index}: unknown keys: {', '.join(extra)}"
            )
        name = str(entry.get("name", f"sweep{index}"))
        sweeps.append(
            SweepSpec(
                name=name,
                axes=_axes_items(entry.get("axes", {}), f"sweep {name!r} axes"),
                base=_items(entry.get("base", {}), f"sweep {name!r} base"),
                rows=entry.get("rows"),
                cols=entry.get("cols"),
            )
        )
    metrics = data.get("metrics", ["delivery_fraction", "mean_latency_ms"])
    if not isinstance(metrics, list) or not metrics:
        raise CampaignSpecError("metrics must be a non-empty list")
    return CampaignSpec(
        name=str(data.get("name", default_name)),
        seed=int(data.get("seed", 1)),
        seeds=int(data.get("seeds", 1)),
        metrics=tuple(metrics),
        base=_items(data.get("base", {}), "base"),
        sweeps=tuple(sweeps),
    )


def load_spec(path: object) -> CampaignSpec:
    """Parse a campaign file (``.toml`` or ``.json``) into a spec."""
    spec_path = pathlib.Path(path)  # type: ignore[arg-type]
    text = spec_path.read_text(encoding="utf-8")
    if spec_path.suffix == ".json":
        data = json.loads(text)
    elif spec_path.suffix == ".toml":
        import tomllib

        data = tomllib.loads(text)
    else:
        raise CampaignSpecError(
            f"campaign file must be .toml or .json, got {spec_path.name!r}"
        )
    return spec_from_mapping(data, default_name=spec_path.stem)
