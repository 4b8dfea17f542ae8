"""Per-model SSD failure statistics and raw bit error rate curves.

A profile bundles the field statistics of one drive model (fraction of
drives that develop bad chips / bad blocks over a four year mission,
median and mean bad block counts among affected drives) together with a
wear-out limit and a RBER-vs-P/E curve.  Profiles drive both pool
generation and the per-hour bad symbol rate used by the simulator.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

MISSION_HOURS = 35_040  # four year mission at 24/7 duty

TECHNOLOGIES = ("MLC", "SLC")


class ProfileError(ValueError):
    """Invalid profile or curve data."""


@dataclass(frozen=True)
class RberCurve:
    """Raw bit error rate as a function of program/erase cycles.

    points: ascending (pe_cycles, rber) pairs. Lookup is piecewise
    linear and clamps outside the covered P/E range.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise ProfileError("rber curve needs at least two points")
        xs = [p for p, _ in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ProfileError("rber curve pe_cycles must be strictly increasing")
        if any(r <= 0 for _, r in self.points):
            raise ProfileError("rber values must be positive")


@dataclass(frozen=True)
class SsdModelProfile:
    """Field statistics and wear parameters for one drive model."""

    name: str
    technology: str  # "MLC" or "SLC"
    pct_bad_chip: float  # fraction of drives developing a bad chip in-mission
    pct_bad_block: float  # fraction of drives developing >=1 mission bad block
    median_bb: int  # median bad block count among drives having bad blocks
    mean_bb: float  # mean bad block count among drives having bad blocks
    factory_bb_mean: float
    factory_bb_std: float
    wol: int  # wear-out limit in P/E cycles
    bb_escalation_threshold: int  # prior bad blocks before arrivals speed up
    bb_escalation_factor: float
    rber_curve: RberCurve

    def __post_init__(self):
        if self.technology not in TECHNOLOGIES:
            raise ProfileError(f"unknown technology {self.technology!r}")
        for field_name in ("pct_bad_chip", "pct_bad_block"):
            v = getattr(self, field_name)
            if not 0.0 <= v <= 1.0:
                raise ProfileError(f"{field_name} must be within [0, 1], got {v}")
        if self.median_bb < 1:
            raise ProfileError("median_bb must be >= 1")
        if self.mean_bb < self.median_bb:
            raise ProfileError("mean_bb must be >= median_bb")
        if self.factory_bb_mean < 0 or self.factory_bb_std < 0:
            raise ProfileError("factory bad block parameters must be >= 0")
        if self.wol <= 0:
            raise ProfileError("wol must be positive")
        if self.bb_escalation_threshold < 1:
            raise ProfileError("bb_escalation_threshold must be >= 1")
        if self.bb_escalation_factor < 1:
            raise ProfileError("bb_escalation_factor must be >= 1")


_PROFILE_FIELDS = [
    "name",
    "technology",
    "pct_bad_chip",
    "pct_bad_block",
    "median_bb",
    "mean_bb",
    "factory_bb_mean",
    "factory_bb_std",
    "wol",
    "bb_escalation_threshold",
    "bb_escalation_factor",
    "rber_curve_path",
]


def load_rber_curve(path: str | Path) -> RberCurve:
    """Read a pe_cycles,rber CSV into a curve."""
    path = Path(path)
    points = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["pe_cycles", "rber"]:
            raise ProfileError(f"{path}: expected header 'pe_cycles,rber'")
        for i, row in enumerate(reader, start=2):
            try:
                points.append((float(row["pe_cycles"]), float(row["rber"])))
            except (TypeError, ValueError) as exc:
                raise ProfileError(f"{path}:{i}: bad row {row}") from exc
    return RberCurve(points=tuple(points))


def load_profiles(path: str | Path) -> list[SsdModelProfile]:
    """Read a profile CSV; rber_curve_path entries resolve relative to it."""
    path = Path(path)
    base = path.parent
    profiles = []
    curves: dict[str, RberCurve] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _PROFILE_FIELDS:
            raise ProfileError(
                f"{path}: bad header, expected {','.join(_PROFILE_FIELDS)}"
            )
        for i, row in enumerate(reader, start=2):
            try:
                curve_rel = row["rber_curve_path"]
                if curve_rel not in curves:
                    curves[curve_rel] = load_rber_curve(base / curve_rel)
                profiles.append(
                    SsdModelProfile(
                        name=row["name"],
                        technology=row["technology"],
                        pct_bad_chip=float(row["pct_bad_chip"]),
                        pct_bad_block=float(row["pct_bad_block"]),
                        median_bb=int(row["median_bb"]),
                        mean_bb=float(row["mean_bb"]),
                        factory_bb_mean=float(row["factory_bb_mean"]),
                        factory_bb_std=float(row["factory_bb_std"]),
                        wol=int(row["wol"]),
                        bb_escalation_threshold=int(row["bb_escalation_threshold"]),
                        bb_escalation_factor=float(row["bb_escalation_factor"]),
                        rber_curve=curves[curve_rel],
                    )
                )
            except ProfileError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ProfileError(f"{path}:{i}: bad row {row}") from exc
    if not profiles:
        raise ProfileError(f"{path}: no profiles found")
    names = [p.name for p in profiles]
    if len(set(names)) != len(names):
        raise ProfileError(f"{path}: duplicate profile names")
    return profiles


def default_profiles() -> list[SsdModelProfile]:
    """The six drive models shipped with the package."""
    data_dir = resources.files("ssdfi") / "data"
    with resources.as_file(data_dir / "profiles.csv") as p:
        return load_profiles(p)


def profile_by_name(name: str, profiles: list[SsdModelProfile] | None = None) -> SsdModelProfile:
    for p in profiles if profiles is not None else default_profiles():
        if p.name == name:
            return p
    raise ProfileError(f"no profile named {name!r}")
