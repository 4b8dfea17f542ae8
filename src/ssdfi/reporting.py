"""Aggregation of simulation results into serializable reports."""
from __future__ import annotations

import csv
import json
import os
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .engine import SimResult

SCHEMA_VERSION = 1


class ReportingError(ValueError):
    """Mismatched or malformed results."""


@dataclass(frozen=True)
class AggregateReport:
    experiment_id: str
    config: dict
    n_sims: int
    per_seed_stripes: tuple[tuple[int, int], ...]  # (seed, stripes) sorted by seed
    mean_stripes: float
    median_stripes: float
    stdev_stripes: float
    mean_bytes: float
    scope_stripes: dict[str, int]
    breakdown: dict[str, dict]  # label -> {records, stripes, fraction}
    ddf: int
    tdf: int
    schema_version: int = SCHEMA_VERSION
    runtime: dict = field(default_factory=dict)


def aggregate_results(results: list[SimResult], experiment_id: str = "") -> AggregateReport:
    """Merge per-seed results of one configuration into a report.

    Results must share an identical configuration echo; ordering of the
    input does not affect the report.  Scope and cause totals are sums
    of each result's own; a cause's fraction is its share of all lost
    stripes.
    """
    if not results:
        raise ReportingError("no results to aggregate")
    config = results[0].config
    for r in results[1:]:
        if r.config != config:
            raise ReportingError("results stem from different configurations")
    seeds = [r.seed for r in results]
    if len(set(seeds)) != len(seeds):
        raise ReportingError("duplicate seeds in results")
    ordered = sorted(results, key=lambda r: r.seed)
    per_seed = tuple((r.seed, r.stripes_lost) for r in ordered)
    stripes = [r.stripes_lost for r in ordered]
    scope = {"ADL": 0, "BDL": 0, "SDL": 0}
    causes: dict[str, list[int]] = {}
    for r in ordered:
        for k, v in r.scope_stripes.items():
            scope[k] += v
        for label, (n, lost) in r.cause_totals.items():
            c = causes.setdefault(label, [0, 0])
            c[0] += n
            c[1] += lost
    total = sum(lost for _, lost in causes.values())
    return AggregateReport(
        experiment_id=experiment_id,
        config=dict(config),
        n_sims=len(results),
        per_seed_stripes=per_seed,
        mean_stripes=statistics.fmean(stripes),
        median_stripes=float(statistics.median(stripes)),
        stdev_stripes=statistics.pstdev(stripes),
        mean_bytes=statistics.fmean([r.bytes_lost for r in ordered]),
        scope_stripes=scope,
        breakdown={
            label: {"records": n, "stripes": lost, "fraction": lost / total if total else 0.0}
            for label, (n, lost) in sorted(causes.items())
        },
        ddf=sum(r.ddf for r in ordered),
        tdf=sum(r.tdf for r in ordered),
        runtime={"n_results": len(results)},
    )


@contextmanager
def atomic_open(path: Path, newline: str | None = None):
    """Open `path` for writing text that appears there only once complete.

    The text goes to a temporary file in the same directory, which is
    synced and then renamed over `path`; if writing fails, the temporary
    file is removed and `path` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline=newline) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def emit_report(report: AggregateReport, path: str | Path, fmt: str = "json") -> None:
    """Write a report atomically; identical reports serialize byte-identically."""
    path = Path(path)
    if fmt == "json":
        with atomic_open(path) as fh:
            json.dump(asdict(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif fmt == "csv":
        with atomic_open(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["section", "key", "records", "stripes", "fraction"])
            writer.writerow(["summary", "mean_stripes", "", f"{report.mean_stripes:.6f}", ""])
            writer.writerow(["summary", "median_stripes", "", f"{report.median_stripes:.6f}", ""])
            writer.writerow(["summary", "stdev_stripes", "", f"{report.stdev_stripes:.6f}", ""])
            writer.writerow(["summary", "ddf", "", report.ddf, ""])
            writer.writerow(["summary", "tdf", "", report.tdf, ""])
            for scope in ("ADL", "BDL", "SDL"):
                writer.writerow(["scope", scope, "", report.scope_stripes[scope], ""])
            for label, row in report.breakdown.items():
                writer.writerow(
                    ["cause", label, row["records"], row["stripes"], f"{row['fraction']:.6f}"]
                )
    else:
        raise ReportingError(f"unknown format {fmt!r}")
