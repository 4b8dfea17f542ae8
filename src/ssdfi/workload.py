"""Per-device usage logs: parsing, synthesis and hourly access lookup.

A usage log is an hourly sequence of (bits_read, bits_written,
pe_cycles) samples for one device.  Logs shorter than the mission are
replayed cyclically; accumulated P/E cycles keep growing across
replays.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeds import check_seed


class WorkloadError(ValueError):
    """Invalid usage log data or synthesis parameters."""


@dataclass(frozen=True)
class UsageLog:
    """Hourly access samples for one device.

    Missing hours inside the covered range count as zero access; the
    cycle length is the hour after the last sample.  Columns are stored as
    tuples, so a log is hashable: the engine keys its hazard cache by it.
    """

    device_id: str
    hours: tuple[int, ...]
    bits_read: tuple[float, ...]
    bits_written: tuple[float, ...]
    pe_cycles: tuple[float, ...]

    def __post_init__(self):
        for name in ("hours", "bits_read", "bits_written", "pe_cycles"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.hours)
        if n == 0:
            raise WorkloadError("usage log must have at least one sample")
        if not (len(self.bits_read) == len(self.bits_written) == len(self.pe_cycles) == n):
            raise WorkloadError("usage log columns must have equal length")
        if any(h < 0 for h in self.hours):
            raise WorkloadError("hours must be >= 0")
        if any(b <= a for a, b in zip(self.hours, self.hours[1:])):
            raise WorkloadError("hours must be strictly increasing")
        if any(v < 0 for v in self.bits_read) or any(v < 0 for v in self.bits_written):
            raise WorkloadError("bit counts must be >= 0")
        if any(b < a for a, b in zip(self.pe_cycles, self.pe_cycles[1:])):
            raise WorkloadError("pe_cycles must be non-decreasing")
        if any(v < 0 for v in self.pe_cycles):
            raise WorkloadError("pe_cycles must be >= 0")
        # The engine's hazard cache hashes a log once per mission, and the
        # columns of a four-year log take milliseconds to hash, so the hash
        # is taken once.  It leaves out `device_id`, whose str hash differs
        # between processes, so a pickled log's hash stays valid.
        columns = (self.hours, self.bits_read, self.bits_written, self.pe_cycles)
        object.__setattr__(self, "_hash", hash(columns))

    def __hash__(self) -> int:
        return self._hash

    @property
    def cycle_hours(self) -> int:
        return self.hours[-1] + 1


def dense_arrays(log: UsageLog, mission_hours: int) -> tuple[np.ndarray, np.ndarray]:
    """(bits accessed, cumulative pe_cycles) per hour over a mission.

    The log replays cyclically; P/E cycles accumulate across replays.
    Hours without samples carry zero access and the last known P/E.
    """
    cycle = log.cycle_hours
    bits = np.zeros(cycle)
    hours = np.asarray(log.hours)
    bits[hours] = np.asarray(log.bits_read) + np.asarray(log.bits_written)
    vals = np.zeros(cycle)
    vals[hours] = np.asarray(log.pe_cycles)
    # forward fill P/E over unsampled hours
    mask = np.zeros(cycle, dtype=bool)
    mask[hours] = True
    idx = np.maximum.accumulate(np.where(mask, np.arange(cycle), -1))
    pe = np.where(idx >= 0, vals[np.maximum(idx, 0)], 0.0)

    reps = -(-mission_hours // cycle)
    bits_full = np.tile(bits, reps)[:mission_hours]
    pe_total = pe[-1]
    pe_full = (
        np.repeat(np.arange(reps) * pe_total, cycle)[:mission_hours]
        + np.tile(pe, reps)[:mission_hours]
    )
    return bits_full, pe_full


@dataclass(frozen=True)
class SynthWorkloadParams:
    """Shape of a synthetic hourly workload."""

    duration_hours: int = 168
    read_rate: float = 250_000.0  # bytes per hour
    write_rate: float = 250_000.0  # bytes per hour
    jitter: float = 0.1  # +/- fraction applied per hour
    device_capacity: float = 512e9  # bytes
    write_amplification: float = 1.5

    def __post_init__(self):
        if self.duration_hours < 1:
            raise WorkloadError("duration_hours must be >= 1")
        if self.read_rate < 0 or self.write_rate < 0:
            raise WorkloadError("rates must be >= 0")
        if not 0 <= self.jitter < 1:
            raise WorkloadError("jitter must be within [0, 1)")
        if self.device_capacity <= 0:
            raise WorkloadError("device_capacity must be positive")
        if self.write_amplification < 1:
            raise WorkloadError("write_amplification must be >= 1")


def synthesize_usage_log(params: SynthWorkloadParams, device_id: str, seed: int) -> UsageLog:
    """Deterministic synthetic log with jittered hourly rates."""
    seed = check_seed(seed, WorkloadError)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10 + 7]))
    n = params.duration_hours
    jr = 1.0 + params.jitter * (2 * rng.random(n) - 1.0)
    jw = 1.0 + params.jitter * (2 * rng.random(n) - 1.0)
    bytes_read = params.read_rate * jr
    bytes_written = params.write_rate * jw
    pe = np.floor(
        params.write_amplification * np.cumsum(bytes_written) / params.device_capacity
    )
    return UsageLog(
        device_id=device_id,
        hours=tuple(range(n)),
        bits_read=tuple(8.0 * bytes_read),
        bits_written=tuple(8.0 * bytes_written),
        pe_cycles=tuple(float(v) for v in pe),
    )


_LOG_FIELDS = ["device_id", "hour", "bits_read", "bits_written", "pe_cycles"]


def parse_usage_log(path: str | Path) -> list[UsageLog]:
    """Read usage logs from CSV, one log per device_id."""
    path = Path(path)
    per_device: dict[str, list[tuple[int, float, float, float]]] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _LOG_FIELDS:
            raise WorkloadError(f"{path}: expected header {','.join(_LOG_FIELDS)}")
        for i, row in enumerate(reader, start=2):
            try:
                per_device.setdefault(row["device_id"], []).append(
                    (
                        int(row["hour"]),
                        float(row["bits_read"]),
                        float(row["bits_written"]),
                        float(row["pe_cycles"]),
                    )
                )
            except (TypeError, ValueError) as exc:
                raise WorkloadError(f"{path}:{i}: bad row {row}") from exc
    if not per_device:
        raise WorkloadError(f"{path}: no samples found")
    logs = []
    for device_id, rows in per_device.items():
        try:
            logs.append(
                UsageLog(
                    device_id=device_id,
                    hours=tuple(r[0] for r in rows),
                    bits_read=tuple(r[1] for r in rows),
                    bits_written=tuple(r[2] for r in rows),
                    pe_cycles=tuple(r[3] for r in rows),
                )
            )
        except WorkloadError as exc:
            raise WorkloadError(f"{path}: device {device_id}: {exc}") from exc
    return logs


def write_usage_log(logs: list[UsageLog], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_LOG_FIELDS)
        for log in logs:
            for h, br, bw, pe in zip(log.hours, log.bits_read, log.bits_written, log.pe_cycles):
                writer.writerow(
                    [log.device_id, int(h), repr(float(br)), repr(float(bw)), repr(float(pe))]
                )
