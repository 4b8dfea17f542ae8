"""Stripe-level fault states and a brute-force decoder: the oracle for the stripe judge.

A `StripeFaultState` spells out one stripe's faults chunk by chunk.
`check_stripe_dl` judges it the way the engine judges every stripe of a
mission, through `ssdfi.codes.stripe_counts` and `uncorrectable`, and
`brute_force_correctable` decides it by an erasure-decoding argument
that shares no code with them.  Acceptance criteria 4 and 5 and
`test_codes.py` check the judge against the decoder; nothing in `src/`
imports this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ssdfi.codes import CodesError, ErasureCode, stripe_counts, uncorrectable


@dataclass(frozen=True)
class ChunkFault:
    """Fault state of one chunk within a stripe."""

    device_failed: bool = False
    bad_block: bool = False
    bad_symbols: frozenset[int] = frozenset()


@dataclass(frozen=True)
class StripeFaultState:
    """Sparse per-chunk fault map for one stripe."""

    n_devices: int
    chunk_pages: int
    chunks: dict[int, ChunkFault] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_devices < 3:
            raise CodesError("need at least 3 devices")
        if self.chunk_pages < 1:
            raise CodesError("chunk_pages must be >= 1")
        for idx, fault in self.chunks.items():
            if not 0 <= idx < self.n_devices:
                raise CodesError(f"chunk index {idx} outside device range")
            if any(not 0 <= s < self.chunk_pages for s in fault.bad_symbols):
                raise CodesError(f"bad symbol index outside chunk in chunk {idx}")


def check_stripe_dl(code: ErasureCode, state: StripeFaultState) -> bool:
    """True when the stripe's data is lost under the given code."""
    failed = {i for i, f in state.chunks.items() if f.device_failed}
    bb_devs = {i for i, f in state.chunks.items() if f.bad_block} - failed
    bs_map = {
        i: f.bad_symbols for i, f in state.chunks.items() if f.bad_symbols and i not in failed
    }
    faulty, multi, _, _ = stripe_counts(len(failed), bb_devs, bs_map)
    return uncorrectable(code, faulty, multi)


def brute_force_correctable(code: ErasureCode, state: StripeFaultState) -> bool:
    """Erasure-decoding argument, independent of the counting judge.

    RAID5 regenerates one erased chunk, RAID6 two.  PMDS(1,1) can
    regenerate one erased chunk row by row and has one extra global
    parity symbol, so a stripe decodes whenever some chunk choice leaves
    at most one erased symbol outside it.
    """
    erased = []
    for f in state.chunks.values():
        if f.device_failed or f.bad_block:
            erased.append(state.chunk_pages)
        elif f.bad_symbols:
            erased.append(len(f.bad_symbols))
    if code is ErasureCode.RAID5:
        return len(erased) <= 1
    if code is ErasureCode.RAID6:
        return len(erased) <= 2
    if code is ErasureCode.PMDS11:
        if not erased:
            return True
        return any(sum(erased) - e <= 1 for e in erased)
    raise CodesError(f"unknown code {code!r}")
