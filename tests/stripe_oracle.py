"""Stripe-level fault states and a brute-force decoder: the oracle for the stripe judge.

A `StripeFaultState` spells out one stripe's faults chunk by chunk.
`check_stripe_dl` judges it the way the engine judges every stripe of a
mission, by chunk counts, and `brute_force_correctable` decides it by an
erasure-decoding argument that shares no code with them.  Nothing in
`src/` imports this module.

The counting judge here, `stripe_counts` and `uncorrectable`, is a frozen
copy of the rules of `ssdfi.codes`.  It and the reference engine judge
with the copy, so an edit to the package's kernel moves the production
engine alone, and the differential test sees it.  `test_codes.py` checks
the copy and the package's kernel against one rule table, and acceptance
criteria 4 and 5 and `test_codes.py` check both judges against the
decoder.  Do not change the copy's behaviour.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ssdfi.codes import CodesError, ErasureCode


def stripe_counts(n_failed: int, bb_devs, bs_map) -> tuple[int, int, int, int]:
    """(faulty, multi-symbol, bad-block, bad-symbol) chunk counts of one stripe.

    `n_failed` chunks sit on failed devices, `bb_devs` holds the devices
    whose chunk is on a bad block and `bs_map` maps devices to their bad
    symbol indices; either may be empty or None.  A chunk on a bad block
    counts once, as a bad-block chunk; failed-device and bad-block chunks
    count as multi-symbol.
    """
    n_bb = len(bb_devs) if bb_devs else 0
    n_bs = n_bs_multi = 0
    if bs_map:
        for dev, syms in bs_map.items():
            if bb_devs and dev in bb_devs:
                continue
            n_bs += 1
            if len(syms) > 1:
                n_bs_multi += 1
    return n_failed + n_bb + n_bs, n_failed + n_bb + n_bs_multi, n_bb, n_bs


# Bound once: the reference engine calls `uncorrectable` millions of times.
_RAID5, _RAID6, _PMDS11 = ErasureCode.RAID5, ErasureCode.RAID6, ErasureCode.PMDS11


def uncorrectable(code: ErasureCode, faulty: int, multi: int) -> bool:
    """True when a stripe with these chunk counts is lost under `code`.

    RAID5 tolerates one faulty chunk and RAID6 two; PMDS(1,1) tolerates
    two as long as at most one of them has more than one bad symbol.  So
    fewer than two faulty chunks are correctable under every code (as
    `multi <= faulty`), and such a stripe is answered before the code is
    looked at.
    """
    if faulty < 2:
        return False
    if code is _RAID5:
        return faulty > 1
    if code is _RAID6:
        return faulty > 2
    if code is _PMDS11:
        return faulty > 2 or multi > 1
    raise CodesError(f"unknown code {code!r}")


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


def chunk_sets(state: StripeFaultState) -> tuple[int, set[int], dict[int, frozenset[int]]]:
    """A stripe's (failed chunk count, bad-block devices, bad-symbol map): `stripe_counts`' input."""
    failed = {i for i, f in state.chunks.items() if f.device_failed}
    bb_devs = {i for i, f in state.chunks.items() if f.bad_block} - failed
    bs_map = {
        i: f.bad_symbols for i, f in state.chunks.items() if f.bad_symbols and i not in failed
    }
    return len(failed), bb_devs, bs_map


def check_stripe_dl(code: ErasureCode, state: StripeFaultState) -> bool:
    """True when the stripe's data is lost under the given code, by the frozen judge."""
    faulty, multi, _, _ = stripe_counts(*chunk_sets(state))
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
