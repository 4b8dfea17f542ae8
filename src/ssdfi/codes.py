"""Erasure code correctability judge and cost model.

Stripes hold one chunk per device; a chunk holds `chunk_pages` symbols
(pages).  Faults degrade chunks three ways: the whole device is failed,
the chunk belongs to a bad block, or individual symbols are bad.

Correctability per stripe:
  * RAID5 tolerates one faulty chunk,
  * RAID6 tolerates two faulty chunks,
  * PMDS(1,1) tolerates two faulty chunks as long as at most one of
    them has more than one bad symbol.  Failed-device and bad-block
    chunks count as multi-symbol.

The cost model covers encode XOR counts, the effective replication
factor, and per-write update penalties for sector, row and full-stripe
update strategies.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class ErasureCode(Enum):
    RAID5 = "RAID5"
    RAID6 = "RAID6"
    PMDS11 = "PMDS11"


class CodesError(ValueError):
    """Invalid stripe state or cost model arguments."""


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


def stripe_counts(n_failed: int, bb_devs, bs_map) -> tuple[int, int, int, int]:
    """(faulty, multi-symbol, bad-block, bad-symbol) chunk counts of one stripe.

    `n_failed` chunks sit on failed devices, `bb_devs` holds the devices
    whose chunk is on a bad block and `bs_map` maps devices to their bad
    symbol indices; either may be empty or None.  A chunk that is on a
    bad block counts once, as a bad-block chunk.  Failed-device and
    bad-block chunks count as multi-symbol.
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


# Concurrent failed devices each code survives: PMDS(1,1) loses a stripe
# to two whole-chunk faults.
DEVICE_TOLERANCE = {
    ErasureCode.RAID5: 1,
    ErasureCode.RAID6: 2,
    ErasureCode.PMDS11: 1,
}


# The engine calls `uncorrectable` about 10M times for a few hundred stock
# missions; each `ErasureCode.X` lookup costs more than the comparison it
# guards, so the members are bound once here.
_RAID5, _RAID6, _PMDS11 = ErasureCode.RAID5, ErasureCode.RAID6, ErasureCode.PMDS11


def uncorrectable(code: ErasureCode, faulty: int, multi: int) -> bool:
    """Correctability kernel on (faulty chunk, multi-symbol chunk) counts."""
    if code is _RAID5:
        return faulty > 1
    if code is _RAID6:
        return faulty > 2
    if code is _PMDS11:
        return faulty > 2 or multi > 1
    raise CodesError(f"unknown code {code!r}")


def check_stripe_dl(code: ErasureCode, state: StripeFaultState) -> bool:
    """True when the stripe's data is lost under the given code."""
    failed = {i for i, f in state.chunks.items() if f.device_failed}
    bb_devs = {i for i, f in state.chunks.items() if f.bad_block} - failed
    bs_map = {
        i: f.bad_symbols for i, f in state.chunks.items() if f.bad_symbols and i not in failed
    }
    faulty, multi, _, _ = stripe_counts(len(failed), bb_devs, bs_map)
    return uncorrectable(code, faulty, multi)


# ---------------------------------------------------------------------------
# Cost model


def _check_nr(n_devices: int, chunk_pages: int) -> None:
    if n_devices < 3:
        raise CodesError("need at least 3 devices")
    if chunk_pages < 1:
        raise CodesError("chunk_pages must be >= 1")


def encode_xor_count(code: ErasureCode, n_devices: int, chunk_pages: int) -> int:
    """XOR operations to encode one stripe."""
    _check_nr(n_devices, chunk_pages)
    n, r = n_devices, chunk_pages
    if code is ErasureCode.RAID5:
        return (n - 1) * r
    if code is ErasureCode.RAID6:
        return 2 * (n - 1) * r
    if code is ErasureCode.PMDS11:
        return 2 * (n - 1) * r + (r - 1)
    raise CodesError(f"unknown code {code!r}")


def erf(code: ErasureCode, n_devices: int, chunk_pages: int) -> float:
    """Effective replication factor: raw capacity over usable capacity."""
    _check_nr(n_devices, chunk_pages)
    n, r = n_devices, chunk_pages
    if code is ErasureCode.RAID5:
        return (n + 1) / n
    if code is ErasureCode.RAID6:
        return (n + 2) / n
    if code is ErasureCode.PMDS11:
        return (n + 1) * r / (n * r - 1)
    raise CodesError(f"unknown code {code!r}")


class UpdatePenalty(NamedTuple):
    writes: int
    reads: int


UPDATE_STRATEGIES = ("sector", "row", "stripe")


def update_penalty(
    code: ErasureCode, strategy: str, n_devices: int, chunk_pages: int
) -> UpdatePenalty:
    """Device writes and reads to update one sector under a strategy."""
    _check_nr(n_devices, chunk_pages)
    n, r = n_devices, chunk_pages
    table = {
        ("sector", ErasureCode.RAID5): (2, 2),
        ("sector", ErasureCode.RAID6): (3, 3),
        ("sector", ErasureCode.PMDS11): (4, 4),
        ("row", ErasureCode.RAID5): (n + 1, 0),
        ("row", ErasureCode.RAID6): (n + 2, 0),
        ("row", ErasureCode.PMDS11): (n + 3, n + 2),
        ("stripe", ErasureCode.RAID5): ((n + 1) * r, 0),
        ("stripe", ErasureCode.RAID6): ((n + 2) * r, 0),
        ("stripe", ErasureCode.PMDS11): ((n + 1) * r, 0),
    }
    try:
        w, rd = table[(strategy, code)]
    except KeyError:
        raise CodesError(f"unknown strategy {strategy!r} or code {code!r}") from None
    return UpdatePenalty(writes=w, reads=rd)


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
