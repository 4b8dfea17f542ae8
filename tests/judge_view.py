"""The tests' one view of the judge's state, and their one judge probe.

`ssdfi.engine._Simulation` keeps its latent faults in containers laid out
as its block walk reads them.  This module is the only test code that
reads or writes those containers or the judge's records, and the only
code that patches `uncorrectable`, the stripe judge: engine tests assert
on what it returns, so a change of layout edits the engine and this
module alone.

- `latent(sim)` gives the fault state in a normal form, `Latent`, and
  checks the layout on the way.
- `losses(sim)` gives the records written so far.
- `judgements(monkeypatch)` logs the `uncorrectable` calls of a module,
  and can answer them by a fake rule.
- `schedule`, `consume`, `plant_symbol` and `plant_block` drive a judge
  through its timeline and handlers; `scheduled` and `replaced` read a
  timeline.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import ssdfi.engine
from ssdfi.engine import EventKind, _columns


@dataclass(frozen=True)
class Latent:
    """A judge's latent fault state in normal form; `Latent()` is a clean array.

    - `bad_blocks`: {block: bays whose chunk of it is bad};
    - `symbols`: {stripe: {bay: bad symbols}}, the stripes with bad
      symbols that are not pending;
    - `lost_stripes`: the stripes lost in this fault epoch;
    - `pending_symbols`: the stripes of the pending symbols, in timeline
      order;
    - `pending_blocks`: the pending bad blocks, in timeline order.

    An expected state may give sets for the frozensets, which they equal.
    """

    bad_blocks: dict[int, frozenset[int]] = field(default_factory=dict)
    symbols: dict[int, dict[int, frozenset[int]]] = field(default_factory=dict)
    lost_stripes: frozenset[int] = frozenset()
    pending_symbols: tuple[int, ...] = ()
    pending_blocks: tuple[int, ...] = ()


def latent(sim) -> Latent:
    """A frozen copy of the judge's latent fault state, after checking its layout.

    Each block's entries in `bs_block` and `lost` are not empty and hold
    only that block's stripes, and every bay of a stripe in `bs_block`
    has a bad symbol.
    """
    cpb = sim.cpb
    for name, entries in (("bs_block", sim.bs_block), ("lost", sim.lost)):
        assert all(entries.values()), f"an empty block entry in {name}: {entries}"
        assert all(s // cpb == b for b, stripes in entries.items() for s in stripes), (
            f"a stripe filed under another block in {name}: {entries}"
        )
    symbols = {s: per for stripes in sim.bs_block.values() for s, per in stripes.items()}
    assert all(symbols.values()) and all(map(all, map(dict.values, symbols.values()))), (
        f"a stripe or a bay with no bad symbol: {symbols}"
    )
    column = sim.columns[3]
    return Latent(
        {b: frozenset(bays) for b, bays in sim.bb_block.items()},
        {s: {i: frozenset(syms) for i, syms in per.items()} for s, per in symbols.items()},
        frozenset(s for stripes in sim.lost.values() for s in stripes),
        tuple(s for k in sim.pending for s in column[k].tolist()),
        tuple(s // cpb for k in sim.pending_bb for s in column[k].tolist()),
    )


def losses(sim) -> tuple:
    """The loss records the judge has written so far, in order."""
    return tuple(sim.records)


def break_layout(sim, how: str) -> None:
    """Break the judge's layout in a way `latent` must reject; for testing the view itself.

    `how` is "empty block" (a block entry with no stripe), "empty stripe"
    (a stripe entry with no bay) or "foreign lost" (a lost stripe filed
    under the next block).
    """
    if how == "empty block":
        sim.bs_block[0] = {}
    elif how == "empty stripe":
        sim.bs_block[0] = {0: {}}
    elif how == "foreign lost":
        sim.lost[1] = {0}
    else:
        raise ValueError(how)


def judgements(monkeypatch, module=ssdfi.engine, judge=None) -> list[tuple]:
    """Log each `uncorrectable` call `module` makes as (code, faulty, multi); return the log.

    `judge`, if given, answers the calls in place of the module's rule.
    Both engines read `uncorrectable` through their module global, so the
    patch sees every call.
    """
    calls = []
    rule = judge or module.uncorrectable
    monkeypatch.setattr(module, "uncorrectable", lambda *a: calls.append(a) or rule(*a))
    return calls


def schedule(sim, kind, i, times, locs=()):
    """Put scripted events of one kind on bay i onto the simulation's timeline.

    `locs` are blocks for bad blocks and device symbols for bad symbols; a
    bad chip also schedules its rebuild `ttr` hours later.  The events join
    the timeline's columns, which then go through the draw's replacement
    walk (`sim.draw`), and the judge takes the new timeline.  A walked
    timeline walks to itself: the walk takes a replaced bay's later events
    out again.
    """
    stripes, syms = -1, -1
    if kind == EventKind.BAD_BLOCK:
        stripes = np.asarray(locs) * sim.cpb
    elif kind == EventKind.BAD_SYMBOL:
        stripes, syms = np.divmod(np.asarray(locs), sim.timeline.geometry.chunk_pages)
    new = [_columns(i, times, kind, stripes, syms)]
    if kind == EventKind.BAD_CHIP:
        new.append(_columns(i, np.asarray(times) + sim.draw.ttr, EventKind.RECONSTRUCT))
    columns = (np.concatenate((old, *c)) for old, *c in zip(sim.columns, *new))
    sim.timeline = sim.draw._walk(columns)
    sim.columns = sim.timeline.columns


def consume(sim, time=np.inf):
    """Take the timeline's arrivals up to `time` in one pass, as the main loop does."""
    sim._consume_arrivals(int(np.searchsorted(sim.columns[0], time, side="right")))


def plant_symbol(sim, i, symbol, time):
    """Schedule one bad symbol and take the arrivals up to it."""
    schedule(sim, EventKind.BAD_SYMBOL, i, [time], [symbol])
    consume(sim, time)


def plant_block(sim, i, block, time):
    """Hand one bad block to the judge row by row, as a degraded pass does."""
    sim.handle_bad_block(i, block, time)


def scheduled(timeline, i, kind):
    """Bay i's events of one kind on a timeline: (times, locs), as `schedule` takes them."""
    times, kinds, bays, stripes, syms = timeline.columns
    mine = (bays == i) & (kinds == kind)
    if kind == EventKind.BAD_BLOCK:
        return times[mine], stripes[mine] // timeline.geometry.chunks_per_block
    return times[mine], stripes[mine] * timeline.geometry.chunk_pages + syms[mine]


def replaced(sim):
    """The bays that the timeline's rebuilds and wear-outs replace, in order."""
    kinds = (EventKind.RECONSTRUCT, EventKind.WEAR_OUT)
    return [i for _, _, kind, i in sim.timeline.boundaries if kind in kinds]
