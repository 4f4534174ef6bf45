"""Batched cache simulation: whole-trace numpy preprocessing + run kernels.

The reference model (:mod:`repro.cache.setassoc`) walks the trace one
access at a time through Python objects.  This module reproduces its
counters *bit-identically* for the common case the experiment drivers
exercise — a freshly-built cache, a static way mask (no mode switches
mid-run) and LRU replacement — at a fraction of the cost:

1. **Whole-trace decode.** Set indices and tags are computed for every
   access in one vectorized pass.
2. **Per-set streams.** A stable argsort by set index reorders the trace
   into contiguous per-set access streams (order within a set is
   preserved, and cache behaviour only depends on the per-set order).
3. **Run collapsing.** Consecutive accesses to the same line within a set
   are collapsed into *runs*: after the first access of a run the line is
   resident and most-recently-used, so the tail accesses are hits that
   leave the replacement state unchanged.  Media traces are extremely
   runny (sequential fetch walks a 32 B line in 8 steps), so this alone
   removes most iterations.
4. **Kernels.** A single active way (the ULE mode of the paper's 7+1
   designs) is fully vectorized — every run head is a miss by
   construction, so hits, fills and writebacks fall out of shifted run
   aggregates.  Multi-way LRU runs through a tight per-run loop over
   plain ints, which is still an order of magnitude faster than the
   per-access object model.  Die fault maps (disabled lines, see
   :mod:`repro.faults.maps`) route through the generic kernel with a
   per-set reduced way list; fully-disabled sets bypass.

Steps 1-3 are *variant-independent*: they depend on the access stream
and the cache geometry only, so the batching layer
(:mod:`repro.engine.batch`) hoists them into a reusable
:class:`repro.engine.plan.StreamPlan` and passes it back in via the
``plan=`` argument — one plan serves every (mode, way split, fault map,
transient spec) variant of a sweep.

Equivalence with the reference model is enforced by
``tests/engine/test_equivalence.py`` across modes, way splits and seeds.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig, validate_disabled_lines
from repro.cache.stats import CacheStats
from repro.engine.plan import StreamPlan, _decode, build_stream_plan
from repro.tech.operating import Mode
from repro.util.profiling import phase

__all__ = ["simulate_trace_vectorized", "_decode"]


def simulate_trace_vectorized(
    config: CacheConfig,
    mode: Mode,
    addresses: np.ndarray,
    is_write: np.ndarray | None = None,
    disabled_lines: tuple[tuple[int, int], ...] = (),
    transients=None,
    plan: StreamPlan | None = None,
) -> CacheStats:
    """Simulate a fresh LRU cache over an access stream in batch.

    Args:
        config: the hybrid cache configuration.
        mode: operating mode; fixes the active way mask for the whole
            run (mode switches mid-stream have no fast path).
        addresses: byte addresses of the probes, in program order.
        is_write: per-access write flags (None = all reads).
        disabled_lines: hard-fault-map ``(set, way)`` pairs that can
            never hold a line.  Sets with disabled ways run through the
            generic per-run kernel with a reduced way list; a set whose
            every powered way is disabled bypasses (all accesses miss,
            nothing fills) — bit-identical to the reference model.
        transients: optional soft-error sampler
            (:class:`repro.transients.sampling.TransientSampler`).
            The kernels additionally record each run's way, hit kind
            and starting dirtiness, and a vectorized post-pass
            classifies every read hit through the shared sampler —
            bit-identical to the reference model's per-access path.
        plan: precomputed :class:`~repro.engine.plan.StreamPlan` of
            this exact ``(addresses, is_write)`` stream under this
            config's geometry; None builds one in place.  Passing a
            plan built for a different stream or geometry is undefined.

    Returns:
        Counters bit-identical to streaming the same accesses through
        :class:`repro.cache.hybrid.HybridCache` with the LRU policy.
    """
    stats = CacheStats()
    n = len(addresses)

    mask = config.active_way_mask(mode)
    actives = [way for way, active in enumerate(mask) if active]
    if not actives:
        # Same contract as the reference model's set_active_ways.
        raise ValueError("at least one way must stay active")
    validate_disabled_lines(disabled_lines, config.sets, len(mask))
    disabled_by_set: dict[int, set[int]] = {}
    for set_index, way in disabled_lines:
        disabled_by_set.setdefault(set_index, set()).add(way)
    if n == 0:
        return stats
    group_names = [config.group_of_way(way).name for way in range(len(mask))]

    if plan is None:
        plan = build_stream_plan(config, addresses, is_write)
    elif plan.n != n:
        raise ValueError("plan does not match the access stream length")

    stats.reads = plan.n - plan.total_writes
    stats.writes = plan.total_writes

    records = None
    if transients is not None:
        # Per-run observations the transient post-pass needs: the way
        # each run resides in (-1 for bypass), whether the run *head*
        # hit, and the line's dirtiness when the run started.
        runs = len(plan.starts)
        records = (
            np.full(runs, -1, dtype=np.int64),
            np.zeros(runs, dtype=bool),
            np.zeros(runs, dtype=bool),
        )

    with phase("batch.kernel"):
        if len(actives) == 1 and not disabled_by_set:
            _accumulate_direct_mapped(
                stats,
                group=group_names[actives[0]],
                run_len=plan.run_len,
                run_writes=plan.run_writes,
                run_head_write=plan.run_head_write,
                run_new_set=plan.run_new_set,
            )
            if records is not None:
                # Single-way runs: every run fills (head misses) into
                # the one active way; a fresh fill always starts clean.
                records[0][:] = actives[0]
        else:
            _accumulate_lru_runs(
                stats,
                actives=actives,
                group_names=group_names,
                run_tag=plan.run_tag,
                run_len=plan.run_len,
                run_writes=plan.run_writes,
                run_head_write=plan.run_head_write,
                run_new_set=plan.run_new_set,
                run_set=plan.run_set if disabled_by_set else None,
                disabled_by_set=disabled_by_set,
                records=records,
            )
    if records is not None:
        _classify_transient_reads(
            stats,
            sampler=transients,
            addr_stream=np.ascontiguousarray(
                addresses, dtype=np.uint64
            )[plan.order],
            order=plan.order,
            set_stream=plan.set_stream,
            write_stream=plan.write_stream,
            starts=plan.starts,
            run_len=plan.run_len,
            run_way=records[0],
            run_hit=records[1],
            run_started_dirty=records[2],
        )
    return stats


def _accumulate_direct_mapped(
    stats: CacheStats,
    group: str,
    run_len: np.ndarray,
    run_writes: np.ndarray,
    run_head_write: np.ndarray,
    run_new_set: np.ndarray,
) -> None:
    """One active way: every run head misses, every tail access hits.

    Consecutive runs in a set carry different tags by construction, and a
    single way holds exactly the previous run's line — so each run head
    evicts it (a writeback when the previous run wrote), fills, and the
    rest of the run hits the freshly-filled line.
    """
    runs = len(run_len)
    write_miss = int(np.count_nonzero(run_head_write))
    read_miss = runs - write_miss
    stats.read_misses = read_miss
    stats.write_misses = write_miss
    stats.fills = runs
    stats.group_fills[group] += runs

    # Writeback: the same-set predecessor run existed and dirtied the line.
    prev_dirty = np.empty(runs, dtype=bool)
    prev_dirty[0] = False
    prev_dirty[1:] = run_writes[:-1] > 0
    writebacks = int(np.count_nonzero(~run_new_set & prev_dirty))
    if writebacks:
        stats.writebacks = writebacks
        stats.group_writebacks[group] += writebacks

    read_hits = int((run_len - run_writes).sum()) - read_miss
    write_hits = int(run_writes.sum()) - write_miss
    stats.read_hits = read_hits
    stats.write_hits = write_hits
    if read_hits:
        stats.group_read_hits[group] += read_hits
    if write_hits:
        stats.group_write_hits[group] += write_hits


def _accumulate_lru_runs(
    stats: CacheStats,
    actives: list[int],
    group_names: list[str],
    run_tag: np.ndarray,
    run_len: np.ndarray,
    run_writes: np.ndarray,
    run_head_write: np.ndarray,
    run_new_set: np.ndarray,
    run_set: np.ndarray | None = None,
    disabled_by_set: dict[int, set[int]] | None = None,
    records: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> None:
    """Multi-way LRU: per-run loop over plain ints.

    Victim selection mirrors the reference model exactly: the first empty
    active way in ascending order, else the least-recently-used active
    way.  With a static mask ways fill in ``actives`` order and never
    empty, so "first empty" is simply ``set_actives[filled]``.

    With a fault map (``run_set`` + ``disabled_by_set``), each set runs
    with its own reduced way list; a set with no usable way bypasses —
    every access of every run misses and nothing fills.

    ``records`` (transient injection only) receives per-run ``(way,
    head_hit, started_dirty)`` observations for the soft-error
    post-pass; bypassed runs keep the preset way of ``-1``.
    """
    tags = run_tag.tolist()
    lengths = run_len.tolist()
    writes = run_writes.tolist()
    head_writes = run_head_write.tolist()
    new_sets = run_new_set.tolist()
    run_sets = run_set.tolist() if run_set is not None else None

    read_hits = write_hits = read_misses = write_misses = 0
    fills = writebacks = bypasses = 0
    group_read_hits: dict[str, int] = {}
    group_write_hits: dict[str, int] = {}
    group_fills: dict[str, int] = {}
    group_writebacks: dict[str, int] = {}

    tag_to_way: dict[int, int] = {}
    way_tag: dict[int, int] = {}
    dirty: dict[int, bool] = {}
    lru: list[int] = []  # MRU first; holds exactly the filled ways
    filled = 0
    set_actives = actives
    ways = len(actives)

    for i in range(len(tags)):
        if new_sets[i]:
            tag_to_way = {}
            way_tag = {}
            dirty = {}
            lru = []
            filled = 0
            if run_sets is not None:
                disabled = disabled_by_set.get(run_sets[i])
                if disabled:
                    set_actives = [
                        way for way in actives if way not in disabled
                    ]
                else:
                    set_actives = actives
                ways = len(set_actives)
        line_tag = tags[i]
        n_writes = writes[i]
        length = lengths[i]
        if not ways:
            # Fully-disabled set: graceful bypass, nothing allocates.
            read_misses += length - n_writes
            write_misses += n_writes
            bypasses += length
            continue
        way = tag_to_way.get(line_tag)
        if way is not None:
            # Hit run: refresh recency, count every access as a hit.
            if records is not None:
                records[0][i] = way
                records[1][i] = True
                records[2][i] = dirty[way]
            if lru[0] != way:
                lru.remove(way)
                lru.insert(0, way)
            if n_writes:
                dirty[way] = True
            group = group_names[way]
            hits_read = length - n_writes
            read_hits += hits_read
            write_hits += n_writes
            if hits_read:
                group_read_hits[group] = (
                    group_read_hits.get(group, 0) + hits_read
                )
            if n_writes:
                group_write_hits[group] = (
                    group_write_hits.get(group, 0) + n_writes
                )
            continue

        # Miss on the run head; the tail hits the freshly-filled line.
        head_write = head_writes[i]
        if head_write:
            write_misses += 1
        else:
            read_misses += 1
        if filled < ways:
            way = set_actives[filled]
            filled += 1
        else:
            way = lru.pop()
            if dirty[way]:
                writebacks += 1
                victim_group = group_names[way]
                group_writebacks[victim_group] = (
                    group_writebacks.get(victim_group, 0) + 1
                )
            del tag_to_way[way_tag[way]]
        lru.insert(0, way)
        way_tag[way] = line_tag
        tag_to_way[line_tag] = way
        dirty[way] = n_writes > 0
        if records is not None:
            # A miss run fills clean; head stays a miss (not a hit).
            records[0][i] = way
        group = group_names[way]
        fills += 1
        group_fills[group] = group_fills.get(group, 0) + 1
        tail_reads = length - n_writes - (0 if head_write else 1)
        tail_writes = n_writes - (1 if head_write else 0)
        read_hits += tail_reads
        write_hits += tail_writes
        if tail_reads:
            group_read_hits[group] = (
                group_read_hits.get(group, 0) + tail_reads
            )
        if tail_writes:
            group_write_hits[group] = (
                group_write_hits.get(group, 0) + tail_writes
            )

    stats.read_hits = read_hits
    stats.write_hits = write_hits
    stats.read_misses = read_misses
    stats.write_misses = write_misses
    stats.fills = fills
    stats.writebacks = writebacks
    stats.bypasses = bypasses
    for counter, values in (
        (stats.group_read_hits, group_read_hits),
        (stats.group_write_hits, group_write_hits),
        (stats.group_fills, group_fills),
        (stats.group_writebacks, group_writebacks),
    ):
        for name, value in values.items():
            counter[name] += value


def _classify_transient_reads(
    stats: CacheStats,
    sampler,
    addr_stream: np.ndarray,
    order: np.ndarray,
    set_stream: np.ndarray,
    write_stream: np.ndarray,
    starts: np.ndarray,
    run_len: np.ndarray,
    run_way: np.ndarray,
    run_hit: np.ndarray,
    run_started_dirty: np.ndarray,
) -> None:
    """Vectorized soft-error classification of every read hit.

    Expands the per-run kernel observations back to per-access vectors
    and pushes every *read hit* through the shared counter-based
    sampler.  The rules mirror the reference model's per-access path
    exactly:

    * only read hits observe stored data — run heads of miss runs
      fetch fresh words, writes overwrite, bypasses never allocate;
    * the scrub interval of an access comes from its *program-order*
      position (``order``), not its per-set stream position;
    * a line is dirty for a given read iff it started the run dirty or
      any earlier access *of the run* wrote it (an exclusive running
      write count — within a run, writes are the only dirtiness
      events, and across runs the kernel's per-way dirty state feeds
      ``run_started_dirty``).
    """
    n = len(write_stream)
    way_per_access = np.repeat(run_way, run_len)
    hit_run = np.repeat(run_hit, run_len)
    head = np.zeros(n, dtype=bool)
    head[starts] = True
    is_hit = hit_run | ~head
    observers = is_hit & ~write_stream & (way_per_access >= 0)
    if not observers.any():
        return

    writes = write_stream.astype(np.int64)
    inclusive = np.cumsum(writes)
    run_base = inclusive[starts] - writes[starts]
    prior_writes = inclusive - writes - np.repeat(run_base, run_len)
    dirty = (
        np.repeat(run_started_dirty, run_len) | (prior_writes > 0)
    )

    config = sampler.config
    words = (
        (addr_stream % np.uint64(config.line_bytes)) * np.uint64(8)
    ) // np.uint64(config.data_word_bits)
    intervals = order.astype(np.uint64) // np.uint64(
        sampler.accesses_per_interval
    )
    sets = set_stream.astype(np.uint64)

    for way in np.unique(way_per_access[observers]):
        params = sampler.way_params(int(way))
        if params is None:  # pragma: no cover - gated ways cannot hit
            continue
        mask = observers & (way_per_access == way)
        upsets = params.upset_counts(
            sets[mask], words[mask], intervals[mask]
        )
        corrected, refetch, due, silent = sampler.classify_upsets(
            params, upsets, dirty[mask]
        )
        n_corrected = int(np.count_nonzero(corrected))
        n_refetch = int(np.count_nonzero(refetch))
        stats.transient_corrected += n_corrected
        stats.transient_refetches += n_refetch
        stats.transient_due += int(np.count_nonzero(due))
        stats.transient_silent += int(np.count_nonzero(silent))
        if n_corrected:
            stats.group_transient_corrected[params.group] += n_corrected
        if n_refetch:
            stats.group_transient_refetches[params.group] += n_refetch
