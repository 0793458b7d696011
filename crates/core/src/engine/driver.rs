//! The shared query driver (Alg. 5–9 generalized).
//!
//! One implementation of MESSI's query skeleton, statically specialized
//! over a [`Metric`] × [`SearchObjective`] pair:
//!
//! 1. **Tree pass** — workers claim root subtrees via Fetch&Inc, prune
//!    nodes whose metric lower bound reaches the objective's bound, and
//!    either insert surviving *leaves* into the shared priority queues
//!    (round-robin, Alg. 7) or — in queue-less mode — scan them on the
//!    spot. Adjacent surviving leaves of the same arena leaf run are
//!    coalesced into one queued [`LeafRun`], so the batched mindist
//!    kernel later sees full 8-wide chunks instead of ~6-entry
//!    fragments. This is the one lower-bound schedule; only a
//!    δ-budgeted objective vetoes it (see
//!    [`SearchObjective::coalescing_allowed`]), which keeps its runs
//!    single leaves.
//! 2. **Barrier** — queued objectives only: insertion must complete
//!    before ordered processing starts (Alg. 6 line 7).
//! 3. **Queue processing** — pop the minimum-bound run, re-check its
//!    bound (*second filtering*), scan it through the metric's
//!    lower-bound → real-distance cascade, and offer survivors to the
//!    objective. A popped bound at or above the objective's bound
//!    finishes the whole queue; workers hop to the next unfinished queue
//!    with randomization to avoid convoying (§III-B).
//!
//! Coalescing preserves the answers bit for bit: a queued run's key is
//! the *minimum* member-leaf mindist, so second filtering never cuts a
//! run whose best member would have survived alone, and any member with
//! a larger mindist that gets scanned anyway is re-pruned entry by entry
//! (each entry's batched lower bound is at least its leaf's word
//! mindist). The per-entry bound re-fetch and pruning counters are
//! unchanged.
//!
//! The paper's three deliberate contrasts with ParIS-TS (§IV-A) live
//! here once, for every objective: the complete lower-bound pass happens
//! *before* any real distance work, only leaves enter the queues, and
//! popped entries are filtered a second time.
//!
//! Per-phase wall-time collection (Fig. 13) is built into the driver, so
//! every objective — not just 1-NN — reports the same breakdown when
//! [`QueryConfig::collect_breakdown`](crate::config::QueryConfig) is set.

use super::context::Scratch;
use super::metric::Metric;
use super::objective::SearchObjective;
use crate::config::QueuePolicy;
use crate::index::MessiIndex;
use crate::node::{LeafRun, NodeId, TreeArena};
use crate::stats::{LocalStats, SharedQueryStats};
use messi_sync::{ConcurrentMinQueue, Dispenser, QueueSet, SenseBarrier};
use std::time::Instant;

/// Everything one engine run shares across its search workers.
pub(crate) struct Engine<'e, 'a> {
    pub(crate) index: &'a MessiIndex,
    pub(crate) scratch: Scratch<'e, 'a>,
    pub(crate) stats: &'e SharedQueryStats,
    pub(crate) queue_policy: QueuePolicy,
    pub(crate) num_workers: usize,
    pub(crate) collect_breakdown: bool,
}

/// A run of consecutive surviving leaves accumulated during the tree
/// pass, not yet queued/scanned. Holds only ordinals, so it is
/// assembled into a borrowed [`LeafRun`] at flush time.
#[derive(Clone, Copy)]
struct PendingRun {
    run_id: u32,
    ord_lo: u32,
    ord_hi: u32,
    /// Minimum member-leaf mindist — the queue key, so second filtering
    /// is exactly as tight as for the best member alone.
    key: f32,
}

/// Per-worker wall-time accumulators, flushed into the shared stats at
/// worker exit. All zero-cost when breakdown collection is disabled.
#[derive(Default)]
struct PhaseTimers {
    enabled: bool,
    tree_pass_ns: u64,
    pq_insert_ns: u64,
    pq_remove_ns: u64,
    dist_calc_ns: u64,
}

impl PhaseTimers {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    #[inline]
    fn timed<R>(&mut self, slot: fn(&mut Self) -> &mut u64, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            let t = Instant::now();
            let r = f();
            *slot(self) += t.elapsed().as_nanos() as u64;
            r
        } else {
            f()
        }
    }

    fn flush(&self, stats: &SharedQueryStats) {
        if self.enabled {
            stats.tree_pass_ns.add(self.tree_pass_ns);
            stats.pq_insert_ns.add(self.pq_insert_ns);
            stats.pq_remove_ns.add(self.pq_remove_ns);
            stats.dist_calc_ns.add(self.dist_calc_ns);
        }
    }
}

/// Runs the search: dispatches `num_workers` workers over the engine's
/// shared state and blocks until the objective's result is final.
///
/// A single-worker search runs inline — no pool dispatch, no barrier
/// wait — which also makes it cheap to issue from within pool workers
/// (the inter-query parallel batch mode relies on this).
pub(crate) fn run<M: Metric, O: SearchObjective>(
    engine: &Engine<'_, '_>,
    metric: &M,
    objective: &O,
) {
    let dispenser = Dispenser::new(engine.index.arenas.len());
    let worker = |pid: usize| {
        let mut local = LocalStats::default();
        let mut timers = PhaseTimers::new(engine.collect_breakdown);
        let mut results = O::Local::default();
        if O::USES_QUEUES {
            queued_worker(
                engine,
                metric,
                objective,
                &dispenser,
                pid,
                &mut local,
                &mut timers,
                &mut results,
            );
        } else {
            scan_worker(
                engine,
                metric,
                objective,
                &dispenser,
                &mut local,
                &mut timers,
                &mut results,
            );
        }
        objective.absorb(results);
        local.flush(engine.stats);
        timers.flush(engine.stats);
    };
    if engine.num_workers == 1 {
        worker(0);
    } else {
        messi_sync::WorkerPool::global().run(engine.num_workers, &worker);
    }
}

/// One search worker with a queue phase (Alg. 6): subtree traversal,
/// barrier, then queue processing until every queue is finished.
#[allow(clippy::too_many_arguments)]
fn queued_worker<'a, M: Metric, O: SearchObjective>(
    engine: &Engine<'_, 'a>,
    metric: &M,
    objective: &O,
    dispenser: &Dispenser,
    pid: usize,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let queues: &QueueSet<LeafRun<'a>> = engine
        .scratch
        .queues
        .expect("queued objective requires queue scratch");
    let barrier: &SenseBarrier = engine
        .scratch
        .barrier
        .expect("queued objective requires a barrier");
    let nq = queues.len();

    // Phase A: tree pass (Alg. 6 lines 3–6). Under the local-queue
    // policy the cursor is pinned to the worker's own queue and the
    // traversal never advances it. Workers own disjoint subtrees, so a
    // pending run never spans two workers' leaves.
    let t_phase = Instant::now();
    let mut cursor = pid % nq;
    while let Some(i) = dispenser.next() {
        let arena = &engine.index.arenas[i];
        let mut pending: Option<PendingRun> = None;
        insert_subtree(
            engine,
            metric,
            objective,
            queues,
            arena,
            TreeArena::ROOT,
            &mut pending,
            &mut cursor,
            local,
            timers,
            results,
        );
        if let Some(p) = pending {
            push_pending(engine, queues, arena, p, &mut cursor, local, timers);
        }
    }
    if timers.enabled {
        // Tree-pass time excludes the queue insertions counted separately.
        timers.tree_pass_ns +=
            (t_phase.elapsed().as_nanos() as u64).saturating_sub(timers.pq_insert_ns);
    }

    barrier.wait();

    // Phase B: queue processing (Alg. 6 lines 8–13).
    match engine.queue_policy {
        QueuePolicy::SharedRoundRobin => {
            let mut q = pid % nq;
            // Small xorshift for the randomized queue choice (§I: "workers
            // use randomization to choose the priority queues they will
            // work on").
            let mut rng = (pid as u32).wrapping_mul(0x9E37_79B9) | 1;
            loop {
                process_queue(metric, objective, queues.queue(q), local, timers, results);
                rng ^= rng << 13;
                rng ^= rng >> 17;
                rng ^= rng << 5;
                match queues.next_unfinished(rng as usize % nq) {
                    Some(next) => q = next,
                    None => break,
                }
            }
        }
        QueuePolicy::PerWorkerLocal => {
            // The rejected design: drain only your own queue, then stop —
            // no helping, which is exactly where the load imbalance the
            // paper describes comes from.
            process_queue(metric, objective, queues.queue(pid), local, timers, results);
        }
    }
}

/// One search worker in queue-less mode (fixed-bound objectives): the
/// traversal *is* the whole algorithm — surviving leaves are scanned on
/// the spot (coalesced into runs when allowed), no ordering, no barrier.
fn scan_worker<M: Metric, O: SearchObjective>(
    engine: &Engine<'_, '_>,
    metric: &M,
    objective: &O,
    dispenser: &Dispenser,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let t_phase = Instant::now();
    while let Some(i) = dispenser.next() {
        let arena = &engine.index.arenas[i];
        let mut pending: Option<PendingRun> = None;
        scan_subtree(
            metric,
            objective,
            arena,
            TreeArena::ROOT,
            &mut pending,
            local,
            timers,
            results,
        );
        if let Some(p) = pending {
            scan_pending(metric, objective, arena, p, local, timers, results);
        }
    }
    if timers.enabled {
        // The leaf scans are counted as distance-calculation time.
        timers.tree_pass_ns +=
            (t_phase.elapsed().as_nanos() as u64).saturating_sub(timers.dist_calc_ns);
    }
}

/// Extends `pending` with the surviving leaf `ord` (mindist `d`) when it
/// is the next consecutive member of the same arena run, else returns
/// the pending run to flush and restarts accumulation at `ord`. When
/// the objective vetoes coalescing, every leaf flushes its predecessor,
/// so every run is a single leaf.
#[inline]
fn accumulate(
    arena: &TreeArena,
    pending: &mut Option<PendingRun>,
    coalesce: bool,
    ord: u32,
    d: f32,
) -> Option<PendingRun> {
    let run_id = arena.run_of(ord);
    match pending {
        Some(p) if coalesce && p.run_id == run_id && p.ord_hi == ord => {
            p.ord_hi = ord + 1;
            p.key = p.key.min(d);
            None
        }
        _ => pending.replace(PendingRun {
            run_id,
            ord_lo: ord,
            ord_hi: ord + 1,
            key: d,
        }),
    }
}

/// Pushes an accumulated run onto the queues (timed as queue-insertion
/// work, like the per-leaf pushes it replaces). `inserted` counts
/// member leaves, not queue operations, so the counter is independent
/// of coalescing.
#[inline]
fn push_pending<'a>(
    engine: &Engine<'_, 'a>,
    queues: &QueueSet<LeafRun<'a>>,
    arena: &'a TreeArena,
    p: PendingRun,
    cursor: &mut usize,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
) {
    let run = arena.leaf_run(p.ord_lo, p.ord_hi);
    timers.timed(
        |t| &mut t.pq_insert_ns,
        || match engine.queue_policy {
            QueuePolicy::SharedRoundRobin => queues.push_round_robin(cursor, p.key, run),
            QueuePolicy::PerWorkerLocal => queues.queue(*cursor).push(p.key, run),
        },
    );
    local.inserted += u64::from(p.ord_hi - p.ord_lo);
}

/// Scans an accumulated run immediately (queue-less mode), timed as
/// distance-calculation work.
#[inline]
fn scan_pending<M: Metric, O: SearchObjective>(
    metric: &M,
    objective: &O,
    arena: &TreeArena,
    p: PendingRun,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let run = arena.leaf_run(p.ord_lo, p.ord_hi);
    timers.timed(
        |t| &mut t.dist_calc_ns,
        || scan_run(metric, objective, run, local, results),
    );
}

/// Recursive subtree traversal (Alg. 7): prune by node lower bound,
/// insert surviving leaves into the queues round-robin. Queue entries
/// are [`LeafRun`]s — one or more consecutive member leaves of an arena
/// leaf run, viewed through the run's SoA symbol block, all a later
/// scan needs, flat in the arena's pools. The preorder walk visits
/// leaves in ascending ordinal order, which is what lets `pending`
/// coalesce neighbors with a plain consecutiveness check.
#[allow(clippy::too_many_arguments)]
fn insert_subtree<'a, M: Metric, O: SearchObjective>(
    engine: &Engine<'_, 'a>,
    metric: &M,
    objective: &O,
    queues: &QueueSet<LeafRun<'a>>,
    arena: &'a TreeArena,
    id: NodeId,
    pending: &mut Option<PendingRun>,
    cursor: &mut usize,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let d = metric.node_lower_bound(arena.word(id));
    local.lb += 1;
    if d >= objective.bound() {
        objective.on_prune(results, d);
        return; // the whole subtree is pruned
    }
    if arena.is_leaf(id) {
        let ord = arena.leaf_ordinal(id);
        if let Some(p) = accumulate(arena, pending, objective.coalescing_allowed(), ord, d) {
            push_pending(engine, queues, arena, p, cursor, local, timers);
        }
    } else {
        let (left, right) = arena.children(id);
        insert_subtree(
            engine, metric, objective, queues, arena, left, pending, cursor, local, timers, results,
        );
        insert_subtree(
            engine, metric, objective, queues, arena, right, pending, cursor, local, timers,
            results,
        );
    }
}

/// Queue-less traversal: prune by node lower bound, scan surviving
/// leaves immediately (coalesced into runs when allowed).
#[allow(clippy::too_many_arguments)]
fn scan_subtree<M: Metric, O: SearchObjective>(
    metric: &M,
    objective: &O,
    arena: &TreeArena,
    id: NodeId,
    pending: &mut Option<PendingRun>,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    let d = metric.node_lower_bound(arena.word(id));
    local.lb += 1;
    if d >= objective.bound() {
        objective.on_prune(results, d);
        return;
    }
    if arena.is_leaf(id) {
        let ord = arena.leaf_ordinal(id);
        if let Some(p) = accumulate(arena, pending, objective.coalescing_allowed(), ord, d) {
            scan_pending(metric, objective, arena, p, local, timers, results);
        }
    } else {
        let (left, right) = arena.children(id);
        scan_subtree(
            metric, objective, arena, left, pending, local, timers, results,
        );
        scan_subtree(
            metric, objective, arena, right, pending, local, timers, results,
        );
    }
}

/// Drains one queue (Alg. 8) until it is empty or its minimum reaches
/// the objective's bound; either way the queue ends marked finished.
fn process_queue<M: Metric, O: SearchObjective>(
    metric: &M,
    objective: &O,
    queue: &ConcurrentMinQueue<LeafRun<'_>>,
    local: &mut LocalStats,
    timers: &mut PhaseTimers,
    results: &mut O::Local,
) {
    loop {
        if queue.is_finished() {
            return;
        }
        let popped = timers.timed(|t| &mut t.pq_remove_ns, || queue.pop_min());
        match popped {
            None => {
                // Insertions ended at the barrier, so empty means done.
                queue.mark_finished();
                return;
            }
            Some((dist, run)) => {
                local.popped += 1;
                if dist >= objective.bound() {
                    // Second filtering: every remaining entry is worse.
                    local.filtered += 1;
                    objective.on_prune(results, dist);
                    queue.mark_finished();
                    return;
                }
                // A budgeted objective vetoes coalescing, so its runs
                // are single leaves: one admission charges one leaf.
                if !objective.admit_leaf(results) {
                    // Early termination (δ-budgeted objectives): the
                    // visit budget is spent, so this queue — and, via
                    // the same veto, every other — winds down.
                    queue.mark_finished();
                    return;
                }
                timers.timed(
                    |t| &mut t.dist_calc_ns,
                    || scan_run(metric, objective, run, local, results),
                );
            }
        }
    }
}

/// Scans one leaf run (Alg. 9): the metric's first lower bound runs
/// *batched*, 8 entries at a time, over the run's struct-of-arrays
/// symbol block — full-width chunks straddle member-leaf boundaries,
/// which is the whole point of coalescing; each survivor then continues
/// through the metric's remaining cascade and its early-abandoning real
/// distance, offered to the objective on survival. The bound is
/// re-fetched per entry, so a concurrent BSF improvement tightens
/// pruning mid-run exactly as the old entry-at-a-time sweep did, and
/// each per-entry lower bound is computed independently of the chunking
/// (bit-identical whether the entry is scanned alone or mid-run).
#[inline]
fn scan_run<M: Metric, O: SearchObjective>(
    metric: &M,
    objective: &O,
    run: LeafRun<'_>,
    local: &mut LocalStats,
    results: &mut O::Local,
) {
    let n = run.positions.len();
    let mut lbs = [0.0f32; 8];
    let mut base = 0;
    while base < n {
        let len = (n - base).min(8);
        metric.leaf_lower_bounds(&run, base, len, &mut lbs);
        for (lb, &pos) in lbs[..len].iter().zip(&run.positions[base..base + len]) {
            local.lb += 1;
            let bound = objective.bound();
            if *lb >= bound {
                continue;
            }
            if let Some(d) = metric.entry_distance(pos, bound, local) {
                if d < bound && objective.offer(results, d, pos) {
                    local.bsf_updates += 1;
                }
            }
        }
        base += len;
    }
}
