//! The one query path: a spec-driven prologue and [`answer`].
//!
//! Every query — exact 1-NN, k-NN, ε-range or δ-ε-approximate, under
//! Euclidean distance or banded DTW, solo or as one shard of a scatter —
//! runs the same MESSI skeleton (Alg. 5–9): summarize the query (plus
//! its LB_Keogh envelope under DTW, Fig. 19), seed the bound from the
//! query's home leaf (Fig. 4a), prepare the reusable scratch, and hand
//! the (metric, objective) pair to [`crate::engine`]. The metric is a
//! type parameter and the objective is picked by one `match`, so the
//! driver is monomorphized per pair with no dynamic dispatch.

use super::spec::{MetricSpec, Objective, QuerySpec};
use crate::config::QueryConfig;
use crate::engine::{
    self, DtwMetric, Engine, EuclideanMetric, KnnObjective, Metric, NearestObjective, QueryContext,
    RangeObjective, Scratch, ShardSlot, TableSpec,
};
use crate::index::MessiIndex;
use crate::shard::global_pos;
use crate::stats::{QueryStats, SharedQueryStats, StopReason, TimeBreakdown};
use messi_sax::word::SaxWord;
use messi_series::distance::dtw::{dtw_sq_early_abandon, DtwParams};
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::distance::lb_keogh::{lb_keogh_sq_early_abandon_with, Envelope};
use messi_series::distance::Kernel;
use messi_series::paa::paa;
use messi_sync::Counter;
use parking_lot::Mutex;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{self, AtomicU32};
use std::time::Instant;

/// The result of a similarity-search query.
///
/// `pos` is a *global* position: u64 so that sharded collections can
/// exceed the per-shard u32 position cap (each shard still stores local
/// u32 positions; see [`crate::shard::global_pos`]). For a single
/// [`MessiIndex`] it is the plain dataset position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAnswer {
    /// Global position of the series in the dataset.
    pub pos: u64,
    /// Squared distance to it (Euclidean, or DTW for DTW queries).
    pub dist_sq: f32,
}

impl QueryAnswer {
    /// The distance as a metric value (square root of `dist_sq`).
    pub fn distance(&self) -> f32 {
        self.dist_sq.sqrt()
    }

    /// The one answer order: ascending squared distance (`total_cmp`),
    /// position breaking ties. Every result list — k-NN, range, the
    /// shard gather and the live-ingest overlay merge — is sorted by it.
    pub fn rank_cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .total_cmp(&other.dist_sq)
            .then(self.pos.cmp(&other.pos))
    }
}

/// Max-heap item: the worst current candidate (by
/// [`QueryAnswer::rank_cmp`]) sits on top.
#[derive(Debug, PartialEq)]
struct Candidate(QueryAnswer);

impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.rank_cmp(&other.0)
    }
}

/// The k-NN objective's shared k-best set with a cached pruning bound:
/// the scalar BSF of 1-NN generalized to the k best candidates, each
/// bound checked against the *k-th best* distance (`+inf` until k
/// candidates exist). Reads in the hot loop are a single atomic load;
/// the lock is only taken on insertion, which (like BSF updates, §III-B)
/// happens a handful of times per query. Positions are global, so one
/// set is shared by every shard of a scatter.
pub(crate) struct KnnSet {
    k: usize,
    heap: Mutex<BinaryHeap<Candidate>>,
    /// Bits of the current k-th best distance (`+inf` until full).
    bound_bits: AtomicU32,
}

impl KnnSet {
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self {
            k,
            heap: Mutex::new(BinaryHeap::with_capacity(k + 1)),
            bound_bits: AtomicU32::new(f32::INFINITY.to_bits()),
        }
    }

    /// Current pruning bound: the k-th best distance (or `+inf`).
    /// Non-negative floats order like their bit patterns, so a u32 load
    /// suffices.
    #[inline]
    pub(crate) fn bound(&self) -> f32 {
        f32::from_bits(self.bound_bits.load(atomic::Ordering::Acquire))
    }

    /// Offers a candidate under its *global* position; ignores
    /// duplicates of an already-present position (a leaf may be scanned
    /// by the seeding phase *and* the queue phase — and under sharding
    /// every shard seeds its own home leaf). Returns whether the set
    /// changed.
    pub(crate) fn offer(&self, dist_sq: f32, pos: u64) -> bool {
        if dist_sq >= self.bound() {
            return false;
        }
        let mut heap = self.heap.lock();
        if heap.iter().any(|c| c.0.pos == pos) {
            return false;
        }
        heap.push(Candidate(QueryAnswer { pos, dist_sq }));
        if heap.len() > self.k {
            heap.pop();
        }
        if heap.len() == self.k {
            let worst = heap.peek().expect("k > 0").0.dist_sq;
            self.bound_bits
                .store(worst.to_bits(), atomic::Ordering::Release);
        }
        true
    }

    /// The final answers, ascending by [`QueryAnswer::rank_cmp`].
    pub(crate) fn into_sorted(self) -> Vec<QueryAnswer> {
        let sorted = self.heap.into_inner().into_sorted_vec();
        sorted.into_iter().map(|c| c.0).collect()
    }
}

/// Merges candidate answers — per-shard lists, or engine answers plus
/// live-ingest overlay hits — into `objective`'s final list: the single
/// best for the 1-NN objectives, the `k` best for k-NN, and every hit
/// for range, all under [`QueryAnswer::rank_cmp`].
pub(crate) fn gather(objective: Objective, mut all: Vec<QueryAnswer>) -> Vec<QueryAnswer> {
    match objective {
        Objective::Exact | Objective::Approx { .. } => {
            let best = all
                .iter()
                .copied()
                .min_by(QueryAnswer::rank_cmp)
                .expect("1-NN objectives always answer");
            all.clear();
            all.push(best);
        }
        Objective::Knn { k } => {
            all.sort_by(QueryAnswer::rank_cmp);
            all.truncate(k);
        }
        Objective::Range { .. } => all.sort_by(QueryAnswer::rank_cmp),
    }
    all
}

/// The DTW part of a query summary: the Sakoe-Chiba band, the query's
/// LB_Keogh envelope, and the PAAs of its lower and upper series.
pub(crate) struct DtwSummary {
    params: DtwParams,
    env: Envelope,
    paa_lower: Vec<f32>,
    paa_upper: Vec<f32>,
}

/// What the prologue derives from the query before any search work.
struct Summary {
    sax: SaxWord,
    paa: Vec<f32>,
    dtw: Option<DtwSummary>,
}

impl Summary {
    /// # Panics
    ///
    /// Panics if the query length differs from the indexed series length.
    fn new(index: &MessiIndex, query: &[f32], metric: MetricSpec) -> Self {
        let (sax, paa_point) = index.summarize_query(query);
        let segments = index.sax_config().segments;
        let dtw = match metric {
            MetricSpec::Euclidean => None,
            MetricSpec::Dtw(params) => {
                let env = Envelope::new(query, params);
                Some(DtwSummary {
                    params,
                    paa_lower: paa(&env.lower, segments),
                    paa_upper: paa(&env.upper, segments),
                    env,
                })
            }
        };
        Self {
            sax,
            paa: paa_point,
            dtw,
        }
    }
}

/// Scans the home-leaf positions `home` through the metric's own cascade
/// — early-abandoning ED without `dtw`, else LB_Keogh then banded DTW —
/// against the live `bound()`, offering every candidate below it: the
/// one home-leaf scan behind query seeding and
/// [`MessiIndex::seed_approximate`]. `counters`, when given, records the
/// scan's lower-bound and real distance calculations (exact ED search
/// deliberately leaves its seed scan uncounted).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_home_leaf(
    index: &MessiIndex,
    query: &[f32],
    home: &[u32],
    dtw: Option<&DtwSummary>,
    kernel: Kernel,
    counters: Option<&SharedQueryStats>,
    bound: impl Fn() -> f32,
    mut offer: impl FnMut(f32, u32),
) {
    let count = |counter: fn(&SharedQueryStats) -> &Counter| {
        if let Some(stats) = counters {
            counter(stats).inc();
        }
    };
    for &pos in home {
        let series = index.dataset.series(pos as usize);
        let b = bound();
        let d = match dtw {
            None => {
                count(|s| &s.real_distance_calcs);
                ed_sq_early_abandon_with(kernel, query, series, b)
            }
            Some(dtw) => {
                count(|s| &s.lb_distance_calcs);
                if lb_keogh_sq_early_abandon_with(kernel, &dtw.env, series, b) >= b {
                    continue;
                }
                count(|s| &s.real_distance_calcs);
                dtw_sq_early_abandon(query, series, dtw.params, b)
            }
        };
        if d < b {
            offer(d, pos);
        }
    }
}

/// Answers one query over `index`: the whole MESSI query path for every
/// cell of the [`QuerySpec`] matrix.
///
/// `slot` places the index in a scatter: positions are globalized
/// through `slot.offset`, and 1-NN objectives publish to and prune
/// against `slot.shared` ([`ShardSlot::solo`] is the single index). A
/// k-NN query offers into `knn` when given — the set every shard of a
/// scatter shares, which then holds the answers — and otherwise into a
/// private set whose sorted contents are returned. Exact and
/// approximate queries return one answer; range queries every hit,
/// sorted.
///
/// # Panics
///
/// Panics if the query length mismatches the index, the configuration
/// is invalid, `k == 0`, `epsilon_sq` is negative or NaN, `epsilon` is
/// negative or non-finite, or `delta` is outside `[0, 1]`.
pub(crate) fn answer<'a>(
    index: &'a MessiIndex,
    query: &[f32],
    spec: &QuerySpec,
    config: &QueryConfig,
    ctx: &mut QueryContext<'a>,
    slot: ShardSlot<'_>,
    knn: Option<&KnnSet>,
) -> (Vec<QueryAnswer>, QueryStats) {
    if let (Objective::Knn { k }, None) = (spec.objective, knn) {
        let set = KnnSet::new(k);
        let (_, stats) = answer(index, query, spec, config, ctx, slot, Some(&set));
        return (set.into_sorted(), stats);
    }
    config.validate();
    if let Objective::Approx { epsilon, delta } = spec.objective {
        assert!(
            epsilon >= 0.0 && epsilon.is_finite(),
            "epsilon must be a finite non-negative number"
        );
        assert!((0.0..=1.0).contains(&delta), "delta must be within [0, 1]");
    }
    let t_start = Instant::now();
    let summary = Summary::new(index, query, spec.metric);
    let stats = SharedQueryStats::new();

    // ---- Seed the bound from the home leaf (Fig. 4a) ----
    let mut seed = (f32::INFINITY, u32::MAX);
    let mut initial_bsf = None;
    let home = || index.home_leaf_positions(&summary.sax, &summary.paa);
    let (dtw, kernel) = (summary.dtw.as_ref(), config.kernel);
    match spec.objective {
        Objective::Range { .. } => {}
        Objective::Knn { .. } => {
            let set = knn.expect("k-NN offers into a set");
            let offer = |d, p| {
                set.offer(d, global_pos(slot.offset, p));
            };
            let bound = || set.bound();
            scan_home_leaf(index, query, home(), dtw, kernel, None, bound, offer);
            initial_bsf = Some(set.bound()).filter(|b| b.is_finite());
        }
        Objective::Exact | Objective::Approx { .. } => {
            // ng-approximate (δ = 0) answers from the home leaf alone.
            let ng = matches!(spec.objective, Objective::Approx { delta, .. } if delta == 0.0);
            let counters = (dtw.is_some() || ng).then_some(&stats);
            let best = Cell::new(seed);
            let offer = |d, p| best.set((d, p));
            let bound = || best.get().0;
            scan_home_leaf(index, query, home(), dtw, kernel, counters, bound, offer);
            seed = best.get();
            if ng {
                return ng_answer(seed, slot.offset, &stats, t_start, config);
            }
            if let Some(shared) = slot.shared {
                shared.update_min(seed.0);
            }
            initial_bsf = Some(seed.0).filter(|d| summary.dtw.is_none() || d.is_finite());
        }
    }

    // ---- Scratch, metric, and the engine run (Alg. 6–9) ----
    let run = Run {
        index,
        spec,
        config,
        slot,
        knn,
        seed,
        stats,
        t_start,
    };
    let queued = (!matches!(spec.objective, Objective::Range { .. })).then_some(config);
    let sax = index.sax_config();
    let (answers, mut stats) = match &summary.dtw {
        None => {
            let scratch = ctx.prepare(sax, TableSpec::Point(&summary.paa), queued);
            let table = scratch.table;
            run.engine(
                scratch,
                &EuclideanMetric::new(index, query, &summary.paa, table, config.kernel),
            )
        }
        Some(dtw) => {
            let spec = TableSpec::Envelope(&dtw.paa_lower, &dtw.paa_upper);
            let scratch = ctx.prepare(sax, spec, queued);
            let metric = DtwMetric::new(
                index,
                query,
                &dtw.env,
                dtw.params,
                &dtw.paa_lower,
                &dtw.paa_upper,
                scratch.table,
                config.kernel,
            );
            run.engine(scratch, &metric)
        }
    };
    if let Some(d) = initial_bsf {
        stats.initial_bsf_dist_sq = d;
    }
    (answers, stats)
}

/// The ng-approximate answer (δ = 0): the home-leaf seed *is* the
/// answer, and the query's whole life was its initialization phase.
fn ng_answer(
    (dist_sq, pos): (f32, u32),
    offset: u64,
    counters: &SharedQueryStats,
    t_start: Instant,
    config: &QueryConfig,
) -> (Vec<QueryAnswer>, QueryStats) {
    let total_time = t_start.elapsed();
    let stats = QueryStats {
        lb_distance_calcs: counters.lb_distance_calcs.get(),
        real_distance_calcs: counters.real_distance_calcs.get(),
        total_time,
        initial_bsf_dist_sq: dist_sq,
        stop_reason: Some(StopReason::HomeLeafOnly),
        breakdown: config.collect_breakdown.then(|| TimeBreakdown {
            init_ns: total_time.as_nanos() as u64,
            ..TimeBreakdown::default()
        }),
        ..QueryStats::default()
    };
    let pos = global_pos(offset, pos);
    (vec![QueryAnswer { pos, dist_sq }], stats)
}

/// Everything the engine run needs besides the scratch and the metric.
struct Run<'p, 'a> {
    index: &'a MessiIndex,
    spec: &'p QuerySpec,
    config: &'p QueryConfig,
    slot: ShardSlot<'p>,
    knn: Option<&'p KnnSet>,
    /// The home-leaf seed of the 1-NN objectives (shard-local position).
    seed: (f32, u32),
    stats: SharedQueryStats,
    t_start: Instant,
}

impl<'a> Run<'_, 'a> {
    /// Builds the objective `spec` names, runs the engine over it and
    /// `metric`, and finishes the statistics.
    fn engine<M: Metric>(
        self,
        scratch: Scratch<'_, 'a>,
        metric: &M,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let (config, slot, (d0, p0)) = (self.config, self.slot, self.seed);
        let engine = Engine {
            index: self.index,
            scratch,
            stats: &self.stats,
            queue_policy: config.queue_policy,
            num_workers: config.num_workers,
            collect_breakdown: config.collect_breakdown,
        };
        let init_ns = self.t_start.elapsed().as_nanos() as u64;
        let (answers, approx) = match self.spec.objective {
            Objective::Exact | Objective::Approx { .. } => {
                // Exact search is the ε = 0, δ = 1 corner: bound scale
                // 1.0 and no budget. A δ < 1 derives a leaf-visit budget
                // of ceil(δ · leaves) of this index (per shard when
                // sharded).
                let (epsilon, delta) = match self.spec.objective {
                    Objective::Approx { epsilon, delta } => (epsilon, delta),
                    _ => (0.0, 1.0),
                };
                let budget = (delta < 1.0)
                    .then(|| (delta as f64 * self.index.num_leaves() as f64).ceil() as u64);
                let objective =
                    NearestObjective::new(config.bsf, d0, p0, epsilon, budget, slot.shared);
                engine::run(&engine, metric, &objective);
                // Only approximate queries report this accounting, so
                // exact statistics carry no stop reason.
                let accounting = matches!(self.spec.objective, Objective::Approx { .. })
                    .then(|| (objective.inflation_prunes(), objective.stop_reason()));
                let (dist_sq, pos) = objective.answer();
                let pos = global_pos(slot.offset, pos);
                (vec![QueryAnswer { pos, dist_sq }], accounting)
            }
            Objective::Knn { .. } => {
                let set = self.knn.expect("k-NN offers into a set");
                engine::run(&engine, metric, &KnnObjective::new(set, slot.offset));
                (Vec::new(), None)
            }
            Objective::Range { epsilon_sq } => {
                let objective = RangeObjective::new(epsilon_sq, slot.offset);
                engine::run(&engine, metric, &objective);
                (objective.into_sorted(), None)
            }
        };
        let mut stats = self.stats.finish(
            self.t_start.elapsed(),
            init_ns,
            config.num_workers as u64,
            config.collect_breakdown,
        );
        if let Some((prunes, stop)) = approx {
            stats.approx_inflation_prunes = prunes;
            stats.stop_reason = Some(stop);
        }
        (answers, stats)
    }
}
