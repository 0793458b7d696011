//! The [`ShardedExecutor`]: the one pooled query executor, answering
//! over a [`ShardedIndex`] (a single index is its one-shard case).

use super::ShardedIndex;
use crate::config::QueryConfig;
use crate::engine::{QueryContext, ShardSlot, SharedBound};
use crate::exec::{answer, gather, KnnSet, Objective, QueryAnswer, QuerySpec, Schedule};
use crate::stats::{QueryStats, QueryStatsAggregate, StopReason};
use messi_series::Dataset;
use messi_sync::{Dispenser, SlotPool, WorkerPool};
use parking_lot::Mutex;
use std::time::Instant;

/// One shard's share of a scatter: its answers and its [`QueryStats`].
type ShardAnswer = (Vec<QueryAnswer>, QueryStats);

/// The pooled query executor over one [`ShardedIndex`], answering the
/// full [`QuerySpec`] matrix as single queries
/// ([`ShardedExecutor::run_one`]) and batches
/// ([`ShardedExecutor::run_batch`]) under both [`Schedule`]s. Build it
/// with [`ShardedIndex::executor`]; wrap a single index with
/// [`ShardedIndex::from_single`].
///
/// The executor owns one lock-free [`SlotPool`] of warm
/// [`QueryContext`]s per shard. After warm-up the per-query hot path
/// performs zero queue or mindist-table allocations (debug builds
/// assert this over every batch; [`ShardedExecutor::prewarm`] makes the
/// state reachable before the first real query).
///
/// With one shard every query is the single-index search, byte for
/// byte. With more, each query fans out to every shard's engine:
///
/// * Under [`Schedule::IntraQuery`] (and [`ShardedExecutor::run_one`])
///   the shards run *concurrently*, splitting `config.num_workers`
///   between them; 1-NN objectives share one atomic cross-shard BSF, so
///   whichever shard tightens the bound first prunes the others in
///   flight.
/// * Under [`Schedule::InterQuery`] each batch worker owns whole
///   queries and walks the shards *sequentially* (one engine worker per
///   shard); the shared BSF then makes shard `i`'s answer prune shards
///   `i+1..` almost entirely — the cross-shard pruning throughput win.
///
/// k-NN scatters over one shared `KnnSet` keyed by global positions
/// (the k-th-best bound is automatically collection-global); range
/// search shares nothing (the bound is the fixed ε²) and concatenates.
/// Per-shard [`QueryStats`] are summed through the same counters a
/// single index reports.
///
/// ```
/// use messi_core::exec::{QuerySpec, Schedule};
/// use messi_core::{IndexConfig, QueryConfig, ShardedIndex};
/// use messi_series::gen::{self, DatasetKind};
/// use std::sync::Arc;
///
/// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 3));
/// let (index, _) = ShardedIndex::build(Arc::clone(&data), 1, &IndexConfig::for_tests());
/// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 3);
/// let config = QueryConfig::for_tests();
///
/// let exec = index.executor();
/// // A k-NN batch, queries dispensed across 4 single-threaded workers.
/// let (answers, agg) = exec.run_batch(
///     &queries,
///     &QuerySpec::knn(3),
///     Schedule::InterQuery { parallelism: 4 },
///     &config,
/// );
/// assert_eq!(answers.len(), 6);
/// assert!(answers.iter().all(|a| a.len() == 3));
/// assert_eq!(agg.queries, 6);
///
/// // The same executor serves single-shot queries.
/// let (top1, _) = exec.run_one(queries.series(0), &QuerySpec::exact(), &config);
/// assert_eq!(top1[0], answers[0][0]);
/// ```
#[derive(Debug)]
pub struct ShardedExecutor<'a> {
    index: &'a ShardedIndex,
    /// One warm-context pool per shard: contexts are sized by the shard
    /// they serve (queue sets, mindist tables), so they park next to it.
    contexts: Vec<SlotPool<QueryContext<'a>>>,
}

impl<'a> ShardedExecutor<'a> {
    /// Creates an executor whose per-shard context pools match the
    /// process worker pool (2 × cores each), the capacity a saturating
    /// inter-query batch or server frontend needs.
    pub fn new(index: &'a ShardedIndex) -> Self {
        Self::with_capacity(index, 2 * crate::config::available_cores())
    }

    /// Creates an executor holding at most `capacity` warm contexts per
    /// shard.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(index: &'a ShardedIndex, capacity: usize) -> Self {
        Self {
            index,
            contexts: (0..index.num_shards())
                .map(|_| SlotPool::new(capacity))
                .collect(),
        }
    }

    /// The sharded index this executor serves.
    pub fn index(&self) -> &'a ShardedIndex {
        self.index
    }

    /// Number of currently parked warm contexts across all shard pools.
    pub fn warm_contexts(&self) -> usize {
        self.contexts.iter().map(SlotPool::parked).sum()
    }

    /// Sum of [`QueryContext::alloc_events`] over the parked contexts of
    /// every shard pool — the observable behind the zero-allocation-
    /// after-warm-up tests (requires exclusive access so no checkout can
    /// race the count).
    pub fn warm_alloc_events(&mut self) -> u64 {
        let pools = self.contexts.iter_mut();
        pools
            .flat_map(SlotPool::iter_mut)
            .map(|c| c.alloc_events())
            .sum()
    }

    /// Answers one query, the shards running concurrently: exact 1-NN
    /// and approximate return exactly one answer; k-NN up to `k`,
    /// ascending; range every match, ascending. Positions are global.
    ///
    /// # Panics
    ///
    /// Panics if the query length mismatches the index, the configuration
    /// is invalid, `k == 0`, or `epsilon_sq` is negative or NaN.
    pub fn run_one(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let (answers, stats, _, _) = self.run_one_traced(query, spec, config);
        (answers, stats)
    }

    /// As [`ShardedExecutor::run_one`], additionally reporting the
    /// summed context allocation-event delta across this query (0 on
    /// warm contexts: the zero-alloc-after-warm-up invariant as a live
    /// observable) and the raw per-shard [`QueryStats`] — the serve
    /// daemon feeds both into its Prometheus metrics.
    pub fn run_one_traced(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats, u64, Vec<QueryStats>) {
        self.with_contexts(|ctxs| {
            let before = alloc_events(ctxs);
            let (answers, stats, per_shard) = self.scatter(query, spec, config, ctxs, true);
            let delta = alloc_events(ctxs) - before;
            (answers, stats, delta, per_shard)
        })
    }

    /// Answers a whole batch of queries under `schedule`.
    ///
    /// Returns one answer list per query, in query order, plus the
    /// aggregate statistics (including the summed Fig. 13 breakdown when
    /// `config.collect_breakdown` is set).
    ///
    /// Under [`Schedule::IntraQuery`] the queries run one after the
    /// other on the calling thread, each with the full worker complement
    /// of `config`; under [`Schedule::InterQuery`] they are dispensed
    /// across `parallelism` pool workers and `config.num_workers` /
    /// `num_queues` are ignored (each query runs with one worker and one
    /// queue per shard).
    ///
    /// # Panics
    ///
    /// As [`ShardedExecutor::run_one`]; additionally if an inter-query
    /// schedule's `parallelism` is zero.
    pub fn run_batch(
        &self,
        queries: &Dataset,
        spec: &QuerySpec,
        schedule: Schedule,
        config: &QueryConfig,
    ) -> (Vec<Vec<QueryAnswer>>, QueryStatsAggregate) {
        let dispenser = Dispenser::new(queries.len());
        let slots: Vec<Mutex<Option<Vec<QueryAnswer>>>> =
            (0..queries.len()).map(|_| Mutex::new(None)).collect();
        let agg = Mutex::new(QueryStatsAggregate::default());
        // One batch worker: pulls queries until the dispenser runs dry,
        // on one checked-out context per shard for its whole share.
        let worker = |config: &QueryConfig, concurrent: bool| {
            self.with_contexts(|ctxs| {
                let mut local = QueryStatsAggregate::default();
                let mut warm = WarmupCheck::default();
                while let Some(qi) = dispenser.next() {
                    let q = queries.series(qi);
                    let (answers, stats, _) = self.scatter(q, spec, config, ctxs, concurrent);
                    warm.observe(ctxs);
                    local.add(&stats);
                    *slots[qi].lock() = Some(answers);
                }
                agg.lock().merge(&local);
            })
        };
        match schedule {
            Schedule::IntraQuery => worker(config, true),
            Schedule::InterQuery { parallelism } => {
                assert!(parallelism > 0, "parallelism must be positive");
                let per_query = QueryConfig {
                    num_workers: 1,
                    num_queues: 1,
                    ..config.clone()
                };
                let parties = parallelism.min(queries.len().max(1));
                WorkerPool::global().run(parties, &|_| worker(&per_query, false));
            }
        }
        let answers = slots
            .into_iter()
            .map(|s| s.into_inner().expect("every query answered"))
            .collect();
        (answers, agg.into_inner())
    }

    /// Warms every slot of every shard pool by running `query` against
    /// the owning shard once per slot — holding the contexts so each
    /// slot is visited exactly once — then parks them all. The serve
    /// daemon calls this at startup so the first real queries already
    /// run allocation-free; the zero-alloc tests use it to make warm-up
    /// deterministic.
    pub fn prewarm(&self, query: &[f32], spec: &QuerySpec, config: &QueryConfig) {
        for (shard_id, pool) in self.contexts.iter().enumerate() {
            let shard = self.index.shard(shard_id);
            let held: Vec<_> = (0..pool.capacity())
                .map(|_| {
                    let mut ctx = pool.checkout().unwrap_or_default();
                    answer(
                        shard,
                        query,
                        spec,
                        config,
                        &mut ctx,
                        ShardSlot::solo(),
                        None,
                    );
                    ctx
                })
                .collect();
            for ctx in held {
                pool.checkin(ctx);
            }
        }
    }

    /// Runs `f` over one context per shard — checked out of the shard
    /// pools, or built cold — and parks them again afterwards.
    fn with_contexts<R>(&self, f: impl FnOnce(&mut [QueryContext<'a>]) -> R) -> R {
        if let [pool] = &self.contexts[..] {
            // One shard: no per-call context vector.
            let mut ctx = pool.checkout().unwrap_or_default();
            let out = f(std::slice::from_mut(&mut ctx));
            pool.checkin(ctx);
            return out;
        }
        let pools = &self.contexts;
        let mut ctxs: Vec<_> = pools
            .iter()
            .map(|p| p.checkout().unwrap_or_default())
            .collect();
        let out = f(&mut ctxs);
        for (pool, ctx) in pools.iter().zip(ctxs) {
            pool.checkin(ctx);
        }
        out
    }

    /// Answers one query over every shard, `ctxs[i]` serving shard `i`:
    /// concurrently (the worker complement split between the shards) or
    /// sequentially (each shard with `config` as given). Returns the
    /// gathered answers, the query's statistics and the per-shard
    /// statistics.
    fn scatter(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
        ctxs: &mut [QueryContext<'a>],
        concurrent: bool,
    ) -> (Vec<QueryAnswer>, QueryStats, Vec<QueryStats>) {
        let knn = match spec.objective {
            Objective::Knn { k } => Some(KnnSet::new(k)),
            _ => None,
        };
        let finish = |answers, knn: Option<KnnSet>| match knn {
            Some(set) => set.into_sorted(),
            None => gather(spec.objective, answers),
        };
        if let [ctx] = ctxs {
            // One shard: the single-index search, byte for byte.
            let solo = ShardSlot::solo();
            let (answers, stats) = answer(
                self.index.shard(0),
                query,
                spec,
                config,
                ctx,
                solo,
                knn.as_ref(),
            );
            return (finish(answers, knn), stats.clone(), vec![stats]);
        }
        let n = ctxs.len();
        let t_start = Instant::now();
        let shared = SharedBound::new();
        let slot = |shard_id| ShardSlot {
            offset: self.index.shard_offset(shard_id),
            shared: Some(&shared),
        };
        let parts: Vec<ShardAnswer> = if concurrent {
            let shard_config = QueryConfig {
                num_workers: (config.num_workers / n).max(1),
                ..config.clone()
            };
            let cells: Vec<Mutex<(&mut QueryContext<'a>, Option<ShardAnswer>)>> =
                ctxs.iter_mut().map(|ctx| Mutex::new((ctx, None))).collect();
            // One pool party per shard; each shard's engine either runs
            // inline (one worker) or forks scoped threads for its share.
            WorkerPool::global().run(n, &|shard_id| {
                let mut cell = cells[shard_id].lock();
                let (ctx, out) = &mut *cell;
                let shard = self.index.shard(shard_id);
                let slot = slot(shard_id);
                *out = Some(answer(
                    shard,
                    query,
                    spec,
                    &shard_config,
                    ctx,
                    slot,
                    knn.as_ref(),
                ));
            });
            let done = cells.into_iter().map(|c| c.into_inner().1);
            done.map(|out| out.expect("every shard answered")).collect()
        } else {
            let shards = ctxs.iter_mut().enumerate();
            shards
                .map(|(i, ctx)| {
                    let shard = self.index.shard(i);
                    answer(shard, query, spec, config, ctx, slot(i), knn.as_ref())
                })
                .collect()
        };
        let (answers, per_shard): (Vec<Vec<QueryAnswer>>, Vec<QueryStats>) =
            parts.into_iter().unzip();
        let stats = merge_shard_stats(&per_shard, t_start.elapsed());
        (finish(answers.concat(), knn), stats, per_shard)
    }
}

/// Sum of [`QueryContext::alloc_events`] over checked-out contexts.
fn alloc_events(ctxs: &[QueryContext<'_>]) -> u64 {
    ctxs.iter().map(QueryContext::alloc_events).sum()
}

/// Debug-build guard for the pooled zero-allocation invariant: the first
/// query a batch worker answers may (re)build scratch; every later query
/// on the same checked-out contexts must leave their allocation counters
/// untouched.
#[derive(Default)]
struct WarmupCheck(Option<u64>);

impl WarmupCheck {
    #[inline]
    fn observe(&mut self, ctxs: &[QueryContext<'_>]) {
        let events = alloc_events(ctxs);
        match self.0 {
            None => self.0 = Some(events),
            Some(warm) => debug_assert_eq!(
                events, warm,
                "per-query scratch allocation after pooled warm-up"
            ),
        }
    }
}

/// Folds per-shard [`QueryStats`] into one query-level record: counters
/// sum (they flow into the same [`QueryStatsAggregate`] fields the
/// single-index path feeds), `total_time` is the scatter's wall clock,
/// the initial BSF is the tightest seed any shard produced, breakdowns
/// sum component-wise, and the stop reason merges pessimistically
/// (any shard budget-exhausted ⇒ budget-exhausted; all home-leaf-only ⇒
/// home-leaf-only; else completed).
fn merge_shard_stats(per_shard: &[QueryStats], total_time: std::time::Duration) -> QueryStats {
    let mut out = QueryStats {
        total_time,
        ..QueryStats::default()
    };
    let mut initial = f32::INFINITY;
    for s in per_shard {
        out.lb_distance_calcs += s.lb_distance_calcs;
        out.real_distance_calcs += s.real_distance_calcs;
        out.bsf_updates += s.bsf_updates;
        out.nodes_inserted += s.nodes_inserted;
        out.nodes_popped += s.nodes_popped;
        out.nodes_filtered_on_pop += s.nodes_filtered_on_pop;
        out.approx_inflation_prunes += s.approx_inflation_prunes;
        initial = initial.min(s.initial_bsf_dist_sq);
        out.breakdown = match (out.breakdown.take(), s.breakdown) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        out.stop_reason = merge_stop(out.stop_reason, s.stop_reason);
    }
    if initial.is_finite() {
        out.initial_bsf_dist_sq = initial;
    }
    out
}

fn merge_stop(a: Option<StopReason>, b: Option<StopReason>) -> Option<StopReason> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(StopReason::BudgetExhausted), _) | (_, Some(StopReason::BudgetExhausted)) => {
            Some(StopReason::BudgetExhausted)
        }
        (Some(StopReason::HomeLeafOnly), Some(StopReason::HomeLeafOnly)) => {
            Some(StopReason::HomeLeafOnly)
        }
        _ => Some(StopReason::Completed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;
    use std::time::Duration;

    fn stats_with(real: u64, initial: f32, stop: Option<StopReason>) -> QueryStats {
        QueryStats {
            real_distance_calcs: real,
            initial_bsf_dist_sq: initial,
            stop_reason: stop,
            ..QueryStats::default()
        }
    }

    #[test]
    fn merged_stats_sum_counters_and_take_tightest_seed() {
        let merged = merge_shard_stats(
            &[
                stats_with(10, 4.0, None),
                stats_with(7, 2.5, None),
                stats_with(0, 9.0, None),
            ],
            Duration::from_millis(3),
        );
        assert_eq!(merged.real_distance_calcs, 17);
        assert_eq!(merged.initial_bsf_dist_sq, 2.5);
        assert_eq!(merged.total_time, Duration::from_millis(3));
        assert_eq!(merged.stop_reason, None);
    }

    #[test]
    fn stop_reasons_merge_pessimistically() {
        use StopReason::*;
        let m = |reasons: &[StopReason]| {
            merge_shard_stats(
                &reasons
                    .iter()
                    .map(|&r| stats_with(0, 1.0, Some(r)))
                    .collect::<Vec<_>>(),
                Duration::ZERO,
            )
            .stop_reason
        };
        assert_eq!(m(&[Completed, Completed]), Some(Completed));
        assert_eq!(m(&[Completed, BudgetExhausted]), Some(BudgetExhausted));
        assert_eq!(m(&[HomeLeafOnly, HomeLeafOnly]), Some(HomeLeafOnly));
        assert_eq!(m(&[HomeLeafOnly, Completed]), Some(Completed));
    }

    #[test]
    fn sharded_exact_matches_brute_force_with_global_positions() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 42));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 3, &IndexConfig::for_tests());
        let exec = sharded.executor();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 42);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = exec.run_one(q, &QuerySpec::exact(), &config);
            let (bf_pos, bf_dist) = data.nearest_neighbor_brute_force(q);
            assert_eq!(ans.len(), 1);
            assert!(
                (ans[0].dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "{} vs {bf_dist}",
                ans[0].dist_sq
            );
            if ans[0].pos != bf_pos as u64 {
                let d =
                    messi_series::distance::euclidean::ed_sq(q, data.series(ans[0].pos as usize));
                assert!(
                    (d - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                    "non-tie mismatch"
                );
            }
            assert!(stats.lb_distance_calcs > 0);
            assert!(stats.total_time.as_nanos() > 0);
        }
    }

    #[test]
    fn sharded_knn_positions_are_global_and_deduplicated() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 51));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 4, &IndexConfig::for_tests());
        let exec = sharded.executor();
        let q = data.series(317).to_vec(); // lives in a late shard
        let (ans, _) = exec.run_one(&q, &QuerySpec::knn(5), &QueryConfig::for_tests());
        assert_eq!(ans.len(), 5);
        assert_eq!(
            ans[0].pos, 317,
            "member query's nearest is itself, globally"
        );
        assert_eq!(ans[0].dist_sq, 0.0);
        let mut positions: Vec<u64> = ans.iter().map(|a| a.pos).collect();
        positions.sort_unstable();
        positions.dedup();
        assert_eq!(positions.len(), 5, "global positions must not collide");
    }

    #[test]
    fn both_schedules_agree_on_a_sharded_index() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 63));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
        let exec = sharded.executor();
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 63);
        let config = QueryConfig::for_tests();
        let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
        for spec in [
            QuerySpec::exact(),
            QuerySpec::knn(3),
            QuerySpec::range(nn * 2.0),
            QuerySpec::approximate(0.0, 1.0),
        ] {
            let (intra, agg_a) = exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config);
            let (inter, agg_b) = exec.run_batch(
                &queries,
                &spec,
                Schedule::InterQuery { parallelism: 3 },
                &config,
            );
            assert_eq!(agg_a.queries, queries.len() as u64);
            assert_eq!(agg_b.queries, queries.len() as u64);
            for (qi, (a, b)) in intra.iter().zip(&inter).enumerate() {
                assert_eq!(a.len(), b.len(), "{spec:?} query {qi}");
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.dist_sq.to_bits(),
                        y.dist_sq.to_bits(),
                        "{spec:?} query {qi}: schedules must agree bit-for-bit"
                    );
                }
            }
        }
    }
}
