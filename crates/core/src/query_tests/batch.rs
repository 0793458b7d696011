//! Unit tests of batch query execution under the paper's sequential
//! protocol (intra-query: each query on all Ns workers) and the
//! throughput protocol (inter-query: queries dispensed across workers),
//! through the pooled executor.

#[cfg(test)]
mod tests {
    use crate::config::{IndexConfig, QueryConfig};
    use crate::engine::{QueryContext, ShardSlot};
    use crate::exec::{answer, QueryAnswer, QuerySpec, Schedule};
    use crate::shard::ShardedIndex;
    use crate::stats::QueryStatsAggregate;
    use messi_series::gen::{self, DatasetKind};
    use messi_series::Dataset;
    use std::sync::Arc;

    fn setup() -> (Arc<Dataset>, ShardedIndex, Dataset) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 91));
        let (index, _) = ShardedIndex::build(Arc::clone(&data), 1, &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 8, 91);
        (data, index, queries)
    }

    /// An exact 1-NN batch through the executor: one answer per query.
    fn exact_batch(
        index: &ShardedIndex,
        queries: &Dataset,
        schedule: Schedule,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStatsAggregate) {
        let exec = index.executor();
        let (answers, agg) = exec.run_batch(queries, &QuerySpec::exact(), schedule, config);
        let answers = answers
            .into_iter()
            .map(|mut a| a.pop().expect("exact search always answers"))
            .collect();
        (answers, agg)
    }

    #[test]
    fn sequential_batch_matches_individual_queries() {
        let (_, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let (batch, agg) = exact_batch(&index, &queries, Schedule::IntraQuery, &config);
        assert_eq!(batch.len(), 8);
        assert_eq!(agg.queries, 8);
        for (qi, ans) in batch.iter().enumerate() {
            let (single, _) = index.shard(0).search(queries.series(qi), &config);
            assert_eq!(ans.pos, single.pos);
            assert!((ans.dist_sq - single.dist_sq).abs() <= 1e-4 * single.dist_sq.max(1.0));
        }
    }

    #[test]
    fn interquery_batch_is_exact_and_ordered() {
        let (data, index, queries) = setup();
        for parallelism in [1usize, 3, 8, 32] {
            let schedule = Schedule::InterQuery { parallelism };
            let (batch, agg) = exact_batch(&index, &queries, schedule, &QueryConfig::for_tests());
            assert_eq!(batch.len(), 8);
            assert_eq!(agg.queries, 8);
            for (qi, ans) in batch.iter().enumerate() {
                let (_, bf) = data.nearest_neighbor_brute_force(queries.series(qi));
                assert!(
                    (ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0),
                    "parallelism={parallelism} query={qi}"
                );
            }
        }
    }

    #[test]
    fn batch_reuses_scratch_across_queries() {
        // The same assertion the executor makes in debug builds, verified
        // explicitly: after the first query, the context's allocation
        // counter is flat for the rest of the batch.
        let (data, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let mut ctx = QueryContext::new();
        let mut events = Vec::new();
        for q in queries.iter() {
            let spec = QuerySpec::exact();
            let solo = ShardSlot::solo();
            let (ans, _) = answer(index.shard(0), q, &spec, &config, &mut ctx, solo, None);
            let (_, bf) = data.nearest_neighbor_brute_force(q);
            assert!((ans[0].dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
            events.push(ctx.alloc_events());
        }
        assert!(events[0] > 0, "first query builds the scratch");
        assert!(
            events[1..].iter().all(|&e| e == events[0]),
            "zero per-query allocations after the first query: {events:?}"
        );
    }

    #[test]
    fn aggregate_totals_match_between_batch_modes() {
        // Both paths fold stats through QueryStatsAggregate::merge; the
        // query count and the deterministic counters must agree.
        let (_, index, queries) = setup();
        let sequential_1w = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..QueryConfig::for_tests()
        };
        let (_, a) = exact_batch(&index, &queries, Schedule::IntraQuery, &sequential_1w);
        let (_, b) = exact_batch(
            &index,
            &queries,
            Schedule::InterQuery { parallelism: 4 },
            &sequential_1w,
        );
        assert_eq!(a.queries, b.queries);
        // Single-worker searches are deterministic, so the pruning
        // counters agree exactly between the two execution modes.
        assert_eq!(a.lb_distance_calcs, b.lb_distance_calcs);
        assert_eq!(a.real_distance_calcs, b.real_distance_calcs);
        assert_eq!(a.bsf_updates, b.bsf_updates);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn rejects_zero_parallelism() {
        let (_, index, queries) = setup();
        let schedule = Schedule::InterQuery { parallelism: 0 };
        exact_batch(&index, &queries, schedule, &QueryConfig::for_tests());
    }
}
