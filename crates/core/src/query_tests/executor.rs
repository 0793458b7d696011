//! Unit tests of the pooled executor: both schedules for every cell of
//! the objective × metric matrix, context pooling, prewarm and the
//! zero-allocation-after-warm-up invariant at one and several shards.

#[cfg(test)]
mod tests {
    use crate::config::{IndexConfig, QueryConfig};
    use crate::exec::{QuerySpec, Schedule};
    use crate::shard::{ShardedExecutor, ShardedIndex};
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use messi_series::Dataset;
    use std::sync::Arc;

    /// The collection as one index — the single-index case of the
    /// executor — plus the query set.
    fn setup() -> (Arc<Dataset>, ShardedIndex, Dataset) {
        setup_sharded(1)
    }

    /// The same collection split into `shards` shards.
    fn setup_sharded(shards: usize) -> (Arc<Dataset>, ShardedIndex, Dataset) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 350, 17));
        let (index, _) = ShardedIndex::build(Arc::clone(&data), shards, &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 17);
        (data, index, queries)
    }

    fn all_specs(series_len: usize, epsilon_sq: f32) -> Vec<QuerySpec> {
        let params = DtwParams::paper_default(series_len);
        vec![
            QuerySpec::exact(),
            QuerySpec::knn(4),
            QuerySpec::range(epsilon_sq),
            QuerySpec::exact().with_dtw(params),
            QuerySpec::knn(4).with_dtw(params),
            QuerySpec::range(epsilon_sq).with_dtw(params),
        ]
    }

    #[test]
    fn both_schedules_agree_for_every_spec() {
        let (data, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = index.executor();
        // A radius around the first query's 1-NN keeps range non-trivial.
        let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
        for spec in all_specs(data.series_len(), nn * 2.0) {
            let (intra, agg_a) = exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config);
            let (inter, agg_b) = exec.run_batch(
                &queries,
                &spec,
                Schedule::InterQuery { parallelism: 4 },
                &config,
            );
            assert_eq!(agg_a.queries, queries.len() as u64);
            assert_eq!(agg_b.queries, queries.len() as u64);
            assert_eq!(intra.len(), inter.len());
            for (qi, (a, b)) in intra.iter().zip(&inter).enumerate() {
                assert_eq!(a.len(), b.len(), "{spec:?} query {qi}");
                for (x, y) in a.iter().zip(b) {
                    assert!(
                        (x.dist_sq - y.dist_sq).abs() <= 1e-3 * y.dist_sq.max(1.0),
                        "{spec:?} query {qi}: {} vs {}",
                        x.dist_sq,
                        y.dist_sq
                    );
                }
            }
        }
    }

    #[test]
    fn run_one_matches_batch_of_one() {
        let (_, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = index.executor();
        for spec in [QuerySpec::exact(), QuerySpec::knn(3)] {
            let (single, _) = exec.run_one(queries.series(0), &spec, &config);
            let one =
                messi_series::Dataset::from_flat(queries.series(0).to_vec(), queries.series_len())
                    .unwrap();
            let (batch, agg) = exec.run_batch(&one, &spec, Schedule::IntraQuery, &config);
            assert_eq!(agg.queries, 1);
            assert_eq!(batch[0].len(), single.len());
            for (a, b) in single.iter().zip(&batch[0]) {
                assert!((a.dist_sq - b.dist_sq).abs() <= 1e-3 * b.dist_sq.max(1.0));
            }
        }
    }

    #[test]
    fn contexts_are_pooled_across_runs() {
        let (_, index, queries) = setup();
        let config = QueryConfig::for_tests();
        let exec = ShardedExecutor::with_capacity(&index, 2);
        assert_eq!(exec.warm_contexts(), 0);
        let _ = exec.run_one(queries.series(0), &QuerySpec::exact(), &config);
        assert_eq!(exec.warm_contexts(), 1, "context parked after the query");
        let _ = exec.run_batch(
            &queries,
            &QuerySpec::exact(),
            Schedule::InterQuery { parallelism: 2 },
            &config,
        );
        // Between 1 and `parallelism` contexts end up parked: a worker
        // that starts after another already finished its whole share
        // reuses the same context instead of warming a second one.
        let parked = exec.warm_contexts();
        assert!((1..=2).contains(&parked), "parked {parked} contexts");
    }

    #[test]
    fn prewarm_fills_the_pool_and_later_batches_stay_allocation_free() {
        for shards in [1, 2] {
            let (data, index, queries) = setup_sharded(shards);
            let config = QueryConfig::for_tests();
            let parallelism = 3;
            let mut exec = ShardedExecutor::with_capacity(&index, parallelism);
            exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);
            assert_eq!(exec.warm_contexts(), parallelism * shards);
            let warmed = exec.warm_alloc_events();
            assert!(warmed > 0, "prewarm builds the scratch");

            // Every spec × schedule: the second identical batch must not
            // touch the allocator (the first may reshape queue sets).
            let (_, nn) = data.nearest_neighbor_brute_force(queries.series(0));
            for spec in all_specs(data.series_len(), nn * 2.0) {
                for schedule in [Schedule::IntraQuery, Schedule::InterQuery { parallelism }] {
                    let _ = exec.run_batch(&queries, &spec, schedule, &config);
                    let after_first = exec.warm_alloc_events();
                    let _ = exec.run_batch(&queries, &spec, schedule, &config);
                    assert_eq!(
                        exec.warm_alloc_events(),
                        after_first,
                        "{shards} shards {spec:?} {schedule:?}: repeat batch allocated scratch"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_queries_report_their_alloc_delta() {
        for shards in [1, 2] {
            let (_, index, queries) = setup_sharded(shards);
            let config = QueryConfig::for_tests();
            let exec = ShardedExecutor::with_capacity(&index, 1);
            // Cold contexts: the first query builds their scratch.
            let (ans, _, cold_delta, per_shard) =
                exec.run_one_traced(queries.series(0), &QuerySpec::exact(), &config);
            assert_eq!(ans.len(), 1);
            assert_eq!(per_shard.len(), shards);
            assert!(
                cold_delta > 0,
                "{shards} shards: cold query must report its allocations"
            );
            // Warm repeat of the same spec: zero allocations, observable live.
            let (_, _, warm_delta, _) =
                exec.run_one_traced(queries.series(1), &QuerySpec::exact(), &config);
            assert_eq!(
                warm_delta, 0,
                "{shards} shards: warm query allocated scratch"
            );
        }
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn rejects_zero_parallelism() {
        let (_, index, queries) = setup();
        let exec = index.executor();
        exec.run_batch(
            &queries,
            &QuerySpec::exact(),
            Schedule::InterQuery { parallelism: 0 },
            &QueryConfig::for_tests(),
        );
    }

    #[test]
    fn executor_is_shareable_across_threads() {
        // The executor (and therefore the slot pool of contexts) must be
        // Sync: a server frontend answers queries from many request
        // threads over one executor.
        fn assert_sync<T: Sync>(_: &T) {}
        let (_, index, queries) = setup();
        let exec = index.executor();
        assert_sync(&exec);
        let config = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..QueryConfig::for_tests()
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let exec = &exec;
                let queries = &queries;
                let config = &config;
                s.spawn(move || {
                    for qi in 0..queries.len() {
                        let (ans, _) = exec.run_one(queries.series(qi), &QuerySpec::knn(2), config);
                        assert_eq!(ans.len(), 2, "thread {t} query {qi}");
                    }
                });
            }
        });
    }
}
