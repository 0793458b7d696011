//! Unit tests of exact 1-NN search (Alg. 5–9, Fig. 4) through
//! [`MessiIndex::search`](crate::MessiIndex::search) and the query path
//! on caller-provided scratch.

#[cfg(test)]
mod tests {
    use crate::config::{BsfPolicy, IndexConfig, QueryConfig};
    use crate::engine::{QueryContext, ShardSlot};
    use crate::exec::{answer, QueryAnswer, QuerySpec};
    use crate::index::MessiIndex;
    use crate::stats::QueryStats;
    use messi_series::distance::Kernel;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn build(count: usize, seed: u64) -> MessiIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        MessiIndex::build(data, &IndexConfig::for_tests()).0
    }

    /// One exact 1-NN query through the query path on caller scratch.
    fn exact_on<'a>(
        index: &'a MessiIndex,
        query: &[f32],
        config: &QueryConfig,
        ctx: &mut QueryContext<'a>,
    ) -> (QueryAnswer, QueryStats) {
        let spec = QuerySpec::exact();
        let (mut answers, stats) =
            answer(index, query, &spec, config, ctx, ShardSlot::solo(), None);
        assert_eq!(answers.len(), 1, "exact search answers once");
        (answers.pop().expect("one answer"), stats)
    }

    fn assert_exact(index: &MessiIndex, query: &[f32], config: &QueryConfig) -> QueryStats {
        let (ans, stats) = index.search(query, config);
        let (bf_pos, bf_dist) = index.dataset().nearest_neighbor_brute_force(query);
        assert!(
            (ans.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
            "dist {} vs brute force {bf_dist}",
            ans.dist_sq
        );
        // Positions may differ only under exact distance ties.
        if ans.pos as usize != bf_pos {
            let d = messi_series::distance::euclidean::ed_sq(
                query,
                index.dataset().series(ans.pos as usize),
            );
            assert!(
                (d - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0),
                "non-tie mismatch"
            );
        }
        stats
    }

    #[test]
    fn exact_on_random_walk_many_queries() {
        let index = build(600, 21);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 10, 21);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            assert_exact(&index, q, &config);
        }
    }

    #[test]
    fn exact_with_single_queue_and_locked_bsf() {
        let index = build(400, 33);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 33);
        let config = QueryConfig {
            num_queues: 1,
            bsf: BsfPolicy::Locked,
            ..QueryConfig::for_tests()
        };
        for q in queries.iter() {
            assert_exact(&index, q, &config);
        }
    }

    #[test]
    fn exact_with_scalar_kernel() {
        let index = build(300, 44);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 44);
        let config = QueryConfig {
            kernel: Kernel::Scalar,
            ..QueryConfig::for_tests()
        };
        for q in queries.iter() {
            assert_exact(&index, q, &config);
        }
    }

    #[test]
    fn exact_across_worker_and_queue_counts() {
        let index = build(500, 55);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 55);
        for workers in [1usize, 2, 7, 16] {
            for queues in [1usize, 2, 5, 31] {
                let config = QueryConfig {
                    num_workers: workers,
                    num_queues: queues,
                    ..QueryConfig::for_tests()
                };
                for q in queries.iter() {
                    assert_exact(&index, q, &config);
                }
            }
        }
    }

    #[test]
    fn member_query_finds_itself() {
        let index = build(200, 66);
        let q = index.dataset().series(17).to_vec();
        let (ans, _) = index.search(&q, &QueryConfig::for_tests());
        assert_eq!(ans.dist_sq, 0.0);
        assert_eq!(ans.distance(), 0.0);
    }

    #[test]
    fn stats_reflect_pruning() {
        let index = build(800, 77);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 77);
        for q in queries.iter() {
            let stats = assert_exact(&index, q, &QueryConfig::for_tests());
            // Pruning must examine far fewer series than the collection.
            assert!(stats.real_distance_calcs < 800, "no pruning at all?");
            assert!(stats.lb_distance_calcs > 0);
            assert!(stats.total_time.as_nanos() > 0);
            assert!(stats.breakdown.is_none());
        }
    }

    #[test]
    fn breakdown_collection_populates_phases() {
        let index = build(500, 88);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 88);
        let config = QueryConfig {
            collect_breakdown: true,
            ..QueryConfig::for_tests()
        };
        let (_, stats) = index.search(queries.series(0), &config);
        let b = stats.breakdown.expect("breakdown requested");
        assert!(b.init_ns > 0);
        assert!(b.total_ns() > 0);
    }

    #[test]
    fn duplicate_heavy_dataset_is_searched_exactly() {
        // Many identical series (overflowing leaves) + a few distinct.
        let base = gen::generate(DatasetKind::RandomWalk, 4, 99);
        let mut values = Vec::new();
        for _ in 0..50 {
            values.extend_from_slice(base.series(0));
        }
        for i in 1..4 {
            values.extend_from_slice(base.series(i));
        }
        let data = Arc::new(messi_series::Dataset::from_flat(values, base.series_len()).unwrap());
        let config = IndexConfig {
            leaf_capacity: 8,
            ..IndexConfig::for_tests()
        };
        let (index, _) = MessiIndex::build(data, &config);
        let q = base.series(1).to_vec();
        let (ans, _) = index.search(&q, &QueryConfig::for_tests());
        assert_eq!(ans.dist_sq, 0.0);
    }

    #[test]
    fn reused_context_answers_stay_exact_and_allocation_free() {
        let index = build(500, 111);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 111);
        let config = QueryConfig::for_tests();
        let mut ctx = QueryContext::new();
        let mut warm = None;
        for q in queries.iter() {
            let (ans, _) = exact_on(&index, q, &config, &mut ctx);
            let (_, bf) = index.dataset().nearest_neighbor_brute_force(q);
            assert!((ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
            match warm {
                None => warm = Some(ctx.alloc_events()),
                Some(w) => assert_eq!(
                    ctx.alloc_events(),
                    w,
                    "no scratch allocation after the first query"
                ),
            }
        }
        // The same context serves a different query shape by resetting.
        let wide = QueryConfig {
            num_workers: 2,
            num_queues: 5,
            ..config
        };
        let (ans, _) = exact_on(&index, queries.series(0), &wide, &mut ctx);
        let (_, bf) = index
            .dataset()
            .nearest_neighbor_brute_force(queries.series(0));
        assert!((ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
    }
}
