//! Unit tests of ng- and δ-ε-approximate 1-NN search (the journal
//! version's fourth query mode: the same skeleton with an ε-inflated
//! bound and a δ-derived leaf budget), through
//! [`MessiIndex::search_approximate_bounded`](crate::MessiIndex::search_approximate_bounded)
//! and its DTW twin.

#[cfg(test)]
mod tests {
    use crate::config::{IndexConfig, QueryConfig};
    use crate::index::MessiIndex;
    use crate::stats::StopReason;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn setup(count: usize, seed: u64) -> (Arc<messi_series::Dataset>, MessiIndex) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let config = IndexConfig {
            leaf_capacity: 8, // many leaves, so δ budgets actually bite
            ..IndexConfig::for_tests()
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        (data, index)
    }

    #[test]
    fn epsilon_zero_delta_one_is_exact() {
        let (data, index) = setup(400, 91);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 91);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded(q, 0.0, 1.0, &config);
            let (_, bf) = data.nearest_neighbor_brute_force(q);
            assert!((ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0));
            assert_eq!(stats.stop_reason, Some(StopReason::Completed));
            assert_eq!(stats.approx_inflation_prunes, 0);
        }
    }

    #[test]
    fn delta_one_guarantee_is_deterministic() {
        let (data, index) = setup(500, 92);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 92);
        let config = QueryConfig::for_tests();
        for epsilon in [0.05f32, 0.3, 1.0] {
            let factor = (1.0 + epsilon) * (1.0 + epsilon);
            for q in queries.iter() {
                let (ans, stats) = index.search_approximate_bounded(q, epsilon, 1.0, &config);
                let (_, bf) = data.nearest_neighbor_brute_force(q);
                assert!(
                    ans.dist_sq <= factor * bf * (1.0 + 1e-3),
                    "ε = {epsilon}: {} vs (1+ε)²·{bf}",
                    ans.dist_sq
                );
                assert_eq!(stats.stop_reason, Some(StopReason::Completed));
            }
        }
    }

    #[test]
    fn ng_mode_skips_the_engine_entirely() {
        let (_, index) = setup(300, 93);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 93);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded(q, 0.0, 0.0, &config);
            assert_eq!(stats.stop_reason, Some(StopReason::HomeLeafOnly));
            assert_eq!(stats.nodes_inserted, 0, "no tree pass ran");
            assert_eq!(stats.nodes_popped, 0);
            // The answer is the home-leaf seed, byte for byte.
            let (sax, paa) = index.summarize_query(q);
            let (d, p) = index.seed_approximate(q, &sax, &paa, config.kernel);
            assert_eq!(ans.dist_sq.to_bits(), d.to_bits());
            assert_eq!(ans.pos, u64::from(p));
        }
    }

    #[test]
    fn small_delta_reports_budget_exhaustion() {
        let (_, index) = setup(600, 94);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 94);
        // Single-worker so the budget is spent in a deterministic order —
        // the exhaustion count must not depend on thread interleaving.
        let config = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            ..QueryConfig::for_tests()
        };
        let mut exhausted = 0;
        for q in queries.iter() {
            let (_, stats) = index.search_approximate_bounded(q, 0.0, 0.02, &config);
            match stats.stop_reason {
                Some(StopReason::BudgetExhausted) => exhausted += 1,
                Some(StopReason::Completed) => {}
                other => panic!("unexpected stop reason {other:?}"),
            }
        }
        assert!(
            exhausted > 0,
            "a 2% leaf budget over a deep index should stop early sometimes"
        );
    }

    #[test]
    fn dtw_approx_upper_bounds_dtw_exact() {
        use messi_series::distance::dtw::dtw_sq;
        let (data, index) = setup(250, 95);
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 95);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (ans, stats) = index.search_approximate_bounded_dtw(q, 0.2, 1.0, params, &config);
            let bf = data
                .iter()
                .map(|s| dtw_sq(q, s, params))
                .fold(f32::INFINITY, f32::min);
            assert!(
                ans.dist_sq <= 1.2 * 1.2 * bf * (1.0 + 1e-3),
                "{} vs 1.44·{bf}",
                ans.dist_sq
            );
            assert!(stats.stop_reason.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "delta must be within")]
    fn rejects_out_of_range_delta() {
        let (_, index) = setup(50, 96);
        let q = index.dataset().series(0).to_vec();
        index.search_approximate_bounded(&q, 0.0, 1.5, &QueryConfig::for_tests());
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn rejects_negative_epsilon() {
        let (_, index) = setup(50, 97);
        let q = index.dataset().series(0).to_vec();
        index.search_approximate_bounded(&q, -0.5, 1.0, &QueryConfig::for_tests());
    }
}
