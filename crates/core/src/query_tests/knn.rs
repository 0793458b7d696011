//! Unit tests of exact k-NN search — the paper's k-NN classification
//! application (§I) — through
//! [`MessiIndex::search_knn`](crate::MessiIndex::search_knn) and its DTW
//! twin, plus the shared k-best set behind the k-NN objective.

#[cfg(test)]
mod tests {
    use crate::config::{IndexConfig, QueryConfig};
    use crate::exec::KnnSet;
    use crate::index::MessiIndex;
    use messi_series::distance::dtw::DtwParams;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    fn brute_force_knn(data: &messi_series::Dataset, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut all: Vec<(usize, f32)> = data
            .iter()
            .enumerate()
            .map(|(i, s)| (i, messi_series::distance::euclidean::ed_sq_scalar(query, s)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_matches_brute_force() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 13));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 13);
        for q in queries.iter() {
            for k in [1usize, 3, 10, 25] {
                let (got, _) = index.search_knn(q, k, &QueryConfig::for_tests());
                let expect = brute_force_knn(&data, q, k);
                assert_eq!(got.len(), k);
                for (g, (_, ed)) in got.iter().zip(&expect) {
                    assert!(
                        (g.dist_sq - ed).abs() <= 1e-3 * ed.max(1.0),
                        "k={k}: {} vs {ed}",
                        g.dist_sq
                    );
                }
                // Distances ascending.
                for w in got.windows(2) {
                    assert!(w[0].dist_sq <= w[1].dist_sq + 1e-6);
                }
                // No duplicate positions.
                let mut positions: Vec<u64> = got.iter().map(|a| a.pos).collect();
                positions.sort_unstable();
                positions.dedup();
                assert_eq!(positions.len(), k, "duplicate positions in k-NN answer");
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 8, 5));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 5);
        let (got, _) = index.search_knn(queries.series(0), 20, &QueryConfig::for_tests());
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn k1_equals_exact_search() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 17));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 17);
        for q in queries.iter() {
            let (knn, _) = index.search_knn(q, 1, &QueryConfig::for_tests());
            let (one, _) = index.search(q, &QueryConfig::for_tests());
            assert!((knn[0].dist_sq - one.dist_sq).abs() <= 1e-4 * one.dist_sq.max(1.0));
        }
    }

    #[test]
    fn knn_dtw_matches_brute_force() {
        use messi_series::distance::dtw::dtw_sq;
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 250, 19));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let params = DtwParams::paper_default(256);
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 19);
        for q in queries.iter() {
            for k in [1usize, 5] {
                let (got, stats) = index.search_knn_dtw(q, k, params, &QueryConfig::for_tests());
                let mut expect: Vec<(usize, f32)> = data
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, dtw_sq(q, s, params)))
                    .collect();
                expect.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                expect.truncate(k);
                assert_eq!(got.len(), k);
                for (g, (_, d)) in got.iter().zip(&expect) {
                    assert!(
                        (g.dist_sq - d).abs() <= 1e-3 * d.max(1.0),
                        "k={k}: {} vs {d}",
                        g.dist_sq
                    );
                }
                assert!(
                    stats.real_distance_calcs < data.len() as u64,
                    "DTW k-NN should prune"
                );
            }
        }
    }

    #[test]
    fn knn_honors_queue_policy_and_breakdown() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 23));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 23);
        let config = QueryConfig {
            queue_policy: crate::config::QueuePolicy::PerWorkerLocal,
            collect_breakdown: true,
            ..QueryConfig::for_tests()
        };
        for q in queries.iter() {
            let (got, stats) = index.search_knn(q, 5, &config);
            let expect = brute_force_knn(&data, q, 5);
            for (g, (_, ed)) in got.iter().zip(&expect) {
                assert!((g.dist_sq - ed).abs() <= 1e-3 * ed.max(1.0));
            }
            let b = stats.breakdown.expect("breakdown requested");
            assert!(b.init_ns > 0, "k-NN now reports the Fig. 13 phases");
        }
    }

    #[test]
    fn knn_set_semantics() {
        let set = KnnSet::new(2);
        assert_eq!(set.bound(), f32::INFINITY);
        assert!(set.offer(5.0, 1));
        assert_eq!(set.bound(), f32::INFINITY, "not full yet");
        assert!(set.offer(3.0, 2));
        assert_eq!(set.bound(), 5.0);
        assert!(!set.offer(3.0, 2), "duplicate position rejected");
        assert!(!set.offer(7.0, 3), "worse than bound rejected");
        assert!(set.offer(1.0, 4));
        assert_eq!(set.bound(), 3.0);
        let answers = set.into_sorted();
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].pos, 4);
        assert_eq!(answers[1].pos, 2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        KnnSet::new(0);
    }
}
