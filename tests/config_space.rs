//! Exactness and validity across the whole configuration space the
//! paper's tuning experiments sweep (Figs. 5–8, 14): chunk sizes, leaf
//! capacities, buffer capacities, segment counts, queue counts, worker
//! counts, BSF policies — every combination must stay exact.

use messi::prelude::*;
use std::sync::Arc;

fn check_exact(index: &MessiIndex, data: &Dataset, queries: &Dataset, qc: &QueryConfig) {
    for q in queries.iter() {
        let (ans, _) = index.search(q, qc);
        let (_, bf) = data.nearest_neighbor_brute_force(q);
        assert!(
            (ans.dist_sq - bf).abs() <= 1e-3 * bf.max(1.0),
            "{:?}: {} vs {bf}",
            qc,
            ans.dist_sq
        );
    }
}

#[test]
fn build_parameter_sweep_preserves_exactness() {
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        400,
        5,
    ));
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 5);
    let qc = QueryConfig {
        num_workers: 4,
        num_queues: 3,
        ..QueryConfig::default()
    };
    for chunk_size in [1usize, 3, 64, 1_000_000] {
        for leaf_capacity in [1usize, 7, 100, 10_000] {
            for initial_buffer_capacity in [0usize, 1, 5, 1000] {
                let config = IndexConfig {
                    segments: 8,
                    num_workers: 4,
                    chunk_size,
                    leaf_capacity,
                    initial_buffer_capacity,
                    variant: messi::index::BuildVariant::Buffered,
                };
                let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
                let errors = messi::index::validate::validate(&index);
                assert!(
                    errors.is_empty(),
                    "chunk={chunk_size} leaf={leaf_capacity}: {errors:?}"
                );
                check_exact(&index, &data, &queries, &qc);
            }
        }
    }
}

#[test]
fn segment_count_sweep() {
    // The paper fixes w = 16; the implementation supports 1..=16 and must
    // stay exact at every setting (pruning power varies, answers don't).
    let data = Arc::new(messi::series::gen::generate(DatasetKind::Sald, 300, 9));
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::Sald, 2, 9);
    for segments in [1usize, 2, 4, 8, 12, 16] {
        let config = IndexConfig {
            segments,
            num_workers: 4,
            chunk_size: 50,
            leaf_capacity: 32,
            initial_buffer_capacity: 5,
            variant: messi::index::BuildVariant::Buffered,
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        let errors = messi::index::validate::validate(&index);
        assert!(errors.is_empty(), "segments={segments}: {errors:?}");
        check_exact(&index, &data, &queries, &QueryConfig::default());
    }
}

#[test]
fn query_parameter_sweep_preserves_exactness() {
    let data = Arc::new(messi::series::gen::generate(DatasetKind::Seismic, 500, 13));
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::Seismic, 2, 13);
    let config = IndexConfig {
        segments: 16,
        num_workers: 4,
        chunk_size: 64,
        leaf_capacity: 32,
        initial_buffer_capacity: 5,
        variant: messi::index::BuildVariant::Buffered,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    for num_workers in [1usize, 2, 5, 24, 48] {
        for num_queues in [1usize, 2, 24, 64] {
            for bsf in [BsfPolicy::Atomic, BsfPolicy::Locked] {
                let qc = QueryConfig {
                    num_workers,
                    num_queues,
                    bsf,
                    kernel: Kernel::Auto,
                    queue_policy: messi::index::QueuePolicy::SharedRoundRobin,
                    collect_breakdown: num_workers == 5,
                };
                check_exact(&index, &data, &queries, &qc);
            }
        }
    }
}

#[test]
fn queue_policy_and_build_variant_sweep() {
    // The rejected designs (per-worker local queues, no-buffer build)
    // must still be exact — the paper rejected them for speed, not
    // correctness.
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        400,
        21,
    ));
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 21);
    for variant in [
        messi::index::BuildVariant::Buffered,
        messi::index::BuildVariant::NoBuffers,
    ] {
        let config = IndexConfig {
            segments: 8,
            num_workers: 4,
            chunk_size: 64,
            leaf_capacity: 32,
            initial_buffer_capacity: 5,
            variant,
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        for policy in [
            messi::index::QueuePolicy::SharedRoundRobin,
            messi::index::QueuePolicy::PerWorkerLocal,
        ] {
            for workers in [1usize, 3, 8] {
                let qc = QueryConfig {
                    num_workers: workers,
                    queue_policy: policy,
                    ..QueryConfig::default()
                };
                check_exact(&index, &data, &queries, &qc);
            }
        }
    }
}

#[test]
fn range_search_is_exact_across_configs() {
    let data = Arc::new(messi::series::gen::generate(DatasetKind::Sald, 300, 31));
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 50,
        leaf_capacity: 16,
        initial_buffer_capacity: 5,
        variant: messi::index::BuildVariant::Buffered,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::Sald, 2, 31);
    for q in queries.iter() {
        let (_, nn) = data.nearest_neighbor_brute_force(q);
        let eps = nn * 3.0;
        let expect: usize = data
            .iter()
            .filter(|s| messi::series::distance::euclidean::ed_sq_scalar(q, s) <= eps * 0.999)
            .count();
        for workers in [1usize, 4, 16] {
            let qc = QueryConfig {
                num_workers: workers,
                ..QueryConfig::default()
            };
            let (got, _) = index.search_range(q, eps, &qc);
            assert!(
                got.len() >= expect,
                "workers={workers}: found {} < clearly-inside {expect}",
                got.len()
            );
        }
    }
}

#[test]
fn non_multiple_series_length_is_supported() {
    // 100 points into 16 segments: ragged PAA segments (6 or 7 points).
    let gen = DatasetKind::RandomWalk.generator_with_len(21, 100);
    let data = Arc::new(messi::series::gen::generate_dataset(gen.as_ref(), 300));
    let config = IndexConfig {
        segments: 16,
        num_workers: 4,
        chunk_size: 32,
        leaf_capacity: 16,
        initial_buffer_capacity: 5,
        variant: messi::index::BuildVariant::Buffered,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    let errors = messi::index::validate::validate(&index);
    assert!(errors.is_empty(), "{errors:?}");
    let queries =
        messi::series::gen::queries::generate_queries_with_len(DatasetKind::RandomWalk, 3, 21, 100);
    check_exact(&index, &data, &queries, &QueryConfig::default());
}

#[test]
fn short_series_lengths() {
    for len in [16usize, 32, 48] {
        let gen = DatasetKind::RandomWalk.generator_with_len(31, len);
        let data = Arc::new(messi::series::gen::generate_dataset(gen.as_ref(), 200));
        let config = IndexConfig {
            segments: 8.min(len),
            num_workers: 3,
            chunk_size: 16,
            leaf_capacity: 16,
            initial_buffer_capacity: 5,
            variant: messi::index::BuildVariant::Buffered,
        };
        let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
        let queries = messi::series::gen::queries::generate_queries_with_len(
            DatasetKind::RandomWalk,
            2,
            31,
            len,
        );
        check_exact(&index, &data, &queries, &QueryConfig::default());
    }
}

#[test]
fn single_series_dataset() {
    let gen = DatasetKind::RandomWalk.generator_with_len(1, 64);
    let data = Arc::new(messi::series::gen::generate_dataset(gen.as_ref(), 1));
    let (index, stats) = MessiIndex::build(
        Arc::clone(&data),
        &IndexConfig {
            segments: 8,
            num_workers: 4,
            chunk_size: 64,
            leaf_capacity: 4,
            initial_buffer_capacity: 5,
            variant: messi::index::BuildVariant::Buffered,
        },
    );
    assert_eq!(stats.num_series, 1);
    let q = data.series(0).to_vec();
    let (ans, _) = index.search(&q, &QueryConfig::default());
    assert_eq!(ans.pos, 0);
    assert_eq!(ans.dist_sq, 0.0);
}
