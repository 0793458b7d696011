//! Sharding is an execution detail, not a semantics change: a
//! [`ShardedIndex`] must answer **bit-identically** to one
//! [`MessiIndex`] over the same dataset, for every cell of the
//! Objective × Metric matrix, under both batch schedules, at shard
//! counts that exercise the no-op path (N = 1), the even split
//! (N = 2), and an uneven split with remainder shards (N = 7).
//!
//! Approximate search participates at ε = 0, δ = 1 — the corner where
//! the paper's guarantee makes it exact search bit for bit; at other
//! (ε, δ) the per-shard home leaves legitimately differ from the
//! single-index home leaf, so only the error *bound* (covered by the
//! statistical harness) is preserved, not the identity.
//!
//! Runs single-worker/single-queue so evaluation order is
//! deterministic and the comparison is exact, not statistical. The
//! same suite then proves the sharded snapshot round-trip preserves
//! answers and that corrupting any one shard file fails loudly,
//! naming the file.

use messi::prelude::*;
use messi::series::gen::{self, DatasetKind};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

fn deterministic() -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    }
}

/// The full Objective × Metric matrix (approximate pinned at its exact
/// corner), for a dataset whose series length sets the DTW band.
fn matrix(series_len: usize, range_eps_sq: f32) -> Vec<(&'static str, QuerySpec)> {
    let params = DtwParams::paper_default(series_len);
    let ed = [
        ("exact/ed", QuerySpec::exact()),
        ("knn/ed", QuerySpec::knn(5)),
        ("range/ed", QuerySpec::range(range_eps_sq)),
        ("approx(0,1)/ed", QuerySpec::approximate(0.0, 1.0)),
    ];
    ed.iter()
        .flat_map(|(tag, spec)| {
            let dtw_tag: &'static str = match *tag {
                "exact/ed" => "exact/dtw",
                "knn/ed" => "knn/dtw",
                "range/ed" => "range/dtw",
                _ => "approx(0,1)/dtw",
            };
            [(*tag, *spec), (dtw_tag, spec.with_dtw(params))]
        })
        .collect()
}

fn assert_bit_identical(tag: &str, sharded: &[QueryAnswer], single: &[QueryAnswer]) {
    assert_eq!(
        sharded.len(),
        single.len(),
        "{tag}: result-set size diverged"
    );
    for (i, (a, b)) in sharded.iter().zip(single).enumerate() {
        assert_eq!(a.pos, b.pos, "{tag}[{i}]: position diverged");
        assert_eq!(
            a.dist_sq.to_bits(),
            b.dist_sq.to_bits(),
            "{tag}[{i}]: dist_sq bits diverged ({} vs {})",
            a.dist_sq,
            b.dist_sq
        );
    }
}

#[test]
fn every_objective_metric_schedule_cell_is_bit_identical_to_a_single_index() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 600, 41));
    let config = IndexConfig::for_tests();
    let qconfig = deterministic();
    let (single, _) = MessiIndex::build(Arc::clone(&data), &config);
    // The reference: the one executor over the single index itself.
    let single = ShardedIndex::from_single(single);
    let reference = ShardedExecutor::new(&single);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 41);

    // A radius wide enough for a non-trivial ED result set (and, being
    // larger than DTW ≤ ED distances, for DTW too).
    let (nn, _) = reference.run_one(queries.series(0), &QuerySpec::exact(), &qconfig);
    let eps_sq = nn[0].dist_sq * 4.0 + 1.0;
    let specs = matrix(data.series_len(), eps_sq);

    for n in SHARD_COUNTS {
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), n, &config);
        let exec = ShardedExecutor::new(&sharded);
        for (tag, spec) in &specs {
            // Per-query path.
            for q in queries.iter() {
                let (a, _) = exec.run_one(q, spec, &qconfig);
                let (b, _) = reference.run_one(q, spec, &qconfig);
                assert_bit_identical(&format!("N={n} {tag} run_one"), &a, &b);
            }
            // Both batch schedules.
            for schedule in [
                Schedule::IntraQuery,
                Schedule::InterQuery { parallelism: 2 },
            ] {
                let (batch, _) = exec.run_batch(&queries, spec, schedule, &qconfig);
                for (qi, a) in batch.iter().enumerate() {
                    let (b, _) = reference.run_one(queries.series(qi), spec, &qconfig);
                    assert_bit_identical(&format!("N={n} {tag} {schedule:?} q{qi}"), a, &b);
                }
            }
        }
    }
}

#[test]
fn shard_positions_partition_the_dataset() {
    // Structural sanity behind the bit-identity: shard offsets tile
    // 0..len with the documented remainder-first split, so global
    // positions are well-defined at every shard count.
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 101, 42));
    for n in SHARD_COUNTS {
        let (index, _) = ShardedIndex::build(Arc::clone(&data), n, &IndexConfig::for_tests());
        assert_eq!(index.num_shards(), n);
        let mut covered = 0u64;
        for s in 0..n {
            assert_eq!(index.shard_offset(s), covered, "N={n} shard {s} offset");
            covered += index.shard(s).dataset().len() as u64;
        }
        assert_eq!(covered, data.len() as u64, "N={n} shards must tile");
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "messi-sharded-equivalence-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sharded_snapshot_round_trip_preserves_answers() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 43));
    let (index, _) = ShardedIndex::build(Arc::clone(&data), 3, &IndexConfig::for_tests());
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 43);
    let qconfig = deterministic();
    let spec = QuerySpec::knn(4);

    let dir = scratch_dir("roundtrip");
    save_sharded(&index, &dir).expect("save sharded snapshot");
    let loaded = load_sharded(&dir, Arc::clone(&data)).expect("load sharded snapshot");
    assert_eq!(loaded.num_shards(), 3);

    let before = ShardedExecutor::new(&index);
    let after = ShardedExecutor::new(&loaded);
    for q in queries.iter() {
        let (a, _) = before.run_one(q, &spec, &qconfig);
        let (b, _) = after.run_one(q, &spec, &qconfig);
        assert_bit_identical("round-trip knn", &a, &b);
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn corrupting_any_one_shard_file_fails_loudly_naming_it() {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 200, 44));
    let (index, _) = ShardedIndex::build(Arc::clone(&data), 2, &IndexConfig::for_tests());
    let dir = scratch_dir("corrupt");
    save_sharded(&index, &dir).expect("save sharded snapshot");

    for victim in ["shard-0.messi", "shard-1.messi"] {
        let path = dir.join(victim);
        let mut bytes = std::fs::read(&path).expect("read shard file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write corrupted shard");

        let err = load_sharded(&dir, Arc::clone(&data))
            .err()
            .unwrap_or_else(|| panic!("corrupted {victim} must not load"));
        let msg = err.to_string();
        assert!(msg.contains(victim), "error must name {victim}: {msg}");

        bytes[mid] ^= 0xFF; // restore for the next victim
        std::fs::write(&path, &bytes).expect("restore shard");
    }
    // Restored bytes load cleanly again — the corruption detector keyed
    // on content, not on mtime or size.
    load_sharded(&dir, data).expect("restored snapshot loads");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn approximate_other_corners_stay_within_their_bound_when_sharded() {
    // Outside the exact corner bit-identity is not promised, but the
    // (1+ε) guarantee at δ=1 must still hold against the true 1-NN.
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 45));
    let config = IndexConfig::for_tests();
    let qconfig = deterministic();
    let (single, _) = MessiIndex::build(Arc::clone(&data), &config);
    // The reference: the one executor over the single index itself.
    let single = ShardedIndex::from_single(single);
    let reference = ShardedExecutor::new(&single);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 45);
    let epsilon = 0.25f32;

    for n in SHARD_COUNTS {
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), n, &config);
        let exec = ShardedExecutor::new(&sharded);
        for q in queries.iter() {
            let (truth, _) = reference.run_one(q, &QuerySpec::exact(), &qconfig);
            let (approx, _) = exec.run_one(q, &QuerySpec::approximate(epsilon, 1.0), &qconfig);
            let bound = truth[0].dist_sq.sqrt() * (1.0 + epsilon);
            assert!(
                approx[0].dist_sq.sqrt() <= bound + 1e-4,
                "N={n}: δ=1 answer {} exceeds (1+ε) bound {bound}",
                approx[0].dist_sq.sqrt()
            );
        }
    }
}

#[test]
fn sharding_respects_forced_scalar_kernels() {
    // The MESSI_FORCE_SCALAR CI lane runs this whole file; this test
    // additionally pins both kernels explicitly so the property is
    // checked even in the default lane.
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 250, 46));
    let config = IndexConfig::for_tests();
    let (single, _) = MessiIndex::build(Arc::clone(&data), &config);
    let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 2, &config);
    let single = ShardedIndex::from_single(single);
    let reference = ShardedExecutor::new(&single);
    let exec = ShardedExecutor::new(&sharded);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, 46);

    for kernel in [Kernel::Scalar, Kernel::Simd] {
        let qconfig = QueryConfig {
            num_workers: 1,
            num_queues: 1,
            kernel,
            ..QueryConfig::default()
        };
        for q in queries.iter() {
            let (a, _) = exec.run_one(q, &QuerySpec::exact(), &qconfig);
            let (b, _) = reference.run_one(q, &QuerySpec::exact(), &qconfig);
            assert_bit_identical(&format!("{kernel:?}"), &a, &b);
        }
    }
}
