//! Criterion benchmarks for exact query answering: the five competitors
//! of Fig. 11/18 at a fixed size, plus ablations the paper discusses in
//! prose (BSF policy, SIMD kernel, breakdown-collection overhead) and
//! the pooled executor's batch schedules (throughput vs latency).

use criterion::{criterion_group, criterion_main, Criterion};
use messi_baselines::paris::query::sims_search;
use messi_baselines::paris::ts::ts_search;
use messi_baselines::paris::{build_paris, ParisBuildVariant};
use messi_baselines::ucr;
use messi_core::exec::{QuerySpec, Schedule};
use messi_core::{BsfPolicy, IndexConfig, MessiIndex, QueryConfig, ShardedExecutor, ShardedIndex};
use messi_sax::mindist::MindistTable;
use messi_series::distance::dtw::DtwParams;
use messi_series::distance::Kernel;
use messi_series::gen::{generate, queries::generate_queries, DatasetKind};
use messi_series::paa::paa;
use std::sync::Arc;

const N: usize = 50_000;

fn bench_competitors(c: &mut Criterion) {
    let data = Arc::new(generate(DatasetKind::RandomWalk, N, 9));
    let (messi, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
    let (paris, _) = build_paris(
        Arc::clone(&data),
        &IndexConfig::default(),
        ParisBuildVariant::Locked,
    );
    let queries = generate_queries(DatasetKind::RandomWalk, 8, 9);
    let qc = QueryConfig::default();
    let sq = QueryConfig {
        num_queues: 1,
        ..QueryConfig::default()
    };
    let q = queries.series(0);

    let mut g = c.benchmark_group("query_50k");
    g.sample_size(20);
    g.bench_function("messi_mq", |b| b.iter(|| messi.search(q, &qc)));
    g.bench_function("messi_sq", |b| b.iter(|| messi.search(q, &sq)));
    g.bench_function("paris", |b| b.iter(|| sims_search(&paris, q, &qc)));
    g.bench_function("paris_ts", |b| b.iter(|| ts_search(&paris, q, &qc)));
    g.bench_function("ucr_suite_p", |b| {
        b.iter(|| ucr::ucr_parallel(&data, q, &qc))
    });
    g.finish();
}

/// Ablations: BSF policy (locked vs atomic), kernel (SIMD vs SISD), and
/// the overhead of collecting the Fig. 13 breakdown.
fn bench_ablations(c: &mut Criterion) {
    let data = Arc::new(generate(DatasetKind::RandomWalk, N, 10));
    let (messi, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
    let queries = generate_queries(DatasetKind::RandomWalk, 4, 10);
    let q = queries.series(0);

    let mut g = c.benchmark_group("query_ablations");
    g.sample_size(20);
    for (name, config) in [
        (
            "bsf_atomic",
            QueryConfig {
                bsf: BsfPolicy::Atomic,
                ..QueryConfig::default()
            },
        ),
        (
            "bsf_locked",
            QueryConfig {
                bsf: BsfPolicy::Locked,
                ..QueryConfig::default()
            },
        ),
        (
            "kernel_simd",
            QueryConfig {
                kernel: Kernel::Simd,
                ..QueryConfig::default()
            },
        ),
        (
            "kernel_sisd",
            QueryConfig {
                kernel: Kernel::Scalar,
                ..QueryConfig::default()
            },
        ),
        (
            "breakdown_on",
            QueryConfig {
                collect_breakdown: true,
                ..QueryConfig::default()
            },
        ),
    ] {
        g.bench_function(name, |b| b.iter(|| messi.search(q, &config)));
    }
    // The same kernel ablation under DTW: with the vectorized LB_Keogh
    // and batched envelope mindist the SIMD-vs-SISD contrast is now
    // symmetric across metrics (the Fig. 18 ablation for Fig. 19's
    // cascade).
    let params = DtwParams::paper_default(data.series_len());
    for (name, kernel) in [
        ("dtw_kernel_simd", Kernel::Simd),
        ("dtw_kernel_sisd", Kernel::Scalar),
    ] {
        let config = QueryConfig {
            kernel,
            ..QueryConfig::default()
        };
        g.bench_function(name, |b| b.iter(|| messi.search_dtw(q, params, &config)));
    }
    g.finish();
}

/// Batch scheduling through the pooled executor: the paper's sequential
/// protocol (intra-query parallelism) against the throughput-oriented
/// inter-query mode, for 1-NN and k-NN batches, all from one warm
/// context pool (zero per-query scratch allocations inside the loop).
fn bench_batch_schedules(c: &mut Criterion) {
    let data = Arc::new(generate(DatasetKind::RandomWalk, N, 11));
    let (messi, _) = ShardedIndex::build(Arc::clone(&data), 1, &IndexConfig::default());
    let queries = generate_queries(DatasetKind::RandomWalk, 16, 11);
    let config = QueryConfig::default();
    let parallelism = config.num_workers;
    // Pool sized to the widest schedule (inter uses `parallelism`
    // contexts, intra one of them) so prewarm runs no surplus queries.
    let exec = ShardedExecutor::with_capacity(&messi, parallelism);
    exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);

    let mut g = c.benchmark_group("batch_16q_50k");
    g.sample_size(10);
    for (name, spec) in [("exact", QuerySpec::exact()), ("knn10", QuerySpec::knn(10))] {
        g.bench_function(format!("{name}_intra"), |b| {
            b.iter(|| exec.run_batch(&queries, &spec, Schedule::IntraQuery, &config))
        });
        g.bench_function(format!("{name}_inter"), |b| {
            b.iter(|| {
                exec.run_batch(
                    &queries,
                    &spec,
                    Schedule::InterQuery { parallelism },
                    &config,
                )
            })
        });
    }
    g.finish();
}

/// Leaf-scan-heavy workloads: the paths the arena layout (contiguous
/// preorder node records + flat leaf positions and symbol columns)
/// accelerates over the former `Box<Node>`-per-node / `Vec`-per-leaf
/// tree. `full_leaf_sweep` is pure storage traversal (no distance
/// math); `range_wide` keeps nearly every leaf unpruned so entry scans
/// dominate; `exact_1worker` serializes the whole queue-drain scan path
/// onto one thread. Numbers for the pre-arena boxed layout are recorded
/// in README § Benchmarks ("bench notes") for before/after comparison —
/// the boxed implementation itself was removed by the arena refactor.
fn bench_leaf_scan(c: &mut Criterion) {
    let data = Arc::new(generate(DatasetKind::RandomWalk, N, 12));
    let (messi, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
    let queries = generate_queries(DatasetKind::RandomWalk, 4, 12);
    let q = queries.series(0);
    let qc = QueryConfig::default();
    let one_worker = QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    };
    let (_, nn) = data.nearest_neighbor_brute_force(q);

    let mut g = c.benchmark_group("leaf_scan_50k");
    g.sample_size(20);
    g.bench_function("full_leaf_sweep", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for arena in messi.arenas() {
                arena.for_each_leaf(&mut |l| {
                    acc += l.positions.iter().map(|&p| u64::from(p)).sum::<u64>()
                });
            }
            acc
        })
    });
    g.bench_function("range_wide", |b| {
        b.iter(|| messi.search_range(q, nn * 16.0, &qc))
    });
    g.bench_function("exact_1worker", |b| b.iter(|| messi.search(q, &one_worker)));

    // The lower-bound sweep: one mindist table swept over every leaf,
    // 8 entries at a time through the symbol columns, SIMD and scalar —
    // the batched kernel without any search logic around it.
    let segments = messi.sax_config().segments;
    let qp = paa(q, segments);
    let table = MindistTable::new(&qp, messi.sax_config());
    for (name, use_simd) in [
        ("mindist_sweep_soa_simd", true),
        ("mindist_sweep_soa_scalar", false),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0.0f32;
                let mut out = [0.0f32; 8];
                for arena in messi.arenas() {
                    arena.for_each_leaf(&mut |l| {
                        let n = l.positions.len();
                        let mut base = 0;
                        while base < n {
                            let len = (n - base).min(8);
                            table.mindist_sq_soa(
                                l.cols,
                                l.stride,
                                l.base + base,
                                len,
                                use_simd,
                                &mut out,
                            );
                            acc += out[..len].iter().sum::<f32>();
                            base += len;
                        }
                    });
                }
                acc
            })
        });
    }

    // The DTW cascade end to end, SIMD vs forced-scalar: batched SoA
    // envelope mindist + LB_Keogh + banded DTW on one worker, so the
    // kernel difference is not hidden by thread scheduling.
    let params = DtwParams::paper_default(data.series_len());
    for (name, kernel) in [
        ("dtw_1worker_simd", Kernel::Simd),
        ("dtw_1worker_sisd", Kernel::Scalar),
    ] {
        let config = QueryConfig {
            kernel,
            ..one_worker.clone()
        };
        g.bench_function(name, |b| b.iter(|| messi.search_dtw(q, params, &config)));
    }
    g.finish();
}

criterion_group!(
    query,
    bench_competitors,
    bench_ablations,
    bench_batch_schedules,
    bench_leaf_scan
);
criterion_main!(query);
