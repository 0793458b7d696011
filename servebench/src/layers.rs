//! The traced run's per-layer measurements.
//!
//! Each measurement calls one layer's public functions on the
//! workload's own inputs, in process and without HTTP: the query
//! pipeline the daemon runs per request (`proto::decode_query` →
//! `ShardedExecutor::run_one_traced` → `proto::encode_answer`), the
//! engine's Fig. 13 breakdown and counters from `QueryStats`, the
//! distance and mindist kernels, snapshot load, and the ingest path.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use messi_core::ingest::DeltaLog;
use messi_core::serve::proto;
use messi_core::{
    load_sharded, save_sharded, DeltaIndex, IndexConfig, IngestOptions, QueryConfig, QuerySpec,
    QueryStats, ShardedExecutor, ShardedIndex,
};
use messi_sax::{MindistTable, SaxConverter};
use messi_series::distance::euclidean::{ed_sq_early_abandon_with, ed_sq_with};
use messi_series::distance::Kernel;
use messi_series::gen::rng::splitmix64;
use messi_series::paa::paa;
use messi_series::Dataset;

use crate::report::{Checks, Metrics};
use crate::stats;
use crate::trace::{self_times_by_name, Tracer};
use crate::workload::{query_config, Spec};

pub struct Inputs<'a> {
    pub spec: &'a Spec,
    /// The index the query window served.
    pub index: &'a ShardedIndex,
    pub data: &'a Dataset,
    pub queries: &'a Dataset,
    /// In-process answers over the base collection: `(pos, dist_sq)`.
    pub refs: &'a [(u64, f32)],
    pub writes: &'a [Dataset],
    pub work: &'a Path,
}

/// Queries whose summed counters make one repeatability signature.
const REPEAT_QUERIES: usize = 50;
/// Distance-kernel calls per timing loop.
const KERNEL_CALLS: usize = 50_000;
/// Collection entries and queries of the mindist timing loop.
const MINDIST_ENTRIES: usize = 4096;
const MINDIST_QUERIES: usize = 64;
/// Batches of the in-process ingest probe (p90 has 10 samples beyond).
const PROBE_BATCHES: usize = 100;
/// Snapshot loads in the persist probe.
const PROBE_LOADS: usize = 3;
/// Shards of the scatter measurement's index.
const SCATTER_SHARDS: usize = 2;

/// The per-query counters whose repeatability is recorded.
const COUNTS: [&str; 5] = [
    "lb_calcs",
    "real_calcs",
    "nodes_popped",
    "nodes_filtered",
    "bsf_updates",
];

/// Span names whose self time is reported, in report order.
const SPANS: [&str; 15] = [
    "setup",
    "build.index",
    "ingest.log_open",
    "persist.load",
    "ingest.replay",
    "serve.ready",
    "client.query",
    "serve.http",
    "client.check",
    "serve.healthz",
    "serve.ingest",
    "inproc.query",
    "serve.decode",
    "exec.run_one",
    "serve.encode",
];

/// A query's counters, in [`COUNTS`] order.
fn counts_of(s: &QueryStats) -> [u64; 5] {
    [
        s.lb_distance_calcs,
        s.real_distance_calcs,
        s.nodes_popped,
        s.nodes_filtered_on_pop,
        s.bsf_updates,
    ]
}

fn add(sum: &mut [u64; 5], v: [u64; 5]) {
    for (slot, x) in sum.iter_mut().zip(v) {
        *slot += x;
    }
}

/// Summed counters of the first [`REPEAT_QUERIES`] queries, answered
/// in process over the live index's base collection twice: once per
/// pass, so a signature pair shows both same-index and cross-build
/// repeatability.
pub fn count_signature(live: &DeltaIndex, queries: &Dataset, spec: &Spec) -> [[u64; 5]; 2] {
    let index = live.index();
    let exec = index.executor();
    let config = query_config(spec, false);
    let pass = || {
        let mut sig = [0u64; 5];
        for q in queries.iter().take(REPEAT_QUERIES) {
            add(
                &mut sig,
                counts_of(&exec.run_one(q, &QuerySpec::exact(), &config).1),
            );
        }
        sig
    };
    [pass(), pass()]
}

/// One flag per counter: 1 when every signature of the run agrees
/// (two passes over each set-up's index, across all set-ups), else 0.
pub fn repeat_flags(signatures: &[[[u64; 5]; 2]], metrics: &mut Metrics, report: &mut Vec<String>) {
    for (c, name) in COUNTS.iter().enumerate() {
        let same_index = signatures.iter().all(|pair| pair[0][c] == pair[1][c]);
        let across = signatures
            .iter()
            .all(|pair| pair[0][c] == signatures[0][0][c]);
        metrics.put(
            format!("repeat.{name}"),
            f64::from(u8::from(same_index && across)),
            "flag",
        );
        let values: Vec<String> = signatures.iter().map(|p| p[0][c].to_string()).collect();
        report.push(format!(
            "repeat {name}: same index {} · across set-ups {} ({})",
            yes_no(same_index),
            yes_no(across),
            values.join(", ")
        ));
    }
}

fn yes_no(b: bool) -> &'static str {
    if b {
        "repeats"
    } else {
        "DOES NOT REPEAT"
    }
}

/// Median self time per span name (µs).
pub fn self_time_metrics(tracer: &Tracer, metrics: &mut Metrics) {
    let by_name = self_times_by_name(tracer.spans());
    for name in SPANS {
        let v: Vec<f64> = by_name
            .get(name)
            .map(|t| t.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default();
        metrics.put(format!("self.{name}_us"), stats::median(&v), "us");
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The daemon's per-request work — `proto::decode_query` →
/// `ShardedExecutor::run_one_traced` → `proto::encode_answer` — run in
/// process, without HTTP. The traced run interleaves these calls with
/// its HTTP requests, so both see the same machine at the same time.
pub struct Pipeline<'a> {
    exec: ShardedExecutor<'a>,
    config: QueryConfig,
    series_len: usize,
    refs: &'a [(u64, f32)],
    decode: Vec<f64>,
    run: Vec<f64>,
    encode: Vec<f64>,
    allocs: u64,
    /// decode + run_one + encode of each pool query, once measured (µs).
    per_query: Vec<Option<f64>>,
}

impl<'a> Pipeline<'a> {
    pub fn new(
        index: &'a ShardedIndex,
        spec: &Spec,
        queries: &Dataset,
        refs: &'a [(u64, f32)],
    ) -> Self {
        let exec = index.executor();
        let config = query_config(spec, false);
        exec.prewarm(queries.series(0), &QuerySpec::exact(), &config);
        Self {
            exec,
            config,
            series_len: queries.series_len(),
            refs,
            decode: Vec::new(),
            run: Vec::new(),
            encode: Vec::new(),
            allocs: 0,
            per_query: vec![None; queries.len()],
        }
    }

    /// Runs pool query `q` (request id `rid`) from its wire body.
    pub fn run(
        &mut self,
        q: usize,
        body: &[u8],
        rid: u64,
        tracer: &mut Tracer,
        checks: &mut Checks,
    ) {
        let root = tracer.open("inproc.query", None, rid);
        let (decoded, decode_ns) = tracer.span("serve.decode", Some(root), rid, || {
            proto::decode_query(black_box(body), self.series_len)
        });
        let Ok((spec, series)) = decoded else {
            tracer.close(root);
            checks.check(false, || format!("in-process decode of query {q} failed"));
            return;
        };
        let ((answers, query_stats, alloc, _), run_ns) =
            tracer.span("exec.run_one", Some(root), rid, || {
                self.exec.run_one_traced(&series, &spec, &self.config)
            });
        let (text, encode_ns) = tracer.span("serve.encode", Some(root), rid, || {
            proto::encode_answer(&spec, &answers, &query_stats)
        });
        tracer.close(root);
        black_box(text);
        checks.check(
            answers.first().map(|a| (a.pos, a.dist_sq)) == Some(self.refs[q]),
            || format!("in-process query {q} differs from its reference"),
        );
        self.decode.push(us(decode_ns));
        self.run.push(us(run_ns));
        self.encode.push(us(encode_ns));
        self.per_query[q].get_or_insert(us(decode_ns + run_ns + encode_ns));
        self.allocs += alloc;
    }

    /// Puts the pipeline's metrics and returns the per-query times.
    pub fn finish(self, metrics: &mut Metrics, report: &mut Vec<String>) -> Vec<Option<f64>> {
        let run = stats::summarize(&self.run, 990);
        metrics.put("serve.decode_us", stats::median(&self.decode), "us");
        metrics.put("serve.encode_us", stats::median(&self.encode), "us");
        metrics.put("exec.run_one_us", run.p50, "us");
        metrics.put("exec.run_one_p99_us", run.tail, "us");
        metrics.put("exec.alloc_events", self.allocs as f64, "count");
        report.push(format!("in-process run_one: {}", run.render("us")));
        self.per_query
    }
}

/// The traced run's in-process measurements after the query window:
/// the engine breakdown, the kernels, and the persist/ingest probe.
pub fn measure(
    inp: &Inputs<'_>,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    breakdown(inp, metrics);
    scatter(inp, metrics, checks);
    kernels(inp, metrics);
    probe(inp, tracer, metrics)
}

/// `ShardedExecutor::run_one_traced` over a [`SCATTER_SHARDS`]-shard
/// build of the workload's collection, for the executor's time outside
/// the slowest shard's engine (scatter, gather, context checkout) and
/// the LB-calc imbalance between shards. Answers must equal the
/// references.
fn scatter(inp: &Inputs<'_>, metrics: &mut Metrics, checks: &mut Checks) {
    let dataset = Arc::clone(inp.index.dataset());
    let index = ShardedIndex::build(dataset, SCATTER_SHARDS, &IndexConfig::default()).0;
    let exec = index.executor();
    let config = query_config(inp.spec, false);
    exec.prewarm(inp.queries.series(0), &QuerySpec::exact(), &config);
    let (mut overhead, mut imbalance) = (Vec::new(), Vec::new());
    let n = inp.spec.layer_queries.min(inp.queries.len());
    for (i, q) in inp.queries.iter().take(n).enumerate() {
        let t = Instant::now();
        let (answers, _, _, per_shard) = exec.run_one_traced(q, &QuerySpec::exact(), &config);
        let wall = t.elapsed();
        checks.check(
            answers.first().map(|a| (a.pos, a.dist_sq)) == Some(inp.refs[i]),
            || format!("{SCATTER_SHARDS}-shard query {i} differs from its reference"),
        );
        let slowest = per_shard
            .iter()
            .map(|s| s.total_time)
            .max()
            .unwrap_or_default();
        overhead.push(wall.as_secs_f64() * 1e6 - slowest.as_secs_f64() * 1e6);
        let lb: Vec<f64> = per_shard
            .iter()
            .map(|s| s.lb_distance_calcs as f64)
            .collect();
        let mean_lb = stats::mean(&lb);
        if mean_lb > 0.0 {
            imbalance.push(lb.iter().cloned().fold(0.0, f64::max) / mean_lb);
        }
    }
    metrics.put("shard.scatter_overhead_us", stats::median(&overhead), "us");
    metrics.put("shard.imbalance", stats::mean(&imbalance), "ratio");
}

/// The Fig. 13 phase times and the pruning counters, per query, with
/// breakdown collection on.
fn breakdown(inp: &Inputs<'_>, metrics: &mut Metrics) {
    let exec = inp.index.executor();
    let n = inp.spec.layer_queries.min(inp.queries.len());
    let config = query_config(inp.spec, true);
    exec.prewarm(inp.queries.series(0), &QuerySpec::exact(), &config);
    let mut phases = [0u64; 5];
    let mut counts = [0u64; 5];
    for q in inp.queries.iter().take(n) {
        let s = exec.run_one(q, &QuerySpec::exact(), &config).1;
        if let Some(b) = s.breakdown {
            add(
                &mut phases,
                [
                    b.init_ns,
                    b.tree_pass_ns,
                    b.pq_insert_ns,
                    b.pq_remove_ns,
                    b.dist_calc_ns,
                ],
            );
        }
        add(&mut counts, counts_of(&s));
    }
    let mean_of = |v: u64| v as f64 / n.max(1) as f64;
    for (name, v) in ["init", "tree_pass", "pq_insert", "pq_remove", "dist_calc"]
        .iter()
        .zip(phases)
    {
        metrics.put(format!("engine.{name}_us"), mean_of(v) / 1e3, "us");
    }
    for (name, v) in COUNTS.iter().zip(counts) {
        metrics.put(format!("engine.{name}"), mean_of(v), "count");
    }
    metrics.put(
        "engine.real_calc_frac",
        mean_of(counts[1]) / inp.index.num_series() as f64,
        "ratio",
    );
    let popped = counts[2].max(1) as f64;
    metrics.put("engine.pop_filter_frac", counts[3] as f64 / popped, "ratio");
}

/// Distance kernels on (query, random collection member) pairs, and the
/// SoA mindist kernel over full 8-entry chunks.
fn kernels(inp: &Inputs<'_>, metrics: &mut Metrics) {
    let data = inp.data;
    let nq = inp.queries.len();
    let mut state = 0x6B65_726E_656Cu64 ^ data.len() as u64;
    let picks: Vec<(usize, usize)> = (0..KERNEL_CALLS)
        .map(|k| {
            (
                k % nq,
                (splitmix64(&mut state) % data.len() as u64) as usize,
            )
        })
        .collect();
    let time_calls = |f: &dyn Fn(usize, usize) -> f32| -> f64 {
        let t = Instant::now();
        let mut acc = 0.0f32;
        for &(q, s) in &picks {
            acc += f(q, s);
        }
        black_box(acc);
        t.elapsed().as_nanos() as f64 / picks.len() as f64
    };
    for (label, kernel) in [("simd", Kernel::Simd), ("scalar", Kernel::Scalar)] {
        let ed = time_calls(&|q, s| {
            ed_sq_with(
                kernel,
                black_box(inp.queries.series(q)),
                black_box(data.series(s)),
            )
        });
        // Abandon at the query's own nearest-neighbor distance, the
        // bound the engine holds once its answer is found.
        let abandon = time_calls(&|q, s| {
            ed_sq_early_abandon_with(
                kernel,
                black_box(inp.queries.series(q)),
                black_box(data.series(s)),
                inp.refs[q].1,
            )
        });
        metrics.put(format!("series.ed_ns.{label}"), ed, "ns");
        metrics.put(format!("series.ed_abandon_ns.{label}"), abandon, "ns");
    }
    // Computed, not measured: both operands read once per full call.
    metrics.put(
        "series.bytes_per_call",
        (2 * data.series_len() * std::mem::size_of::<f32>()) as f64,
        "B",
    );

    let config = inp.index.shard(0).sax_config();
    let mut converter = SaxConverter::new(config);
    let n = MINDIST_ENTRIES.min(data.len()) / 8 * 8;
    let mut cols = vec![0u8; config.segments * n];
    for i in 0..n {
        let pos = (splitmix64(&mut state) % data.len() as u64) as usize;
        let word = converter.convert(data.series(pos));
        for s in 0..config.segments {
            cols[s * n + i] = word.symbol(s);
        }
    }
    let tables: Vec<MindistTable> = inp
        .queries
        .iter()
        .take(MINDIST_QUERIES)
        .map(|q| MindistTable::new(&paa(q, config.segments), config))
        .collect();
    let use_simd = Kernel::Auto.uses_simd();
    let mut out = [0.0f32; 8];
    let t = Instant::now();
    let mut acc = 0.0f32;
    for table in &tables {
        for base in (0..n).step_by(8) {
            table.mindist_sq_soa(black_box(&cols), n, base, 8, use_simd, &mut out);
            acc += out[0];
        }
    }
    black_box(acc);
    metrics.put(
        "sax.mindist_ns_per_entry",
        t.elapsed().as_nanos() as f64 / (tables.len() * n) as f64,
        "ns",
    );
}

/// Snapshot save + load, delta-log append, `insert_batch` with the log
/// attached, and replay — in a scratch directory, off the daemon.
fn probe(inp: &Inputs<'_>, tracer: &mut Tracer, metrics: &mut Metrics) -> Result<(), String> {
    let dir = inp.work.join("probe");
    let snapshot = dir.join("snapshot");
    save_sharded(inp.index, &snapshot).map_err(|e| format!("probe save: {e}"))?;
    let base = Arc::clone(inp.index.dataset());
    let load = |tracer: &mut Tracer| {
        let t = Instant::now();
        let (loaded, _) = tracer.span("persist.load", None, 0, || {
            load_sharded(&snapshot, Arc::clone(&base))
        });
        loaded
            .map(|index| (index, t.elapsed()))
            .map_err(|e| format!("probe load: {e}"))
    };

    let mut loads = Vec::new();
    for _ in 0..PROBE_LOADS {
        loads.push(load(tracer)?.1.as_secs_f64());
    }
    metrics.put("persist.load_s", stats::median(&loads), "s");
    metrics.put("persist.snapshot_bytes", dir_bytes(&snapshot) as f64, "B");

    let batches: Vec<&Dataset> = inp.writes.iter().cycle().take(PROBE_BATCHES).collect();
    let mut log = DeltaLog::open(
        &dir.join("append.log"),
        base.series_len(),
        base.len() as u64,
        0,
    )
    .map_err(|e| format!("probe log: {e}"))?
    .0;
    let mut appends = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        let (r, ns) = tracer.span("ingest.log_append", None, i as u64, || log.append(b));
        r.map_err(|e| format!("probe append: {e}"))?;
        appends.push(us(ns));
    }
    metrics.put("ingest.log_append_us", stats::median(&appends), "us");

    // Republishing off: the probe times the append-and-publish path alone.
    let options = IngestOptions {
        republish_after: 0,
        max_epoch_age: None,
    };
    let probe_log = dir.join("insert.log");
    let (probe_live, _) = DeltaIndex::with_log(load(tracer)?.0, options.clone(), &probe_log)
        .map_err(|e| format!("probe open: {e}"))?;
    let mut inserts = Vec::new();
    for (i, b) in batches.iter().enumerate() {
        let t = Instant::now();
        let (r, _) = tracer.span("ingest.insert", None, i as u64, || {
            probe_live.insert_batch(b)
        });
        r.map_err(|e| format!("probe insert: {e}"))?;
        inserts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(probe_live);
    let ins = stats::summarize(&inserts, 900);
    metrics.put("ingest.insert_us", ins.p50, "us");
    metrics.put("ingest.insert_p90_us", ins.tail, "us");

    let (index, _) = load(tracer)?;
    let t = Instant::now();
    let (replayed, _) = tracer.span("ingest.replay", None, 0, || {
        DeltaIndex::with_log(index, options, &probe_log)
    });
    let elapsed: Duration = t.elapsed();
    let (replayed, report) = replayed.map_err(|e| format!("probe replay: {e}"))?;
    if report.batches != PROBE_BATCHES || replayed.num_series() == 0 {
        return Err(format!("probe replay recovered {} batches", report.batches));
    }
    metrics.put("ingest.replay_s", elapsed.as_secs_f64(), "s");
    std::fs::remove_dir_all(&dir).map_err(|e| format!("probe cleanup: {e}"))
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
