//! The workloads: inputs from the seed, set-up of the in-process daemon,
//! the measured window, and the answer checks.
//!
//! Every workload runs one `IndexServer` on loopback over a
//! `DeltaIndex` with a delta log, driven by one client process through
//! `serve::Client`. Why each workload exists is in README.md.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use messi_core::serve::json::Json;
use messi_core::serve::{proto, Client};
use messi_core::{
    BuildStats, DeltaIndex, IndexConfig, IndexServer, IngestOptions, QueryConfig, QuerySpec,
    ServeConfig, ShardedIndex,
};
use messi_series::distance::euclidean::ed_sq_early_abandon_scalar;
use messi_series::gen::queries::noisy_queries_from_dataset;
use messi_series::gen::{generate, generate_dataset, DatasetKind};
use messi_series::Dataset;

use crate::layers;
use crate::report::{Checks, Metrics};
use crate::stats;
use crate::trace::Tracer;

/// One named workload.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    kind: DatasetKind,
    series: usize,
    query_workers: usize,
    /// Distinct queries, cycled by the closed-loop client.
    pool: usize,
    /// Queries of the traced run's in-process layer passes.
    pub layer_queries: usize,
    /// Serve the query window and the write phase on one CPU (see
    /// [`serve_phase`]).
    one_cpu: bool,
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "rw100k-exact",
        kind: DatasetKind::RandomWalk,
        series: 100_000,
        query_workers: 1,
        pool: 4000,
        layer_queries: 2000,
        one_cpu: true,
    },
    Spec {
        name: "seismic400k-exact",
        kind: DatasetKind::Seismic,
        series: 400_000,
        query_workers: 2,
        pool: 900,
        layer_queries: 300,
        one_cpu: false,
    },
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Series per ingest batch.
const BATCH: usize = 64;
/// Open-loop ingest rate of the write phase, in batches per second. The
/// phase lasts half the query window; with the default 4096-series
/// republish trigger the daemon republishes every ~2.6 s of it.
const WRITE_RATE_HZ: u64 = 25;
/// Every this many ingested batches, one series is checked to self-match.
const SELF_MATCH_STRIDE: usize = 10;
/// Queries checked against brute force.
const BRUTE_SAMPLE: usize = 8;
/// In the traced run, a `GET /healthz` every this many queries.
const HEALTHZ_EVERY: usize = 4;
/// Queries are collection members plus this much Gaussian noise, as
/// `messi query` and `messi load-smoke` draw them.
const QUERY_NOISE: f32 = 0.1;
/// Seed tag keeping the ingest stream apart from the collection.
const WRITE_TAG: u64 = 0x57_4954_4500;

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a run produced.
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Metrics,
    pub layers: Metrics,
    pub report: Vec<String>,
    pub tracer: Tracer,
}

/// The generated inputs of one run.
struct Inputs {
    data: Arc<Dataset>,
    /// Query bodies and the series the daemon decodes from them.
    bodies: Vec<Vec<u8>>,
    queries: Dataset,
    /// Ingest bodies, and the batches the daemon decodes from them.
    write_bodies: Vec<Vec<u8>>,
    writes: Vec<Dataset>,
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64, seconds: u64) -> Self {
        let data = Arc::new(generate(spec.kind, spec.series, seed));
        let len = data.series_len();
        let raw = noisy_queries_from_dataset(&data, spec.pool, QUERY_NOISE, seed);
        let bodies: Vec<Vec<u8>> = raw.iter().map(query_body).collect();
        let decoded: Vec<f32> = bodies
            .iter()
            .flat_map(|b| proto::decode_query(b, len).expect("own query body").1)
            .collect();
        let queries = Dataset::from_flat(decoded, len).expect("whole queries");

        let n_batches = (WRITE_RATE_HZ * seconds / 2).max(1) as usize;
        let fresh = generate_dataset(
            spec.kind.generator_with_len(seed ^ WRITE_TAG, len).as_ref(),
            n_batches * BATCH,
        );
        let write_bodies: Vec<Vec<u8>> = (0..n_batches)
            .map(|b| ingest_body(&fresh.view(b * BATCH, (b + 1) * BATCH)))
            .collect();
        let writes = write_bodies
            .iter()
            .map(|b| proto::decode_ingest(b, len).expect("own ingest body"))
            .collect();
        Self {
            data,
            bodies,
            queries,
            write_bodies,
            writes,
        }
    }
}

fn push_series(out: &mut String, series: &[f32]) {
    out.push('[');
    for (i, v) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn query_body(series: &[f32]) -> Vec<u8> {
    let mut out = String::from("{\"objective\":\"exact\",\"series\":");
    push_series(&mut out, series);
    out.push('}');
    out.into_bytes()
}

fn ingest_body(batch: &Dataset) -> Vec<u8> {
    let mut out = String::from("{\"series\":[");
    for (i, s) in batch.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_series(&mut out, s);
    }
    out.push_str("]}");
    out.into_bytes()
}

/// A query answer as the wire carries it.
struct WireAnswer {
    pos: u64,
    dist_sq: f64,
    engine_us: f64,
}

fn parse_answer(body: &[u8]) -> Option<WireAnswer> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let first = doc.get("answers")?.as_arr()?.first()?;
    Some(WireAnswer {
        pos: first.get("pos")?.as_f64()? as u64,
        dist_sq: first.get("dist_sq")?.as_f64()?,
        engine_us: doc.get("stats")?.get("time_us")?.as_f64()?,
    })
}

/// `dist_sq` as the wire encodes it (six decimals), parsed back.
fn wire_dist(d: f32) -> f64 {
    format!("{d:.6}").parse().expect("formatted float")
}

/// The squared distance exactly as the engine sums it: the leaf scan
/// and the overlay scan both use the early-abandoning kernel, whose
/// summation order differs from the plain kernel's in the last bits.
fn engine_dist(query: &[f32], series: &[f32]) -> f32 {
    ed_sq_early_abandon_scalar(query, series, f32::INFINITY)
}

/// Whether `(pos, dist_sq)` is the brute-force nearest neighbor of
/// `query` in `data`: same position, and the distance the engine sums
/// for that position.
fn is_brute_force_nn(data: &Dataset, query: &[f32], pos: u64, dist_sq: f64) -> bool {
    let (bf_pos, _) = data.nearest_neighbor_brute_force(query);
    bf_pos as u64 == pos && wire_dist(engine_dist(query, data.series(bf_pos))) == dist_sq
}

/// The engine configuration the daemon uses for this workload.
pub fn query_config(spec: &Spec, breakdown: bool) -> QueryConfig {
    QueryConfig {
        num_workers: spec.query_workers,
        num_queues: spec.query_workers,
        collect_breakdown: breakdown,
        ..QueryConfig::default()
    }
}

/// Confines the calling thread, and every thread it starts afterwards
/// (the daemon's), to the lowest CPU it may run on, and returns that CPU. On a VM, a request that crosses CPUs waits for the
/// host to wake the other, halted vCPU, and that wait swings run to run
/// with the neighbors' load; on one CPU a request costs only its work.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable for the size passed; pid 0 names the
    // calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable for the size passed; pid 0 names the
    // calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Runs `f` against a daemon serving `live` on an ephemeral loopback
/// port, then shuts the daemon down and waits for it.
fn with_server<R>(
    live: &DeltaIndex,
    config: ServeConfig,
    f: impl FnOnce(SocketAddr) -> R,
) -> io::Result<(R, messi_core::ServeSummary)> {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }
    let server = IndexServer::bind("127.0.0.1:0", config)?;
    let addr = server.local_addr()?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve(live, &stop));
        let out = {
            let _stop = StopOnDrop(&stop);
            f(addr)
        };
        let summary = handle
            .join()
            .map_err(|_| io::Error::other("serve thread panicked"))??;
        Ok((out, summary))
    })
}

/// Runs `f` against a daemon serving `live`, as [`with_server`] does,
/// on a thread of its own that first confines itself to one CPU when
/// `spec.one_cpu` says so; the calling thread, and so the set-ups and
/// the layer passes, stay on every CPU. Returns `f`'s result, the
/// daemon's summary and the CPU, if any.
fn serve_phase<R: Send>(
    spec: &Spec,
    live: &DeltaIndex,
    config: &ServeConfig,
    f: impl FnOnce(SocketAddr) -> Result<R, String> + Send,
) -> Result<(R, messi_core::ServeSummary, Option<usize>), String> {
    std::thread::scope(|s| {
        s.spawn(|| {
            let pinned = spec.one_cpu.then(pin_to_one_cpu).flatten();
            let (out, summary) =
                with_server(live, config.clone(), f).map_err(|e| format!("serve: {e}"))?;
            Ok((out?, summary, pinned))
        })
        .join()
        .map_err(|_| "serve phase panicked".to_string())?
    })
}

/// One set-up: from the in-memory dataset to the first `/healthz` 200.
struct SetupTimes {
    total_s: f64,
    /// Build done.
    built_s: f64,
    /// Delta log opened (build + log open).
    staged_s: f64,
    build: BuildStats,
}

/// Connects and sends `GET /healthz` until it answers 200.
fn connect_healthy(addr: SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    loop {
        let resp = client
            .request("GET", "/healthz", b"")
            .map_err(|e| format!("healthz: {e}"))?;
        if resp.status == 200 {
            return Ok(client);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One `/query` request of the window.
struct Request {
    /// Pool index of the query.
    q: usize,
    latency_us: f64,
    traced: bool,
    status: u16,
    body: Vec<u8>,
}

/// The closed-loop query client's record of one window.
#[derive(Default)]
struct QueryLog {
    requests: Vec<Request>,
    transport_errors: u64,
    healthz_us: Vec<f64>,
    healthz_failed: u64,
    /// From the window's start to the last response.
    elapsed: Duration,
}

/// Closed loop over the query pool for `window`. In the
/// traced run the iterations rotate through an untraced request, a
/// traced request and a query through the in-process `pipeline`; every
/// [`HEALTHZ_EVERY`]-th iteration also times a `/healthz` round trip on
/// the same keep-alive connection.
#[allow(clippy::too_many_arguments)]
fn query_loop(
    client: &mut Client,
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    window: Duration,
    tracer: &mut Tracer,
    mut pipeline: Option<&mut layers::Pipeline<'_>>,
    checks: &mut Checks,
) -> QueryLog {
    let mut log = QueryLog::default();
    let start = Instant::now();
    let traced_run = tracer.enabled();
    let mut i = 0usize;
    while start.elapsed() < window {
        if traced_run && i % HEALTHZ_EVERY == 0 {
            let (resp, ns) = tracer.span("serve.healthz", None, i as u64, || {
                client.request("GET", "/healthz", b"")
            });
            match resp {
                Ok(r) if r.status == 200 => log.healthz_us.push(ns as f64 / 1e3),
                _ => log.healthz_failed += 1,
            }
        }
        let q = i % bodies.len();
        let rid = i as u64;
        // A traced run rotates untraced, traced and in-process turns; the
        // rotation shifts by one on every pass over the pool, so each
        // query takes every turn within three passes.
        let turn = (i + i / bodies.len()) % 3;
        if let Some(p) = pipeline.as_deref_mut().filter(|_| turn == 2) {
            p.run(q, &bodies[q], rid, tracer, checks);
            i += 1;
            continue;
        }
        let traced = traced_run && turn == 1;
        let root = if traced {
            Some(tracer.open("client.query", None, rid))
        } else {
            None
        };
        let http = root.map(|r| tracer.open("serve.http", Some(r), rid));
        let t = Instant::now();
        let resp = client.request("POST", "/query", &bodies[q]);
        let us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(h) = http {
            tracer.close(h);
        }
        match resp {
            Ok(r) => {
                if let Some(root) = root {
                    // Parse on the traced path only, so the check shows
                    // as the client's own layer in the span tree.
                    let (_, _) = tracer.span("client.check", Some(root), rid, || {
                        std::hint::black_box(parse_answer(&r.body).is_some())
                    });
                }
                log.requests.push(Request {
                    q,
                    latency_us: us,
                    traced,
                    status: r.status,
                    body: r.body,
                });
            }
            Err(_) => {
                log.transport_errors += 1;
                if let Ok(c) = Client::connect(addr) {
                    *client = c;
                }
            }
        }
        if let Some(root) = root {
            tracer.close(root);
        }
        i += 1;
    }
    log.elapsed = start.elapsed();
    log
}

/// Query p50 in each whole second of the window, from the requests'
/// latencies in send order (a closed loop: they tile the window).
fn per_second_p50(requests: &[Request]) -> Vec<f64> {
    let mut out = Vec::new();
    let (mut clock_us, mut slice) = (0.0, Vec::new());
    for r in requests {
        clock_us += r.latency_us;
        slice.push(r.latency_us);
        if clock_us >= 1e6 * (out.len() + 1) as f64 {
            out.push(stats::median(&slice));
            slice.clear();
        }
    }
    out
}

/// The open-loop writer's record.
#[derive(Default)]
struct WriteLog {
    /// `(ack µs from due, lateness µs, status, total_series after)`.
    acks: Vec<(f64, f64, u16, u64)>,
    transport_errors: u64,
    max_overlay: u64,
}

/// Sends every ingest body on its schedule ([`WRITE_RATE_HZ`] from
/// now), timing each acknowledgement from when the batch was due.
fn write_loop(
    client: &mut Client,
    addr: SocketAddr,
    bodies: &[Vec<u8>],
    live: &DeltaIndex,
    tracer: &mut Tracer,
) -> WriteLog {
    let mut log = WriteLog::default();
    let start = Instant::now();
    for (i, body) in bodies.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / WRITE_RATE_HZ as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let late_us = due.elapsed().as_secs_f64() * 1e6;
        let (resp, _) = tracer.span("serve.ingest", None, i as u64, || {
            client.request("POST", "/ingest", body)
        });
        let ack_us = due.elapsed().as_secs_f64() * 1e6;
        match resp {
            Ok(r) => {
                let total = std::str::from_utf8(&r.body)
                    .ok()
                    .and_then(|t| Json::parse(t).ok())
                    .and_then(|d| d.get("total_series")?.as_f64())
                    .unwrap_or(0.0) as u64;
                log.acks.push((ack_us, late_us, r.status, total));
            }
            Err(_) => {
                log.transport_errors += 1;
                if let Ok(c) = Client::connect(addr) {
                    *client = c;
                }
            }
        }
        log.max_overlay = log.max_overlay.max(live.stats().overlay_series);
    }
    log
}

/// Checks the acknowledgements of a write phase; `base` is the
/// collection size before it. Returns how many leading batches were
/// acknowledged at their expected positions.
fn check_acks(log: &WriteLog, writes: &[Dataset], base: u64, checks: &mut Checks) -> usize {
    for _ in 0..log.transport_errors {
        checks.check(false, || "ingest transport error".into());
    }
    let mut expected = base;
    let mut contiguous = 0;
    for (i, &(_, _, status, total)) in log.acks.iter().enumerate() {
        expected += writes[i].len() as u64;
        let ok = status == 200 && total == expected;
        checks.check(ok, || {
            format!("ingest batch {i}: status {status}, total {total}, expected {expected}")
        });
        if ok && contiguous == i {
            contiguous += 1;
        }
    }
    contiguous
}

/// Queries the first series of every [`SELF_MATCH_STRIDE`]-th of the
/// `acked` batches over HTTP; each must find itself at its appended
/// position at distance 0. A fresh series is a hard query (nothing in
/// the base is close), so only a sample is checked.
fn check_self_matches(
    client: &mut Client,
    writes: &[Dataset],
    acked: usize,
    base: u64,
    checks: &mut Checks,
) {
    let mut pos = base;
    for (i, batch) in writes[..acked].iter().enumerate() {
        if i % SELF_MATCH_STRIDE != 0 {
            pos += batch.len() as u64;
            continue;
        }
        let body = query_body(batch.series(0));
        let got = client
            .request("POST", "/query", &body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| parse_answer(&r.body));
        let ok = matches!(&got, Some(a) if a.pos == pos && a.dist_sq == 0.0);
        checks.check(ok, || {
            format!("ingested series at {pos} did not self-match")
        });
        pos += batch.len() as u64;
    }
}

/// Runs one workload.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let inputs = Inputs::generate(spec, seed, seconds);
    let generated_s = run_start.elapsed().as_secs_f64();
    let serve_config = ServeConfig {
        threads: 1,
        admission: 4,
        query_workers: spec.query_workers,
        ..ServeConfig::default()
    };

    let mut out = Outcome {
        checks: Checks::default(),
        e2e: Metrics::default(),
        layers: Metrics::default(),
        report: Vec::new(),
        tracer: if trace {
            Tracer::new()
        } else {
            Tracer::disabled()
        },
    };
    let log_path = work.join("live.log");
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut signatures: Vec<[[u64; 5]; 2]> = Vec::new();
    let mut live = None;

    // Each set-up boots the daemon as `messi serve --ingest-log` does:
    // build, open a fresh delta log over the collection, serve.
    for round in 0..SETUPS {
        drop(live.take());
        match std::fs::remove_file(&log_path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => {
                return Err(format!("remove log: {e}"));
            }
            _ => {}
        }
        let rid = round as u64;
        let t0 = Instant::now();
        let root = out.tracer.open("setup", None, rid);
        let s = out.tracer.open("build.index", Some(root), rid);
        let (index, build) =
            ShardedIndex::build(Arc::clone(&inputs.data), 1, &IndexConfig::default());
        out.tracer.close(s);
        let built_s = t0.elapsed().as_secs_f64();
        let s = out.tracer.open("ingest.log_open", Some(root), rid);
        let (delta, _) = DeltaIndex::with_log(index, IngestOptions::default(), &log_path)
            .map_err(|e| format!("open log: {e}"))?;
        out.tracer.close(s);
        let staged_s = t0.elapsed().as_secs_f64();
        let ready_span = out.tracer.open("serve.ready", Some(root), rid);
        let tracer = &mut out.tracer;
        let (ready, summary) = with_server(&delta, serve_config.clone(), |addr| {
            connect_healthy(addr)?;
            let total_s = t0.elapsed().as_secs_f64();
            tracer.close(ready_span);
            tracer.close(root);
            Ok::<_, String>(total_s)
        })
        .map_err(|e| format!("serve: {e}"))?;
        check_summary(&summary, &mut out.checks);
        if trace {
            signatures.push(layers::count_signature(&delta, &inputs.queries, spec));
        }
        setups.push(SetupTimes {
            total_s: ready?,
            built_s,
            staged_s,
            build,
        });
        live = Some(delta);
    }
    let live = live.expect("at least one set-up");

    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    out.e2e.put("setup_s", stats::median(&setup_s), "s");
    out.report.push(format!(
        "setup: {} rounds, median {:.4} s (each: {})",
        setups.len(),
        stats::median(&setup_s),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    measure(spec, &inputs, &live, seconds, &serve_config, work, &mut out)?;
    out.report.push(format!(
        "run: inputs generated in {generated_s:.1} s, whole run {:.1} s",
        run_start.elapsed().as_secs_f64(),
    ));

    if trace {
        let median_of = |f: &dyn Fn(&SetupTimes) -> f64| -> f64 {
            stats::median(&setups.iter().map(f).collect::<Vec<_>>())
        };
        out.layers.put(
            "build.summarize_s",
            median_of(&|s| s.build.summarize_time.as_secs_f64()),
            "s",
        );
        out.layers.put(
            "build.tree_s",
            median_of(&|s| s.build.tree_time.as_secs_f64()),
            "s",
        );
        out.layers.put(
            "ingest.log_open_s",
            median_of(&|s| s.staged_s - s.built_s),
            "s",
        );
        out.layers.put(
            "build.prewarm_s",
            median_of(&|s| s.total_s - s.staged_s),
            "s",
        );
        layers::repeat_flags(&signatures, &mut out.layers, &mut out.report);
        layers::self_time_metrics(&out.tracer, &mut out.layers);
    }
    Ok(out)
}

fn check_summary(summary: &messi_core::ServeSummary, checks: &mut Checks) {
    checks.check(summary.failures == 0, || {
        format!("daemon reported {} failed queries", summary.failures)
    });
}

/// The measured part of a run, on the last set-up's index: the query
/// window, the traced run's in-process layer passes, then the write
/// phase. Each phase serves the index from a daemon of its own.
fn measure(
    spec: &Spec,
    inputs: &Inputs,
    live: &DeltaIndex,
    seconds: u64,
    serve_config: &ServeConfig,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let Outcome {
        checks,
        e2e,
        layers: layer_metrics,
        report,
        tracer,
    } = out;
    let data = &inputs.data;
    let queries = &inputs.queries;
    let qcfg = query_config(spec, false);

    // Reference answers from the in-process executor, checked against
    // brute force on a fixed sample.
    let t_refs = Instant::now();
    let base_index = live.index();
    let refs: Vec<(u64, f32)> = {
        let exec = base_index.executor();
        queries
            .iter()
            .map(|q| {
                let a = exec.run_one(q, &QuerySpec::exact(), &qcfg).0[0];
                (a.pos, a.dist_sq)
            })
            .collect()
    };
    for (i, q) in queries.iter().take(BRUTE_SAMPLE).enumerate() {
        let (pos, d) = refs[i];
        checks.check(is_brute_force_nn(data, q, pos, wire_dist(d)), || {
            format!(
                "query {i}: run_one {:?} is not the brute-force answer",
                refs[i]
            )
        });
    }
    let refs_s = t_refs.elapsed().as_secs_f64();

    let mut pipeline = tracer
        .enabled()
        .then(|| layers::Pipeline::new(&base_index, spec, queries, &refs));
    let t_window = Instant::now();
    let (qlog, summary, pinned) = serve_phase(spec, live, serve_config, |addr| {
        let mut client = connect_healthy(addr)?;
        Ok(query_loop(
            &mut client,
            addr,
            &inputs.bodies,
            Duration::from_secs(seconds),
            tracer,
            pipeline.as_mut(),
            checks,
        ))
    })?;
    check_summary(&summary, checks);
    let window_s = t_window.elapsed().as_secs_f64();
    e2e.put(
        "index_bytes_per_series",
        (base_index.node_storage_bytes() + base_index.entry_storage_bytes()) as f64
            / base_index.num_series() as f64,
        "B",
    );

    // The in-process layer passes run before the write phase, so they
    // see the collection the queries saw.
    let per_query = match pipeline {
        Some(p) => {
            let per_query = p.finish(layer_metrics, report);
            let inp = layers::Inputs {
                spec,
                index: &base_index,
                data,
                queries,
                refs: &refs,
                writes: &inputs.writes,
                work,
            };
            layers::measure(&inp, tracer, layer_metrics, checks)?;
            per_query
        }
        None => Vec::new(),
    };
    drop(base_index);

    // The write phase: open-loop 64-series batches, each fsynced to the
    // delta log before it is acknowledged, republishing as the daemon's
    // default triggers say; then the self-match sample over HTTP.
    let t_writes = Instant::now();
    let base = live.num_series();
    let (wlog, summary, _) = serve_phase(spec, live, serve_config, |addr| {
        let mut client = connect_healthy(addr)?;
        let wlog = write_loop(&mut client, addr, &inputs.write_bodies, live, tracer);
        let acked = check_acks(&wlog, &inputs.writes, base, checks);
        check_self_matches(&mut client, &inputs.writes, acked, base, checks);
        Ok(wlog)
    })?;
    check_summary(&summary, checks);
    let writes_s = t_writes.elapsed().as_secs_f64();

    // --- query checks ---
    for _ in 0..qlog.transport_errors {
        checks.check(false, || "query transport error".into());
    }
    for _ in 0..qlog.healthz_failed {
        checks.check(false, || "healthz failed".into());
    }
    checks.attempted += qlog.healthz_us.len() as u64;
    let mut latencies = Vec::with_capacity(qlog.requests.len());
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut wire_gap = Vec::new();
    let mut engine_us = Vec::new();
    for r in &qlog.requests {
        let (q, us, status) = (r.q, r.latency_us, r.status);
        let answer = (status == 200).then(|| parse_answer(&r.body)).flatten();
        let ok =
            matches!(&answer, Some(a) if a.pos == refs[q].0 && a.dist_sq == wire_dist(refs[q].1));
        checks.check(ok, || {
            format!("query {q}: status {status}, answer mismatch")
        });
        latencies.push(us);
        if r.traced {
            traced.push(us);
        } else {
            untraced.push(us);
        }
        if let Some(a) = answer {
            wire_gap.push(us - a.engine_us);
            engine_us.push(a.engine_us);
        }
    }

    report.push(format!(
        "phases: references {refs_s:.1} s · query window {window_s:.1} s · layer passes {:.1} s · writes + self-matches {writes_s:.1} s ({})",
        t_writes.duration_since(t_refs).as_secs_f64() - refs_s - window_s,
        match pinned {
            Some(cpu) => format!("window and writes: client and daemon on CPU {cpu}"),
            None => "client and daemon on every CPU".to_string(),
        },
    ));
    // --- end-to-end metrics (tracing off: the untraced third in a
    // traced run) ---
    let e2e_lat = if tracer.enabled() {
        &untraced
    } else {
        &latencies
    };
    let q = stats::summarize(e2e_lat, 990);
    e2e.put("query_p50_us", q.p50, "us");
    e2e.put("query_p99_us", q.tail, "us");
    e2e.put(
        "query_qps",
        qlog.requests.len() as f64 / qlog.elapsed.as_secs_f64(),
        "1/s",
    );
    let ack: Vec<f64> = wlog.acks.iter().map(|a| a.0).collect();
    let late: Vec<f64> = wlog.acks.iter().map(|a| a.1).collect();
    let a = stats::summarize(&ack, 950);
    e2e.put("ingest_ack_p50_us", a.p50, "us");
    let lateness = stats::summarize(&late, 950);
    let ingest = live.stats();
    report.push(format!("queries: {}", q.render("us")));
    report.push(format!(
        "query p50 per second of the window: {}",
        per_second_p50(&qlog.requests)
            .iter()
            .map(|p| format!("{p:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.push(format!("ingest acks: {}", a.render("us")));
    report.push(format!(
        "ingest generator lateness: p95 {:.1} us · max {:.1} us over {} batches at {WRITE_RATE_HZ} Hz",
        lateness.tail,
        lateness.max,
        late.len(),
    ));
    report.push(format!(
        "ingest: {} republishes ({:.1} ms total), overlay peak {} series",
        ingest.republishes,
        ingest.republish_time.as_secs_f64() * 1e3,
        wlog.max_overlay
    ));
    if !q.tail_supported || !a.tail_supported {
        report.push("WARNING: a tail percentile has fewer than 10 samples beyond it".into());
    }

    if tracer.enabled() {
        let t = stats::summarize(&traced, 990);
        let h = stats::summarize(&qlog.healthz_us, 990);
        let gap = stats::summarize(&wire_gap, 990);
        layer_metrics.put("serve.wire_gap_us", gap.p50, "us");
        layer_metrics.put("serve.http_rtt_us", h.p50, "us");
        layer_metrics.put(
            "serve.request_bytes",
            stats::mean(
                &inputs
                    .bodies
                    .iter()
                    .map(|b| b.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "B",
        );
        layer_metrics.put("trace.overhead_us", t.p50 - q.p50, "us");
        let sum = ["exec.run_one_us", "serve.decode_us", "serve.encode_us"]
            .iter()
            .filter_map(|m| layer_metrics.get(m))
            .sum::<f64>()
            + h.p50;
        layer_metrics.put("trace.layer_sum_ratio", sum / q.p50, "ratio");
        layer_metrics.put("ingest.republishes", ingest.republishes as f64, "count");
        layer_metrics.put(
            "ingest.republish_ms",
            ingest.republish_time.as_secs_f64() * 1e3 / ingest.republishes.max(1) as f64,
            "ms",
        );
        layer_metrics.put("ingest.overlay_series", wlog.max_overlay as f64, "count");
        // The ack tail is a per-layer metric: the batches that wait on an
        // inline republish make a mode of their own near the p95, so it
        // swings between runs (see README.md).
        layer_metrics.put("ingest.ack_p95_us", a.tail, "us");
        layer_metrics.put("ingest.ack_max_us", a.max, "us");
        layer_metrics.put("ingest.lateness_p95_us", lateness.tail, "us");
        layer_metrics.put("ingest.lateness_max_us", lateness.max, "us");
        report.push(format!("traced queries: {}", t.render("us")));
        report.push(format!(
            "engine time in the daemon (stats.time_us): {}",
            stats::summarize(&engine_us, 990).render("us")
        ));
        report.push(format!("healthz round trips: {}", h.render("us")));
        report.push(format!(
            "layer sum: run_one + decode + encode + healthz = {sum:.1} us vs untraced query p50 {:.1} us",
            q.p50
        ));
        // The same sum per request: each untraced request's query is
        // paired with its own in-process layer times plus one measured
        // `/healthz` round trip, so the skew of the engine time carries
        // into the sum the way it does into the latency.
        let (mut predicted, mut actual) = (Vec::new(), Vec::new());
        let untraced_with_layers = qlog
            .requests
            .iter()
            .filter_map(|r| Some((per_query[r.q]?, r)).filter(|_| !r.traced));
        for (k, (layers_us, r)) in untraced_with_layers.enumerate() {
            predicted.push(layers_us + qlog.healthz_us[k % qlog.healthz_us.len().max(1)]);
            actual.push(r.latency_us);
        }
        let paired = stats::median(&predicted) / stats::median(&actual);
        layer_metrics.put("trace.layer_sum_ratio_paired", paired, "ratio");
        report.push(format!(
            "per-request layer sums: p50 {:.1} us vs p50 {:.1} us of the same requests (ratio {paired:.3})",
            stats::median(&predicted),
            stats::median(&actual)
        ));
    }
    Ok(())
}
