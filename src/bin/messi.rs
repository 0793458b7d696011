//! `messi` — command-line interface to the index.
//!
//! ```text
//! messi generate    --kind random --count 100000 --out data.mds [--len 256] [--seed 42]
//! messi build       --data data.mds --save index.msx [--shards N]
//! messi info        --data data.mds [--load index.msx] [--shards N]
//! messi query       --data data.mds [--queries q.mds | --num-queries 10] [--k 5] [--dtw] [--load index.msx] [--shards N]
//! messi range       --data data.mds --epsilon 5.0 [--queries q.mds | --num-queries 5] [--dtw] [--load index.msx] [--shards N]
//! messi bench-query --data data.mds --objective {exact|knn|range|approx} --schedule {intra|inter} [--dtw] [--load index.msx] [--shards N] [--json out.json]
//! messi serve       --data data.mds [--load index.msx] [--addr 127.0.0.1:7700] [--threads N] [--admission N] [--shards N] [--ingest-log delta.log]
//! messi ingest      --addr 127.0.0.1:7700 --data new.mds [--batch N]
//! messi compact     --data data.mds --log delta.log [--load index.msx|dir] [--save index.msx|dir]
//! messi load-smoke  --addr 127.0.0.1:7700 --data data.mds [--clients N] [--per-client M] [--objective …]
//! ```
//!
//! Datasets live in the `.mds` container of `messi::series::io`; built
//! indexes persist in the `.msx` snapshot container of
//! `messi::index::persist` (`build --save` writes one, `--load` answers
//! from it without rebuilding). With `--shards N` the collection is
//! partitioned into N independently-built index shards queried by
//! scatter-gather with a shared cross-shard best-so-far; `--save` then
//! writes a snapshot *directory* (`shard-I.messi` files plus a
//! checksummed manifest) and `--load` of a directory restores it,
//! loading shards in parallel. Queries can come from a second file or be
//! generated on the fly. Searches are exact unless `--objective approx`
//! selects the δ-ε-approximate mode; per-query pruning statistics are
//! printed. `bench-query` drives the pooled query executor over a whole
//! batch — any objective × metric × schedule — and reports aggregate
//! throughput plus the paper's Fig. 13 per-phase breakdown
//! (`--breakdown`); for the approximate objective it additionally
//! reports observed recall and approximation ratio against brute force.
//!
//! `serve` turns the same executor into a long-running daemon (see the
//! README's Serving section); `load-smoke` is its counterpart client.
//! The daemon serves from a live [`messi::DeltaIndex`]: `POST /ingest`
//! appends series behind an epoch seam without blocking queries, and
//! `--ingest-log` makes those appends durable (replayed over the
//! snapshot on restart). `messi ingest` streams a dataset file into a
//! running daemon; `messi compact` folds a delta log back into the
//! dataset (and optional snapshot) offline and truncates it.
//!
//! Exit codes: `0` success, `1` runtime failure (I/O, bad data, smoke
//! assertion), `2` usage error (unknown/contradictory/invalid flags).

use messi::index::serve::{self, SmokeConfig};
use messi::prelude::*;
use messi::series::io::{read_dataset, write_dataset};
use messi::{DeltaIndex, IndexServer, IngestOptions, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = run(command, rest);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("usage error: {msg}\n\nRun `messi help` for the full usage.");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, rest: &[String]) -> Result<(), CliError> {
    if matches!(command, "help" | "--help" | "-h") {
        println!("{USAGE}");
        return Ok(());
    }
    let opts = Opts::parse(rest)?;
    let Some((_, allowed, handler)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(usage(format!("unknown command `{command}`")));
    };
    opts.expect_keys(command, allowed)?;
    handler(&opts)
}

type Handler = fn(&Opts) -> Result<(), CliError>;

/// Each command with the options it accepts and its handler: `run`
/// rejects any other option, and the command's `USAGE` block documents
/// every one of them (a unit test holds the two together).
const COMMANDS: &[(&str, &[&str], Handler)] = &[
    (
        "generate",
        &["kind", "count", "out", "len", "seed"],
        cmd_generate,
    ),
    (
        "build",
        &["data", "save", "shards", "leaf-target"],
        cmd_build,
    ),
    ("info", &["data", "load", "shards", "leaf-target"], cmd_info),
    (
        "query",
        &[
            "data",
            "queries",
            "num-queries",
            "k",
            "dtw",
            "seed",
            "load",
            "kernel",
            "shards",
            "leaf-target",
        ],
        cmd_query,
    ),
    (
        "range",
        &[
            "data",
            "queries",
            "num-queries",
            "epsilon",
            "dtw",
            "seed",
            "load",
            "shards",
            "leaf-target",
        ],
        cmd_range,
    ),
    (
        "bench-query",
        &[
            "data",
            "queries",
            "num-queries",
            "objective",
            "k",
            "epsilon",
            "delta",
            "schedule",
            "parallelism",
            "workers",
            "dtw",
            "breakdown",
            "seed",
            "load",
            "json",
            "kernel",
            "shards",
            "leaf-target",
        ],
        cmd_bench_query,
    ),
    (
        "serve",
        &[
            "data",
            "load",
            "addr",
            "threads",
            "admission",
            "query-workers",
            "breakdown",
            "kernel",
            "shards",
            "leaf-target",
            "ingest-log",
            "republish-after",
        ],
        cmd_serve,
    ),
    (
        "ingest",
        &["addr", "data", "batch", "wait-ready"],
        cmd_ingest,
    ),
    (
        "compact",
        &[
            "data",
            "log",
            "out",
            "load",
            "save",
            "shards",
            "leaf-target",
        ],
        cmd_compact,
    ),
    (
        "load-smoke",
        &[
            "addr",
            "data",
            "clients",
            "per-client",
            "num-queries",
            "seed",
            "objective",
            "k",
            "epsilon",
            "delta",
            "dtw",
            "no-retry",
            "min-shed",
            "max-attempts",
            "wait-ready",
        ],
        cmd_load_smoke,
    ),
];

const USAGE: &str = "messi — in-memory data series indexing (MESSI, ICDE 2020)

USAGE:
  messi generate    --kind <random|seismic|sald> --count <N> --out <file.mds>
                    [--len <points>] [--seed <u64>]
  messi build       --data <file.mds> --save <file.msx|dir> [--shards <N>]
                    [--leaf-target <N|auto>]
  messi info        --data <file.mds> [--load <file.msx|dir>] [--shards <N>]
                    [--leaf-target <N|auto>]
  messi query       --data <file.mds> [--queries <file.mds>] [--num-queries <N>]
                    [--k <K>] [--dtw] [--seed <u64>] [--load <file.msx|dir>]
                    [--kernel <auto|simd|scalar>] [--shards <N>] [--leaf-target <N|auto>]
  messi range       --data <file.mds> --epsilon <dist> [--queries <file.mds>] [--num-queries <N>]
                    [--dtw] [--seed <u64>] [--load <file.msx|dir>] [--shards <N>]
                    [--leaf-target <N|auto>]
  messi bench-query --data <file.mds> [--queries <file.mds>] [--num-queries <N>]
                    [--objective <exact|knn|range|approx>] [--k <K>] [--epsilon <dist|ratio>]
                    [--delta <0..=1>] [--schedule <intra|inter>] [--parallelism <P>]
                    [--workers <Ns>] [--dtw] [--breakdown] [--seed <u64>] [--load <file.msx|dir>]
                    [--json <out.json>] [--kernel <auto|simd|scalar>] [--shards <N>]
                    [--leaf-target <N|auto>]
  messi serve       --data <file.mds> [--load <file.msx|dir>] [--addr <host:port>]
                    [--threads <N>] [--admission <N>] [--query-workers <N>] [--breakdown]
                    [--kernel <auto|simd|scalar>] [--shards <N>] [--leaf-target <N|auto>]
                    [--ingest-log <file.log>] [--republish-after <N>]
  messi ingest      --addr <host:port> --data <file.mds> [--batch <N>]
                    [--wait-ready <seconds>]
  messi compact     --data <file.mds> --log <file.log> [--out <file.mds>]
                    [--load <file.msx|dir>] [--save <file.msx|dir>] [--shards <N>]
                    [--leaf-target <N|auto>]
  messi load-smoke  --addr <host:port> --data <file.mds> [--clients <N>] [--per-client <M>]
                    [--num-queries <N>] [--objective <exact|knn|range|approx>] [--k <K>]
                    [--epsilon <dist|ratio>] [--delta <0..=1>] [--dtw] [--no-retry]
                    [--min-shed <N>] [--max-attempts <N>] [--wait-ready <seconds>] [--seed <u64>]

Generated queries come from the same family as --kind (members + noise
for real-data stand-ins). Searches are exact except `--objective approx`:
there --epsilon is the *relative* error bound (the answer is within
(1+ε) of the true nearest neighbor) and --delta the confidence in [0, 1]
(1 = deterministic guarantee, 0 = home-leaf-only ng-approximate);
observed recall and approximation ratio are reported against brute
force. bench-query answers the whole batch through the pooled query
executor: `--schedule intra` runs queries one by one, each on all
--workers search workers (the paper's protocol); `--schedule inter`
dispenses queries across --parallelism single-threaded workers for
throughput. `--json` additionally writes the aggregate as one JSON
object (the CI benchmark-trajectory artifact).

`build --save` persists the finished index as a versioned, checksummed
snapshot; `--load` on the query commands answers from the snapshot
without rebuilding (the raw dataset is still required — snapshots store
tree structure, and the loader verifies the data fingerprint).

`--shards N` partitions the collection into N contiguous ranges, builds
one independent index per range in parallel, and answers every query by
scatter-gather: shards share one atomic best-so-far, so an answer found
in one shard prunes the others, and merged answers are identical to a
single index's. With `--shards`, `--save` writes a snapshot *directory*
(one shard-I.messi per shard plus a checksummed manifest.messi) instead
of a single file; `--load` of a directory restores the sharded index,
loading the shards in parallel (the shard count then comes from the
manifest, so combining --load with --shards is rejected).

`serve` answers queries over HTTP until SIGTERM/SIGINT, then drains:
POST /query (JSON body), POST /ingest (JSON batch of series), GET
/healthz (ready only after prewarm), GET /metrics (Prometheus text).
`--admission 0` is drain mode (every query sheds with 503 +
Retry-After). `load-smoke` floods a running daemon with concurrent
clients and reports ok/shed/error counts and p50/p99 latency; it exits
non-zero on any client/server error, or when fewer than --min-shed
sheds were observed.

Ingested series are absorbed behind an epoch seam: queries keep
answering from the published index plus a small sealed overlay, and a
background republish folds the overlay into fresh index arenas after
--republish-after series (default 4096) or when the epoch outlives 5s.
With --ingest-log every accepted batch is appended to a framed,
checksummed, fsynced delta log *before* it becomes visible; restarting
with the same --ingest-log (and the matching --data/--load) replays
the log, so acknowledged series survive a crash. A torn tail (crash
mid-append) is detected, reported and dropped. `messi ingest` streams
the series of a .mds file into a running daemon in batches, retrying
shed (503) batches. `messi compact` folds a delta log into its base
collection offline: it replays the log, rewrites --data (or --out)
with the grown collection (tmp + atomic rename), optionally re-saves
the snapshot (--save), and truncates the log to a fresh header over
the new base.

`--leaf-target` sets the build-time leaf split threshold (the paper's
default is 2000); `auto` derives it from the dataset size (one leaf per
~512 series, clamped to [64, 2000]) so small collections still fan out.
Smaller leaves sharpen per-leaf pruning bounds; the derived leaf-run
metadata keeps SIMD utilization high by batching adjacent small leaves
into contiguous scans, always (`messi info` prints the run-length
histogram). Like
--shards, --leaf-target applies at build time only and does not combine
with --load.

`--kernel` forces the distance-kernel dispatch on query, bench-query and
serve: `auto` (default) uses AVX2+FMA when the CPU has it, `simd` asks
for it explicitly, `scalar` (alias `sisd`, the paper's name) forces the
bit-identical scalar twins — the Fig. 18 SIMD-vs-SISD ablation as a
flag. Answers are identical either way; only the speed changes.

Contradictory flags are rejected with exit code 2: an option a command
does not know, or one whose objective does not apply (e.g. --epsilon
with --objective exact, --delta with knn, --k with range).";

/// CLI failure, split by exit code: usage errors (bad/contradictory
/// flags) exit 2, runtime errors (I/O, bad data, failed assertions)
/// exit 1.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Runtime(msg)
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// Parsed `--key value` options.
struct Opts(Vec<(String, String)>);

/// Options that are bare flags (no value).
const FLAG_KEYS: &[&str] = &["dtw", "breakdown", "no-retry"];

impl Opts {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(usage(format!("expected --option, got `{key}`")));
            };
            if FLAG_KEYS.contains(&name) {
                out.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| usage(format!("--{name} needs a value")))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Self(out))
    }

    /// Rejects any option the command does not understand — the
    /// alternative is a flag that silently does nothing.
    fn expect_keys(&self, command: &str, allowed: &[&str]) -> Result<(), CliError> {
        for (key, _) in &self.0 {
            if !allowed.contains(&key.as_str()) {
                return Err(usage(format!(
                    "`messi {command}` does not accept --{key} (allowed: {})",
                    allowed
                        .iter()
                        .map(|k| format!("--{k}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                )));
            }
        }
        Ok(())
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| usage(format!("missing --{name}")))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| usage(format!("invalid --{name}: `{v}`"))),
        }
    }
}

/// Parses `--kernel`, defaulting to auto-dispatch. Unknown spellings are
/// usage errors (exit 2), like any other contradictory flag.
fn kernel_from(opts: &Opts) -> Result<Kernel, CliError> {
    match opts.get("kernel") {
        None => Ok(Kernel::Auto),
        Some(v) => v.parse().map_err(usage),
    }
}

fn kind_from(name: &str) -> Result<DatasetKind, CliError> {
    match name {
        "random" | "random-walk" => Ok(DatasetKind::RandomWalk),
        "seismic" => Ok(DatasetKind::Seismic),
        "sald" => Ok(DatasetKind::Sald),
        other => Err(usage(format!(
            "unknown kind `{other}` (random|seismic|sald)"
        ))),
    }
}

fn load(opts: &Opts) -> Result<Arc<Dataset>, CliError> {
    let path = PathBuf::from(opts.required("data")?);
    read_dataset(&path)
        .map(Arc::new)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", path.display())))
}

fn cmd_generate(opts: &Opts) -> Result<(), CliError> {
    let kind = kind_from(opts.required("kind")?)?;
    let count: usize = opts
        .required("count")?
        .parse()
        .map_err(|_| usage("invalid --count"))?;
    let out = PathBuf::from(opts.required("out")?);
    let len: usize = opts.parsed("len", kind.paper_series_len())?;
    if len == 0 {
        return Err(usage("--len must be positive"));
    }
    let seed: u64 = opts.parsed("seed", 42u64)?;
    let generator = kind.generator_with_len(seed, len);
    let t = std::time::Instant::now();
    let ds = messi::series::gen::generate_dataset(generator.as_ref(), count);
    write_dataset(&ds, &out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "wrote {} series × {} points ({} MB) to {} in {:.2?}",
        ds.len(),
        ds.series_len(),
        ds.raw_bytes() / (1 << 20),
        out.display(),
        t.elapsed()
    );
    Ok(())
}

/// Parses and validates `--shards` (default 1 — a single index).
fn shards_from(opts: &Opts, data: &Arc<Dataset>) -> Result<usize, CliError> {
    let shards: usize = opts.parsed("shards", 1usize)?;
    if shards == 0 {
        return Err(usage("--shards must be positive"));
    }
    if shards > data.len() {
        return Err(usage(format!(
            "--shards {shards} exceeds the collection size ({} series)",
            data.len()
        )));
    }
    Ok(shards)
}

/// Parses `--leaf-target` (a split threshold, or `auto` to derive one
/// from the dataset size) into the build configuration. Absent, the
/// paper default (2000) applies.
fn index_config_from(opts: &Opts, data: &Arc<Dataset>) -> Result<IndexConfig, CliError> {
    let mut config = IndexConfig::default();
    match opts.get("leaf-target") {
        None => {}
        Some("auto") => config.leaf_capacity = messi::index::auto_leaf_capacity(data.len()),
        Some(v) => {
            config.leaf_capacity = v.parse().ok().filter(|&c: &usize| c > 0).ok_or_else(|| {
                usage(format!(
                    "invalid --leaf-target: `{v}` (expected a positive number or `auto`)"
                ))
            })?;
        }
    }
    Ok(config)
}

/// Builds the (possibly sharded) index or loads it from a `--load`
/// snapshot — a single `.msx` file becomes the one-shard case, a
/// snapshot directory restores the recorded partition. Build stats are
/// only available when the index was actually built.
fn obtain_index(
    opts: &Opts,
    data: &Arc<Dataset>,
) -> Result<(ShardedIndex, Option<BuildStats>), CliError> {
    if let Some(path) = opts.get("load") {
        if opts.get("shards").is_some() {
            return Err(usage(
                "--shards does not combine with --load \
                 (a snapshot's manifest fixes its shard count)",
            ));
        }
        if opts.get("leaf-target").is_some() {
            return Err(usage(
                "--leaf-target does not combine with --load \
                 (a snapshot fixes its tree shape at build time)",
            ));
        }
        let t = std::time::Instant::now();
        let path_buf = PathBuf::from(path);
        let index = if path_buf.is_dir() {
            messi::index::shard::load_sharded(&path_buf, Arc::clone(data))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?
        } else {
            ShardedIndex::from_single(
                messi::index::persist::load_index(&path_buf, Arc::clone(data))
                    .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?,
            )
        };
        println!(
            "index loaded from {path} ({} shard{}) in {:.2?}",
            index.num_shards(),
            if index.num_shards() == 1 { "" } else { "s" },
            t.elapsed()
        );
        Ok((index, None))
    } else {
        let shards = shards_from(opts, data)?;
        let config = index_config_from(opts, data)?;
        let (index, stats) = ShardedIndex::build(Arc::clone(data), shards, &config);
        Ok((index, Some(stats)))
    }
}

fn cmd_build(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    let out = PathBuf::from(opts.required("save")?);
    if let Some((pos, idx)) = data.find_non_finite() {
        return Err(CliError::Runtime(format!(
            "series {pos} has a non-finite value at point {idx}; \
             similarity search over NaN/∞ is undefined"
        )));
    }
    let sharded = opts.get("shards").is_some();
    let shards = shards_from(opts, &data)?;
    let config = index_config_from(opts, &data)?;
    let (index, stats) = ShardedIndex::build(Arc::clone(&data), shards, &config);
    println!(
        "index: {} series built in {:.2?} across {} shard{} (summaries {:.2?} + tree {:.2?})",
        stats.num_series,
        stats.total_time,
        shards,
        if shards == 1 { "" } else { "s" },
        stats.summarize_time,
        stats.tree_time
    );
    let t = std::time::Instant::now();
    if sharded {
        // --shards selects the directory snapshot even at N = 1, so a
        // sharded deployment's layout does not flip on the shard count.
        messi::index::shard::save_sharded(&index, &out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        let bytes: u64 = std::fs::read_dir(&out)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        println!(
            "snapshot: {:.1} MB across {} shard files written to {}/ in {:.2?}",
            bytes as f64 / (1 << 20) as f64,
            index.num_shards(),
            out.display(),
            t.elapsed()
        );
    } else {
        messi::index::persist::save_index(index.shard(0), &out)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
        println!(
            "snapshot: {:.1} MB written to {} in {:.2?}",
            bytes as f64 / (1 << 20) as f64,
            out.display(),
            t.elapsed()
        );
    }
    Ok(())
}

fn cmd_info(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    println!(
        "dataset: {} series × {} points, {} MB raw",
        data.len(),
        data.series_len(),
        data.raw_bytes() / (1 << 20)
    );
    if let Some((pos, idx)) = data.find_non_finite() {
        return Err(CliError::Runtime(format!(
            "series {pos} has a non-finite value at point {idx}; \
             similarity search over NaN/∞ is undefined"
        )));
    }
    let (index, stats) = obtain_index(opts, &data)?;
    if let Some(stats) = stats {
        println!(
            "index:   built in {:.2?} (summaries {:.2?} + tree {:.2?})",
            stats.total_time, stats.summarize_time, stats.tree_time
        );
    }
    let root_subtrees: usize = index.shards().iter().map(|s| s.touched_keys().len()).sum();
    println!(
        "shape:   {} shard{}, {} leaves across {} root subtrees, height ≤ {}",
        index.num_shards(),
        if index.num_shards() == 1 { "" } else { "s" },
        index.num_leaves(),
        root_subtrees,
        index.max_height()
    );
    if index.num_shards() > 1 {
        for (i, shard) in index.shards().iter().enumerate() {
            println!(
                "         shard {i}: positions {}..{} ({} series, {} leaves)",
                index.shard_offset(i),
                index.shard_offset(i) + shard.num_series() as u64,
                shard.num_series(),
                shard.num_leaves()
            );
        }
    }
    println!(
        "         leaf fill factor {:.1}% (capacity {}), {} entries",
        100.0 * index.leaf_fill_factor(),
        index.shard(0).config().leaf_capacity,
        index.num_entries()
    );
    let shapes: Vec<(usize, usize)> = index.shards().iter().flat_map(|s| s.run_shapes()).collect();
    let runs = shapes.len().max(1);
    let (run_leaves, run_entries) = shapes
        .iter()
        .fold((0usize, 0usize), |(l, e), s| (l + s.0, e + s.1));
    let mut hist = [0usize; 4];
    for s in &shapes {
        hist[match s.0 {
            0..=1 => 0,
            2..=4 => 1,
            5..=8 => 2,
            _ => 3,
        }] += 1;
    }
    println!(
        "         leaf runs {runs} ({:.2} leaves/run, {:.1} entries/run); \
         leaves-per-run histogram: 1:{} 2-4:{} 5-8:{} 9+:{}",
        run_leaves as f64 / runs as f64,
        run_entries as f64 / runs as f64,
        hist[0],
        hist[1],
        hist[2],
        hist[3],
    );
    println!(
        "storage: node arenas {:.2} MB + leaf entries {:.2} MB (positions + symbol columns, flat)",
        index.node_storage_bytes() as f64 / (1 << 20) as f64,
        index.entry_storage_bytes() as f64 / (1 << 20) as f64
    );
    Ok(())
}

fn queries_for_cli(opts: &Opts, data: &Arc<Dataset>) -> Result<Dataset, CliError> {
    if let Some(qpath) = opts.get("queries") {
        let qs = read_dataset(&PathBuf::from(qpath))
            .map_err(|e| CliError::Runtime(format!("{qpath}: {e}")))?;
        if qs.series_len() != data.series_len() {
            return Err(CliError::Runtime(format!(
                "query length {} ≠ dataset length {}",
                qs.series_len(),
                data.series_len()
            )));
        }
        return Ok(qs);
    }
    let n: usize = opts.parsed("num-queries", 10usize)?;
    if n == 0 {
        return Err(usage("--num-queries must be positive"));
    }
    let seed: u64 = opts.parsed("seed", 42u64)?;
    Ok(messi::series::gen::queries::noisy_queries_from_dataset(
        data, n, 0.1, seed,
    ))
}

fn cmd_query(opts: &Opts) -> Result<(), CliError> {
    let k: usize = opts.parsed("k", 1usize)?;
    if k == 0 {
        return Err(usage("--k must be positive"));
    }
    let data = load(opts)?;
    let queries = queries_for_cli(opts, &data)?;
    let use_dtw = opts.get("dtw").is_some();
    let (index, build) = obtain_index(opts, &data)?;
    if let Some(build) = &build {
        println!("index built in {:.2?}", build.total_time);
    }
    println!("answering {} queries…", queries.len());
    let config = QueryConfig {
        kernel: kernel_from(opts)?,
        ..QueryConfig::default()
    };
    let mut spec = if k > 1 {
        QuerySpec::knn(k)
    } else {
        QuerySpec::exact()
    };
    if use_dtw {
        spec = spec.with_dtw(DtwParams::paper_default(data.series_len()));
    }
    let exec = index.executor();
    let tag = if use_dtw { "dtw " } else { "" };
    for (qi, q) in queries.iter().enumerate() {
        let (answers, stats) = exec.run_one(q, &spec, &config);
        if k > 1 {
            let list: Vec<String> = answers
                .iter()
                .map(|a| format!("#{}@{:.3}", a.pos, a.distance()))
                .collect();
            println!(
                "query {qi}: {tag}top-{k} [{}] in {:.2?}",
                list.join(", "),
                stats.total_time
            );
        } else {
            let ans = &answers[0];
            println!(
                "query {qi}: {tag}nn=series#{} dist={:.4} in {:.2?} ({} real distances, {:.2}% pruned)",
                ans.pos,
                ans.distance(),
                stats.total_time,
                stats.real_distance_calcs,
                100.0 * (1.0 - stats.real_distance_calcs as f64 / data.len() as f64)
            );
        }
    }
    Ok(())
}

fn cmd_range(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    let epsilon: f32 = opts
        .required("epsilon")?
        .parse()
        .map_err(|_| usage("invalid --epsilon"))?;
    if epsilon.is_nan() || epsilon < 0.0 {
        return Err(usage("--epsilon must be non-negative"));
    }
    let use_dtw = opts.get("dtw").is_some();
    let queries = queries_for_cli(opts, &data)?;
    let (index, _) = obtain_index(opts, &data)?;
    let config = QueryConfig::default();
    // User supplies a distance; the search APIs want it squared.
    let epsilon_sq = epsilon * epsilon;
    let mut spec = QuerySpec::range(epsilon_sq);
    if use_dtw {
        spec = spec.with_dtw(DtwParams::paper_default(data.series_len()));
    }
    let exec = index.executor();
    for (qi, q) in queries.iter().enumerate() {
        let (matches, stats) = exec.run_one(q, &spec, &config);
        let preview: Vec<String> = matches
            .iter()
            .take(8)
            .map(|a| format!("#{}@{:.3}", a.pos, a.distance()))
            .collect();
        println!(
            "query {qi}: {} series within {}ε={epsilon} in {:.2?} [{}{}]",
            matches.len(),
            if use_dtw { "DTW " } else { "" },
            stats.total_time,
            preview.join(", "),
            if matches.len() > 8 { ", …" } else { "" }
        );
    }
    Ok(())
}

/// Rejects objective-dependent flags that the selected objective does
/// not use — they would otherwise be accepted and silently ignored.
fn validate_objective_flags(opts: &Opts, objective: &str) -> Result<(), CliError> {
    let reject = |flag: &str, why: &str| -> Result<(), CliError> {
        if opts.get(flag).is_some() {
            Err(usage(format!(
                "--{flag} does not apply to --objective {objective} ({why})"
            )))
        } else {
            Ok(())
        }
    };
    match objective {
        "exact" => {
            reject("k", "--k selects the knn objective's answer count")?;
            reject(
                "epsilon",
                "--epsilon is the range radius or approx error bound",
            )?;
            reject("delta", "--delta is the approx confidence")?;
        }
        "knn" => {
            reject(
                "epsilon",
                "--epsilon is the range radius or approx error bound",
            )?;
            reject("delta", "--delta is the approx confidence")?;
        }
        "range" => {
            reject("k", "--k selects the knn objective's answer count")?;
            reject("delta", "--delta is the approx confidence")?;
        }
        "approx" => {
            reject("k", "--k selects the knn objective's answer count")?;
        }
        other => {
            return Err(usage(format!(
                "unknown objective `{other}` (exact|knn|range|approx)"
            )))
        }
    }
    Ok(())
}

/// Parses `--objective` and its dependent flags into an [`Objective`],
/// rejecting contradictory combinations.
fn objective_from(opts: &Opts) -> Result<Objective, CliError> {
    let name = opts.get("objective").unwrap_or("exact");
    validate_objective_flags(opts, name)?;
    match name {
        "exact" => Ok(Objective::Exact),
        "knn" => {
            let k: usize = opts.parsed("k", 10usize)?;
            if k == 0 {
                return Err(usage("--k must be positive"));
            }
            Ok(Objective::Knn { k })
        }
        "range" => {
            let epsilon: f32 = opts
                .required("epsilon")?
                .parse()
                .map_err(|_| usage("invalid --epsilon"))?;
            if epsilon.is_nan() || epsilon < 0.0 {
                return Err(usage("--epsilon must be non-negative"));
            }
            Ok(Objective::Range {
                epsilon_sq: epsilon * epsilon,
            })
        }
        "approx" => {
            // For the approximate objective, --epsilon is the *relative*
            // error bound (a ratio, not a distance) and --delta the
            // confidence; the defaults give the deterministic ε-approximate
            // mode with a 5% error bound.
            let epsilon: f32 = opts.parsed("epsilon", 0.05f32)?;
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(usage("--epsilon must be a finite non-negative ratio"));
            }
            let delta: f32 = opts.parsed("delta", 1.0f32)?;
            if !(0.0..=1.0).contains(&delta) {
                return Err(usage("--delta must be within [0, 1]"));
            }
            Ok(Objective::Approx { epsilon, delta })
        }
        _ => unreachable!("validate_objective_flags rejected unknown objectives"),
    }
}

fn cmd_bench_query(opts: &Opts) -> Result<(), CliError> {
    let data = load(opts)?;
    let queries = queries_for_cli(opts, &data)?;
    if queries.is_empty() {
        return Err(CliError::Runtime(
            "bench-query needs at least one query".into(),
        ));
    }

    // ---- What to run: one cell of the Objective × Metric matrix ----
    let objective = objective_from(opts)?;
    let metric = if opts.get("dtw").is_some() {
        MetricSpec::Dtw(DtwParams::paper_default(data.series_len()))
    } else {
        MetricSpec::Euclidean
    };
    let spec = QuerySpec { objective, metric };

    // ---- How to run it: schedule and worker configuration ----
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let schedule_name = opts.get("schedule").unwrap_or("intra");
    let schedule = match schedule_name {
        "intra" => {
            if opts.get("parallelism").is_some() {
                return Err(usage(
                    "--parallelism only applies to --schedule inter \
                     (intra parallelizes inside each query via --workers)",
                ));
            }
            Schedule::IntraQuery
        }
        "inter" => {
            if opts.get("workers").is_some() {
                return Err(usage(
                    "--workers only applies to --schedule intra \
                     (inter runs each query single-threaded via --parallelism)",
                ));
            }
            let parallelism: usize = opts.parsed("parallelism", cores)?;
            if parallelism == 0 {
                return Err(usage("--parallelism must be positive"));
            }
            Schedule::InterQuery { parallelism }
        }
        other => return Err(usage(format!("unknown schedule `{other}` (intra|inter)"))),
    };
    let config = QueryConfig {
        num_workers: opts.parsed("workers", QueryConfig::default().num_workers)?,
        collect_breakdown: opts.get("breakdown").is_some(),
        kernel: kernel_from(opts)?,
        ..QueryConfig::default()
    };
    if config.num_workers == 0 {
        return Err(usage("--workers must be positive"));
    }

    let (index, build) = obtain_index(opts, &data)?;
    println!(
        "bench-query: {} queries · {} · {} · {} · {} shard{}",
        queries.len(),
        describe_objective(&objective),
        describe_metric(&metric),
        describe_schedule(&schedule, config.num_workers),
        index.num_shards(),
        if index.num_shards() == 1 { "" } else { "s" },
    );
    match &build {
        Some(build) => println!(
            "index: {} series built in {:.2?}",
            data.len(),
            build.total_time
        ),
        None => println!("index: {} series (from snapshot)", data.len()),
    }

    // One executor serves the whole batch from warm pooled contexts,
    // sized to the schedule's concurrency (intra uses a single context);
    // the prewarm keeps first-query allocations out of the measured
    // window without running more unmeasured queries than needed.
    let pool_size = match schedule {
        Schedule::IntraQuery => 1,
        Schedule::InterQuery { parallelism } => parallelism,
    };
    let exec = ShardedExecutor::with_capacity(&index, pool_size);
    exec.prewarm(queries.series(0), &spec, &config);
    let t = std::time::Instant::now();
    let (answers, agg) = exec.run_batch(&queries, &spec, schedule, &config);
    let wall = t.elapsed();

    let n = queries.len() as f64;
    let total_answers: usize = answers.iter().map(Vec::len).sum();
    println!(
        "batch: answered in {:.2?} → {:.1} queries/s (mean {:.3?}/query), {} answers total",
        wall,
        n / wall.as_secs_f64(),
        agg.mean_time(),
        total_answers
    );
    println!(
        "latency: p50 {} µs · p99 {} µs · max {} µs",
        agg.latency_percentile_us(50.0).unwrap_or(0),
        agg.latency_percentile_us(99.0).unwrap_or(0),
        agg.latency_percentile_us(100.0).unwrap_or(0),
    );
    println!(
        "pruning: {:.1} lb calcs/query · {:.1} real calcs/query · {:.1} bsf updates/query",
        agg.mean_lb_calcs(),
        agg.mean_real_calcs(),
        agg.bsf_updates as f64 / n
    );
    if let Objective::Approx { epsilon, delta } = objective {
        // Quality report (outside the timed window): brute-force the true
        // 1-NN per query and compare. DTW brute force is intentionally
        // skipped — it would dwarf the measured batch.
        match metric {
            MetricSpec::Euclidean => {
                let mut within_bound = 0usize;
                let mut exact_hits = 0usize;
                let mut ratio_sum = 0.0f64;
                let mut ratio_max = 0.0f64;
                let factor = (1.0 + epsilon as f64) * (1.0 + epsilon as f64);
                for (qi, q) in queries.iter().enumerate() {
                    let (_, true_nn) = data.nearest_neighbor_brute_force(q);
                    let got = answers[qi][0].dist_sq as f64;
                    let ratio = if true_nn > 0.0 {
                        (got / true_nn as f64).sqrt()
                    } else {
                        1.0
                    };
                    ratio_sum += ratio;
                    ratio_max = ratio_max.max(ratio);
                    if got <= true_nn as f64 * (1.0 + 1e-3) {
                        exact_hits += 1;
                    }
                    if got <= factor * true_nn as f64 * (1.0 + 1e-3) {
                        within_bound += 1;
                    }
                }
                println!(
                    "quality: recall@1 {:.1}% · within (1+ε) {:.1}% (δ target {:.1}%) · \
                     approx ratio mean {:.4} / max {:.4}",
                    100.0 * exact_hits as f64 / n,
                    100.0 * within_bound as f64 / n,
                    100.0 * delta as f64,
                    ratio_sum / n,
                    ratio_max
                );
            }
            MetricSpec::Dtw(_) => {
                println!("quality: (skipped — DTW brute force would dwarf the batch)");
            }
        }
        println!(
            "approx:  {} / {} queries stopped on the δ budget · {:.1} ε-inflation prunes/query",
            agg.budget_stops,
            agg.queries,
            agg.approx_inflation_prunes as f64 / n
        );
    }
    if let Some(b) = agg.mean_breakdown() {
        println!(
            "breakdown (mean µs/query): init {:.0} · tree pass {:.0} · pq insert {:.0} · \
             pq remove {:.0} · dist calc {:.0}",
            b.init_ns as f64 / 1e3,
            b.tree_pass_ns as f64 / 1e3,
            b.pq_insert_ns as f64 / 1e3,
            b.pq_remove_ns as f64 / 1e3,
            b.dist_calc_ns as f64 / 1e3,
        );
    }

    // ---- Machine-readable aggregate for the CI benchmark trajectory ----
    if let Some(json_path) = opts.get("json") {
        let breakdown = agg.mean_breakdown().map(|b| {
            format!(
                ",\"phase_mean_ns\":{{\"init\":{},\"tree_pass\":{},\"pq_insert\":{},\
                 \"pq_remove\":{},\"dist_calc\":{}}}",
                b.init_ns, b.tree_pass_ns, b.pq_insert_ns, b.pq_remove_ns, b.dist_calc_ns
            )
        });
        let build_field = build
            .as_ref()
            .map(|b| format!(",\"build_us\":{}", b.total_time.as_micros()))
            .unwrap_or_default();
        let line = format!(
            "{{\"objective\":\"{}\",\"metric\":\"{}\",\"schedule\":\"{}\",\"kernel\":\"{}\",\
             \"shards\":{},\"available_cores\":{},\"queries\":{},\
             \"wall_us\":{},\"qps\":{:.3},\"mean_query_us\":{},\
             \"p50_us\":{},\"p99_us\":{},\"max_us\":{},\"lb_calcs_per_query\":{:.3},\
             \"real_calcs_per_query\":{:.3},\"bsf_updates\":{},\"budget_stops\":{},\
             \"total_answers\":{}{}{}}}",
            match objective {
                Objective::Exact => "exact",
                Objective::Knn { .. } => "knn",
                Objective::Range { .. } => "range",
                Objective::Approx { .. } => "approx",
            },
            if matches!(metric, MetricSpec::Euclidean) {
                "ed"
            } else {
                "dtw"
            },
            schedule_name,
            match config.kernel {
                Kernel::Auto => "auto",
                Kernel::Simd => "simd",
                Kernel::Scalar => "scalar",
            },
            index.num_shards(),
            cores,
            agg.queries,
            wall.as_micros(),
            n / wall.as_secs_f64(),
            agg.mean_time().as_micros(),
            agg.latency_percentile_us(50.0).unwrap_or(0),
            agg.latency_percentile_us(99.0).unwrap_or(0),
            agg.latency_percentile_us(100.0).unwrap_or(0),
            agg.mean_lb_calcs(),
            agg.mean_real_calcs(),
            agg.bsf_updates,
            agg.budget_stops,
            total_answers,
            build_field,
            breakdown.unwrap_or_default(),
        );
        std::fs::write(json_path, format!("{line}\n")).map_err(|e| format!("{json_path}: {e}"))?;
        println!("json: aggregate written to {json_path}");
    }
    Ok(())
}

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.get("addr").unwrap_or("127.0.0.1:7700").to_string();
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        threads: opts.parsed("threads", defaults.threads)?,
        admission: opts.parsed("admission", defaults.admission)?,
        query_workers: opts.parsed("query-workers", defaults.query_workers)?,
        collect_breakdown: opts.get("breakdown").is_some(),
        kernel: kernel_from(opts)?,
    };
    if config.threads == 0 {
        return Err(usage("--threads must be positive"));
    }
    if config.query_workers == 0 {
        return Err(usage("--query-workers must be positive"));
    }

    // Install the SIGTERM/SIGINT handler before any long-running work so
    // an early signal still drains cleanly.
    let shutdown = serve::shutdown_flag();

    let data = load(opts)?;
    if let Some((pos, idx)) = data.find_non_finite() {
        return Err(CliError::Runtime(format!(
            "series {pos} has a non-finite value at point {idx}; refusing to serve"
        )));
    }
    let (index, build) = obtain_index(opts, &data)?;
    if let Some(build) = build {
        println!(
            "index: {} series built in {:.2?}",
            data.len(),
            build.total_time
        );
    }
    let num_shards = index.num_shards();
    let live = live_index_from(opts, index)?;
    let server = IndexServer::bind(addr.as_str(), config.clone())
        .map_err(|e| CliError::Runtime(format!("bind {addr}: {e}")))?;
    let bound = server
        .local_addr()
        .map_err(|e| CliError::Runtime(format!("local_addr: {e}")))?;
    println!(
        "serve: listening on {bound} (threads={} admission={} query-workers={} shards={} series={}{})",
        config.threads,
        config.admission,
        config.query_workers,
        num_shards,
        live.num_series(),
        if config.admission == 0 {
            ", DRAIN MODE"
        } else {
            ""
        },
    );
    // The boot and stats lines must reach a supervising harness promptly
    // even when stdout is a pipe (block-buffered).
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let summary = server
        .serve(&live, shutdown)
        .map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
    println!(
        "serve: drained cleanly — served={} shed={} failures={} \
         lb_calcs={} real_calcs={} query_seconds={:.3}",
        summary.served,
        summary.shed,
        summary.failures,
        summary.aggregate.lb_distance_calcs,
        summary.aggregate.real_distance_calcs,
        summary.aggregate.total_time.as_secs_f64(),
    );
    let _ = std::io::stdout().flush();
    Ok(())
}

/// Wraps the built/loaded index as the daemon's live [`DeltaIndex`],
/// attaching (and replaying) the `--ingest-log` when one is given.
fn live_index_from(opts: &Opts, index: ShardedIndex) -> Result<DeltaIndex, CliError> {
    let defaults = IngestOptions::default();
    let options = IngestOptions {
        republish_after: opts.parsed("republish-after", defaults.republish_after)?,
        ..defaults
    };
    match opts.get("ingest-log") {
        None => Ok(DeltaIndex::new(index, options)),
        Some(path) => {
            let (live, report) = DeltaIndex::with_log(index, options, std::path::Path::new(path))
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            println!(
                "ingest-log: {path} replayed {} batches / {} series{}",
                report.batches,
                report.series,
                if report.torn {
                    format!(" (torn tail: dropped {} bytes)", report.dropped_bytes)
                } else {
                    String::new()
                }
            );
            Ok(live)
        }
    }
}

/// One `/ingest` request body: `{"series":[[…],[…]]}` for the half-open
/// series range `start..end`. `{:?}` prints the shortest decimal that
/// round-trips the f32, so the daemon reconstructs the bytes exactly.
fn ingest_body(data: &Dataset, start: usize, end: usize) -> Vec<u8> {
    let rows: Vec<String> = (start..end)
        .map(|pos| {
            let vals: Vec<String> = data.series(pos).iter().map(|x| format!("{x:?}")).collect();
            format!("[{}]", vals.join(","))
        })
        .collect();
    format!("{{\"series\":[{}]}}", rows.join(",")).into_bytes()
}

fn cmd_ingest(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.required("addr")?.to_string();
    let data = load(opts)?;
    if let Some((pos, idx)) = data.find_non_finite() {
        return Err(CliError::Runtime(format!(
            "series {pos} has a non-finite value at point {idx}; refusing to ingest"
        )));
    }
    let batch: usize = opts.parsed("batch", 64usize)?;
    if batch == 0 {
        return Err(usage("--batch must be positive"));
    }
    let wait_ready_secs: u64 = opts.parsed("wait-ready", 0u64)?;
    if wait_ready_secs > 0 {
        let timeout = std::time::Duration::from_secs(wait_ready_secs);
        if !serve::wait_ready(&addr, timeout) {
            return Err(CliError::Runtime(format!(
                "daemon at {addr} not ready within {wait_ready_secs}s"
            )));
        }
    }

    let connect =
        || serve::Client::connect(&addr).map_err(|e| CliError::Runtime(format!("{addr}: {e}")));
    let mut client = connect()?;
    let t = std::time::Instant::now();
    let mut last_body = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let end = (start + batch).min(data.len());
        let body = ingest_body(&data, start, end);
        let mut attempts = 0u32;
        loop {
            let resp = client
                .request("POST", "/ingest", &body)
                .map_err(|e| CliError::Runtime(format!("{addr}: {e}")))?;
            let reconnect = resp.close;
            match resp.status {
                200 => {
                    last_body = resp.body;
                    if reconnect {
                        client = connect()?;
                    }
                    break;
                }
                503 => {
                    // Not-ready / saturated: honour the Retry-After hint
                    // (scaled down like load-smoke's backoff) and retry.
                    attempts += 1;
                    if attempts > 50 {
                        return Err(CliError::Runtime(format!(
                            "batch at series {start} still shed after {attempts} attempts"
                        )));
                    }
                    let ms = resp
                        .retry_after
                        .map(|s| (s.max(1) * 20).min(250))
                        .unwrap_or(20);
                    if reconnect {
                        client = connect()?;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                }
                other => {
                    return Err(CliError::Runtime(format!(
                        "/ingest returned {other} for the batch at series {start}: {}",
                        String::from_utf8_lossy(&resp.body)
                    )));
                }
            }
        }
        start = end;
    }

    // The final report carries the daemon's running totals.
    let report = std::str::from_utf8(&last_body)
        .ok()
        .and_then(|s| serve::json::Json::parse(s).ok());
    let field = |name: &str| {
        report
            .as_ref()
            .and_then(|doc| doc.get(name))
            .and_then(serve::json::Json::as_f64)
    };
    println!(
        "ingest: {} series in {} batches to {addr} in {:.2?} (daemon now at {} series, epoch {})",
        data.len(),
        data.len().div_ceil(batch),
        t.elapsed(),
        field("total_series").map_or("?".into(), |v| format!("{v}")),
        field("epoch").map_or("?".into(), |v| format!("{v}")),
    );
    Ok(())
}

fn cmd_compact(opts: &Opts) -> Result<(), CliError> {
    let data_path = PathBuf::from(opts.required("data")?);
    let log_path = PathBuf::from(opts.required("log")?);
    let data = load(opts)?;
    let base_len = data.len();
    let (index, _) = obtain_index(opts, &data)?;
    let (live, report) = DeltaIndex::with_log(index, IngestOptions::default(), &log_path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", log_path.display())))?;
    println!(
        "compact: replayed {} batches / {} series from {}{}",
        report.batches,
        report.series,
        log_path.display(),
        if report.torn {
            format!(" (torn tail: dropped {} bytes)", report.dropped_bytes)
        } else {
            String::new()
        }
    );
    live.republish()
        .map_err(|e| CliError::Runtime(format!("republish: {e}")))?;

    // Persist the grown collection *before* truncating the log: a crash
    // in between leaves a stale log header that fails loudly on the next
    // open (fingerprint mismatch) instead of silently losing series.
    let out = opts.get("out").map(PathBuf::from).unwrap_or(data_path);
    let index = live.index();
    let tmp = out.with_extension("mds.tmp");
    write_dataset(index.dataset(), &tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &out).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "compact: {} series ({} from the log) written to {}",
        index.dataset().len(),
        index.dataset().len() - base_len,
        out.display()
    );

    if let Some(save) = opts.get("save") {
        let save_path = PathBuf::from(save);
        let t = std::time::Instant::now();
        if index.num_shards() > 1 || save_path.is_dir() {
            messi::index::shard::save_sharded(&index, &save_path)
                .map_err(|e| format!("{save}: {e}"))?;
        } else {
            messi::index::persist::save_index(index.shard(0), &save_path)
                .map_err(|e| format!("{save}: {e}"))?;
        }
        println!(
            "compact: snapshot re-saved to {save} in {:.2?}",
            t.elapsed()
        );
    }

    let new_base = live
        .checkpoint_log()
        .map_err(|e| CliError::Runtime(format!("truncate {}: {e}", log_path.display())))?;
    println!(
        "compact: {} truncated to a fresh header over {} series",
        log_path.display(),
        new_base
    );
    Ok(())
}

fn cmd_load_smoke(opts: &Opts) -> Result<(), CliError> {
    let addr = opts.required("addr")?.to_string();
    let data = load(opts)?;
    let n: usize = opts.parsed("num-queries", 10usize)?;
    if n == 0 {
        return Err(usage("--num-queries must be positive"));
    }
    let seed: u64 = opts.parsed("seed", 42u64)?;
    let objective = opts.get("objective").unwrap_or("exact");
    validate_objective_flags(opts, objective)?;

    // Build the JSON query bodies the daemon's /query endpoint expects.
    let queries = messi::series::gen::queries::noisy_queries_from_dataset(&data, n, 0.1, seed);
    let mut fields: Vec<String> = vec![format!("\"objective\":\"{objective}\"")];
    match objective {
        "exact" => {}
        "knn" => {
            let k: usize = opts.parsed("k", 10usize)?;
            if k == 0 {
                return Err(usage("--k must be positive"));
            }
            fields.push(format!("\"k\":{k}"));
        }
        "range" => {
            let epsilon: f32 = opts
                .required("epsilon")?
                .parse()
                .map_err(|_| usage("invalid --epsilon"))?;
            if epsilon.is_nan() || epsilon < 0.0 {
                return Err(usage("--epsilon must be non-negative"));
            }
            fields.push(format!("\"epsilon\":{epsilon}"));
        }
        "approx" => {
            let epsilon: f32 = opts.parsed("epsilon", 0.05f32)?;
            if !epsilon.is_finite() || epsilon < 0.0 {
                return Err(usage("--epsilon must be a finite non-negative ratio"));
            }
            let delta: f32 = opts.parsed("delta", 1.0f32)?;
            if !(0.0..=1.0).contains(&delta) {
                return Err(usage("--delta must be within [0, 1]"));
            }
            fields.push(format!("\"epsilon\":{epsilon}"));
            fields.push(format!("\"delta\":{delta}"));
        }
        _ => unreachable!("validate_objective_flags rejected unknown objectives"),
    }
    if opts.get("dtw").is_some() {
        fields.push("\"metric\":\"dtw\"".to_string());
    }
    let bodies: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            let series: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
            format!("{{{},\"series\":[{}]}}", fields.join(","), series.join(",")).into_bytes()
        })
        .collect();

    let smoke = SmokeConfig {
        clients: opts.parsed("clients", 4usize)?,
        per_client: opts.parsed("per-client", 25usize)?,
        retry: opts.get("no-retry").is_none(),
        max_attempts: opts.parsed("max-attempts", 50usize)?,
    };
    if smoke.clients == 0 || smoke.per_client == 0 {
        return Err(usage("--clients and --per-client must be positive"));
    }
    let min_shed: u64 = opts.parsed("min-shed", 0u64)?;
    let wait_ready_secs: u64 = opts.parsed("wait-ready", 0u64)?;

    if wait_ready_secs > 0 {
        let timeout = std::time::Duration::from_secs(wait_ready_secs);
        if !serve::wait_ready(&addr, timeout) {
            return Err(CliError::Runtime(format!(
                "daemon at {addr} not ready within {wait_ready_secs}s"
            )));
        }
        println!("load-smoke: {addr} ready");
    }

    println!(
        "load-smoke: {} clients × {} queries ({} bodies, objective={objective}{}) against {addr}",
        smoke.clients,
        smoke.per_client,
        bodies.len(),
        if opts.get("dtw").is_some() {
            ", dtw"
        } else {
            ""
        },
    );
    let report = serve::run_load_smoke(&addr, &bodies, &smoke);
    println!("{}", report.render());

    // The smoke contract: every query accounted for, no errors, and (when
    // demanded) proof that the admission gate actually shed load.
    let expected = (smoke.clients * smoke.per_client) as u64;
    if report.client_errors > 0 || report.server_errors > 0 {
        return Err(CliError::Runtime(format!(
            "{} client errors, {} server errors (expected none)",
            report.client_errors, report.server_errors
        )));
    }
    if report.shed < min_shed {
        return Err(CliError::Runtime(format!(
            "observed {} sheds, required at least {min_shed}",
            report.shed
        )));
    }
    let landed_or_shed = if smoke.retry {
        report.ok
    } else {
        report.ok + report.shed
    };
    if landed_or_shed < expected {
        return Err(CliError::Runtime(format!(
            "only {landed_or_shed} of {expected} queries accounted for \
             ({} transport errors)",
            report.transport_errors
        )));
    }
    Ok(())
}

fn describe_objective(objective: &Objective) -> String {
    match objective {
        Objective::Exact => "objective=exact (1-NN)".into(),
        Objective::Knn { k } => format!("objective=knn (k={k})"),
        Objective::Range { epsilon_sq } => {
            format!("objective=range (ε={})", epsilon_sq.sqrt())
        }
        Objective::Approx { epsilon, delta } => {
            format!("objective=approx (ε={epsilon}, δ={delta})")
        }
    }
}

fn describe_metric(metric: &MetricSpec) -> String {
    match metric {
        MetricSpec::Euclidean => "metric=euclidean".into(),
        MetricSpec::Dtw(p) => format!("metric=dtw (window={})", p.window),
    }
}

fn describe_schedule(schedule: &Schedule, workers: usize) -> String {
    match schedule {
        Schedule::IntraQuery => format!("schedule=intra ({workers} workers/query)"),
        Schedule::InterQuery { parallelism } => {
            format!("schedule=inter ({parallelism} single-threaded query workers)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--key` names in a command's `USAGE` block: its `messi <cmd>`
    /// line plus the deeper-indented continuation lines.
    fn documented_keys(command: &str) -> Vec<String> {
        let head = format!("  messi {command} ");
        let mut lines = USAGE.lines().skip_while(|l| !l.starts_with(&head));
        let first = lines.next().expect("command has a USAGE block");
        let block = std::iter::once(first)
            .chain(lines.take_while(|l| l.starts_with("                    ")))
            .collect::<Vec<_>>()
            .join(" ");
        block
            .split("--")
            .skip(1)
            .map(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_accepted_key_is_documented_in_usage() {
        for (command, keys, _) in COMMANDS {
            let documented = documented_keys(command);
            for key in *keys {
                assert!(
                    documented.iter().any(|d| d == key),
                    "`messi {command}` accepts --{key}, but USAGE does not list it"
                );
            }
        }
    }

    #[test]
    fn flag_keys_are_accepted_by_some_command() {
        for flag in FLAG_KEYS {
            assert!(
                COMMANDS.iter().any(|(_, keys, _)| keys.contains(flag)),
                "bare flag --{flag} is accepted by no command"
            );
        }
    }
}
