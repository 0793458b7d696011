//! The layered serving benchmark of the MESSI index.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <rw100k-exact|seismic400k-exact> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! One run builds the index for one workload, serves it from an
//! in-process daemon on loopback, drives it with one closed-loop query
//! client and then with an open-loop ingest writer, checks every answer,
//! and prints a report followed by one JSON line: with `--trace 0` the
//! end-to-end metrics, with `--trace 1` the per-layer metrics. The exit
//! code is 0 only when every operation succeeded with a correct answer.
//! README.md describes the workloads and metrics.

mod host;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: servebench --workload <name> --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static workload::Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let checkout = bench_dir.parent().unwrap_or(bench_dir);
    let name = args.workload.name;
    let tag = format!("{name}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let work = WorkDir(
        bench_dir
            .join("work")
            .join(format!("{tag}-{}", std::process::id())),
    );
    let out_dir = bench_dir.join("out");
    if let Err(e) = std::fs::create_dir_all(&work.0).and(std::fs::create_dir_all(&out_dir)) {
        eprintln!("servebench: cannot create {}: {e}", work.0.display());
        return ExitCode::from(1);
    }

    let host = host::Host::probe(checkout);
    println!(
        "servebench {name} · seed {} · {} s · trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host.render());
    let outcome = match workload::run(args.workload, args.seed, args.seconds, args.trace, &work.0) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("servebench: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &outcome.report {
        println!("{line}");
    }
    let metrics = if args.trace {
        &outcome.layers
    } else {
        &outcome.e2e
    };
    for (metric, value, unit) in &metrics.0 {
        println!("{metric} = {value:.4} {unit}");
    }
    for note in &outcome.checks.notes {
        println!("FAILED: {note}");
    }

    let record = format!(
        "{{\"workload\":\"{name}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}\n",
        args.seed,
        args.seconds,
        args.trace,
        host.to_json(),
        outcome.checks.attempted,
        outcome.checks.failed,
        outcome.e2e.to_json(),
        outcome.layers.to_json()
    );
    let written = std::fs::write(out_dir.join(format!("{tag}.json")), record).and_then(|()| {
        if args.trace {
            outcome
                .tracer
                .write_jsonl(&out_dir.join(format!("{tag}.spans.jsonl")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("servebench: cannot write the run record: {e}");
        return ExitCode::from(1);
    }

    println!("{}", report::final_line(&outcome.checks, metrics));
    if outcome.checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
