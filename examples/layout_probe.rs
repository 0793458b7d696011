//! Ad-hoc layout throughput probe: times the leaf-scan-heavy paths the
//! storage layout targets, over a shallow paper-default index and a
//! deep split-heavy one. The probe contrasts two sweeps of the
//! run-grouped symbol columns: chunked *per leaf* (the pre-run-batching
//! engine path) and streamed over whole *leaf runs* — next to the
//! run-length distribution the greedy partition produced and the bytes
//! each entry costs. Used to record the numbers in README's bench notes.
//!
//! `--leaf-target <N|auto>` overrides the paper-default split threshold
//! (auto = `messi::index::auto_leaf_capacity`). Every sweep prints an
//! order-independent per-entry bit checksum, so CI can sweep thresholds
//! and assert the lower-bound tier computes identical values on every
//! tree shape.

use messi::prelude::*;
use messi::sax::mindist::MindistTable;
use messi::series::paa::paa;
use std::sync::Arc;
use std::time::Instant;

const CACHE_LINE: usize = 64;

/// Order-independent checksum of per-entry lower bounds: wrapping sum of
/// the `f32` bit patterns. Exactly equal across chunkings and across
/// tree shapes whenever every entry's bound is bit-identical.
fn bit_checksum(acc: &mut u64, v: f32) {
    *acc = acc.wrapping_add(u64::from(v.to_bits()));
}

fn probe(label: &str, data: &Arc<Dataset>, config: &IndexConfig) -> u64 {
    let t = Instant::now();
    let (index, _) = MessiIndex::build(Arc::clone(data), config);
    let build = t.elapsed();
    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 4, 12);
    let q = queries.series(0);
    let one = QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    };

    // Footprint per entry: a position plus its summary's symbols, which
    // sit segment-major, so one cache line of column bytes covers 64
    // entries' segment-s symbols; the run metadata comes on top.
    let entries = index.num_entries();
    let meta: usize = index.arenas().iter().map(|a| a.run_meta_bytes()).sum();
    println!(
        "{label}: {entries} entries · {} B/entry stored + {:.1} B/entry run metadata \
         ({CACHE_LINE} entries/cache-line per segment)",
        index.entry_storage_bytes() / entries.max(1),
        meta as f64 / entries.max(1) as f64,
    );

    // The run partition the greedy grouping produced: how many member
    // leaves and entries each run carries decides how often the batched
    // kernel sees full 8-wide chunks.
    let shapes: Vec<(usize, usize)> = index.arenas().iter().flat_map(|a| a.run_shapes()).collect();
    let runs = shapes.len().max(1);
    let (leaves, run_entries): (usize, usize) =
        shapes.iter().fold((0, 0), |(l, e), s| (l + s.0, e + s.1));
    let mut hist = [0usize; 4]; // 1, 2-4, 5-8, 9+ member leaves
    for s in &shapes {
        hist[match s.0 {
            0..=1 => 0,
            2..=4 => 1,
            5..=8 => 2,
            _ => 3,
        }] += 1;
    }
    println!(
        "  runs {runs} · {:.2} leaves/run · {:.1} entries/run · \
         leaves-per-run histogram 1:{} 2-4:{} 5-8:{} 9+:{}",
        leaves as f64 / runs as f64,
        run_entries as f64 / runs as f64,
        hist[0],
        hist[1],
        hist[2],
        hist[3],
    );

    // The mindist sweep the layout exists to serve: one table, every
    // leaf, lower bounds for all entries. Per-leaf chunking restarts at
    // each leaf (so a 6-entry leaf is one partial chunk); run-batched
    // chunking spans the whole run and only the final chunk can be
    // partial.
    let segments = index.sax_config().segments;
    let table = MindistTable::new(&paa(q, segments), index.sax_config());
    let iters = 200u32;

    let mut leaf_times = Vec::new();
    for use_simd in [true, false] {
        let t = Instant::now();
        for _ in 0..iters {
            let mut acc = 0.0f32;
            let mut out = [0.0f32; 8];
            for arena in index.arenas() {
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
            std::hint::black_box(acc);
        }
        leaf_times.push(t.elapsed() / iters);
    }

    let mut run_times = Vec::new();
    for use_simd in [true, false] {
        let t = Instant::now();
        for _ in 0..iters {
            let mut acc = 0.0f32;
            let mut out = [0.0f32; 8];
            for arena in index.arenas() {
                arena.for_each_run(&mut |positions, cols, stride| {
                    let n = positions.len();
                    let mut base = 0;
                    while base < n {
                        let len = (n - base).min(8);
                        table.mindist_sq_soa(cols, stride, base, len, use_simd, &mut out);
                        acc += out[..len].iter().sum::<f32>();
                        base += len;
                    }
                });
            }
            std::hint::black_box(acc);
        }
        run_times.push(t.elapsed() / iters);
    }

    // Sanity, two tiers. Bit tier: per-leaf and run-batched chunkings of
    // the batched kernel must produce bit-identical per-entry bounds, so
    // their order-independent bit checksums must be *equal* — this is
    // the value CI sweeps across leaf thresholds. Value tier: the
    // one-word kernel over summaries gathered back from the columns
    // agrees with the batched kernel (f64 accumulation so the check
    // isn't at the mercy of 50k-term f32 summation order).
    let mut word_sum = 0.0f64;
    let mut soa_sum = 0.0f64;
    let mut leaf_bits = 0u64;
    let mut run_bits = 0u64;
    let mut out = [0.0f32; 8];
    for arena in index.arenas() {
        arena.for_each_leaf(&mut |l| {
            for e in l.entries() {
                word_sum += f64::from(table.mindist_sq(&e.sax));
            }
            let n = l.positions.len();
            let mut base = 0;
            while base < n {
                let len = (n - base).min(8);
                table.mindist_sq_soa(l.cols, l.stride, l.base + base, len, true, &mut out);
                for &v in &out[..len] {
                    soa_sum += f64::from(v);
                    bit_checksum(&mut leaf_bits, v);
                }
                base += len;
            }
        });
        arena.for_each_run(&mut |positions, cols, stride| {
            let n = positions.len();
            let mut base = 0;
            while base < n {
                let len = (n - base).min(8);
                table.mindist_sq_soa(cols, stride, base, len, true, &mut out);
                for &v in &out[..len] {
                    bit_checksum(&mut run_bits, v);
                }
                base += len;
            }
        });
    }
    assert!((word_sum - soa_sum).abs() <= 1e-3 * word_sum.abs() + 1e-3);
    assert_eq!(
        leaf_bits, run_bits,
        "run-batched chunking changed a lower bound bit"
    );

    let t = Instant::now();
    let iters = 50u32;
    for _ in 0..iters {
        let _ = index.search(q, &one);
    }
    let exact = t.elapsed() / iters;

    println!(
        "  build {build:.2?} · leaves {} · height {} · mindist sweep: \
         per-leaf simd {:.3?} / scalar {:.3?} · \
         run-batched simd {:.3?} / scalar {:.3?} · exact_1w {exact:.3?}",
        index.num_leaves(),
        index.max_height(),
        leaf_times[0],
        leaf_times[1],
        run_times[0],
        run_times[1],
    );
    println!("  checksum {run_bits:#018x}");
    run_bits
}

fn main() {
    let n = 50_000;
    let mut leaf_target: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--leaf-target" => {
                let v = args.next().expect("--leaf-target needs a value");
                leaf_target = Some(if v == "auto" {
                    messi::index::auto_leaf_capacity(n)
                } else {
                    v.parse()
                        .expect("--leaf-target: expected a number or 'auto'")
                });
            }
            other => panic!("unknown argument {other:?} (expected --leaf-target <N|auto>)"),
        }
    }

    let data = Arc::new(messi::series::gen::generate(DatasetKind::RandomWalk, n, 12));
    let sparse = IndexConfig {
        leaf_capacity: leaf_target.unwrap_or(IndexConfig::default().leaf_capacity),
        ..IndexConfig::default()
    };
    let label = match leaf_target {
        Some(t) => format!("shallow(leaf-target={t})"),
        None => "shallow(paper-default)".to_string(),
    };
    probe(&label, &data, &sparse);
    probe(
        "deep(seg8/leaf64)",
        &data,
        &IndexConfig {
            segments: 8,
            leaf_capacity: 64,
            ..IndexConfig::default()
        },
    );
}
