//! Quickstart: build a MESSI index and answer exact similarity queries.
//!
//! ```text
//! cargo run --release --example quickstart [num_series]
//! ```
//!
//! Generates a random-walk collection (the paper's synthetic workload),
//! builds the index with the paper's default parameters, and runs a few
//! exact 1-NN and k-NN queries, printing timings and pruning statistics.

use messi::prelude::*;
use std::sync::Arc;

fn main() {
    let num_series: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);

    println!("== MESSI quickstart ==");
    println!(
        "generating {num_series} random-walk series of length 256 ({} MB raw)…",
        num_series * 256 * 4 / (1 << 20)
    );
    let data = Arc::new(messi::series::gen::generate(
        DatasetKind::RandomWalk,
        num_series,
        42,
    ));

    let config = IndexConfig::default();
    println!(
        "building index: w={} segments, {} workers, {}-series chunks, leaf capacity {}",
        config.segments, config.num_workers, config.chunk_size, config.leaf_capacity
    );
    let (index, build) = MessiIndex::build(Arc::clone(&data), &config);
    println!(
        "built in {:?} (summaries {:?} + tree {:?}); {} leaves across {} root subtrees, height ≤ {}",
        build.total_time,
        build.summarize_time,
        build.tree_time,
        build.num_leaves,
        build.num_root_subtrees,
        build.max_height
    );

    let queries = messi::series::gen::queries::generate_queries(DatasetKind::RandomWalk, 5, 42);
    let qconfig = QueryConfig::default();
    println!(
        "\nanswering 5 exact 1-NN queries ({} search workers, {} priority queues)…",
        qconfig.num_workers, qconfig.num_queues
    );
    for (i, q) in queries.iter().enumerate() {
        let (answer, stats) = index.search(q, &qconfig);
        println!(
            "  query {i}: nn=series#{:<8} dist={:<8.4} in {:>9.3?}  \
             (lower bounds: {:>7}, real distances: {:>5}, pruned {:.1}% of collection)",
            answer.pos,
            answer.distance(),
            stats.total_time,
            stats.lb_distance_calcs,
            stats.real_distance_calcs,
            100.0 * (1.0 - stats.real_distance_calcs as f64 / num_series as f64),
        );
    }

    // Exact k-NN: the building block of the paper's k-NN classification.
    let (top5, _) = index.search_knn(queries.series(0), 5, &qconfig);
    println!("\ntop-5 neighbors of query 0:");
    for (rank, a) in top5.iter().enumerate() {
        println!(
            "  #{rank}: series {:<8} distance {:.4}",
            a.pos,
            a.distance()
        );
    }

    // Sanity: the index answer is exactly the brute-force answer.
    let (bf_pos, bf_dist) = data.nearest_neighbor_brute_force(queries.series(0));
    assert_eq!(top5[0].pos as usize, bf_pos);
    assert!((top5[0].dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
    println!("\nverified: answers match a brute-force scan exactly ✓");
}
