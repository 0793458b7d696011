//! Leaf-run batching, the engine's one lower-bound schedule, seen
//! through the pruning counters.
//!
//! Adjacent surviving leaves of one arena run are coalesced into a
//! single queued run, so `nodes_popped` counts queue entries while
//! `nodes_inserted` keeps counting member leaves (the counter Fig. 17's
//! analysis reads). A δ-budgeted approximate query vetoes coalescing,
//! so every run it pops is one leaf and its budget charges leaves in
//! exactly the per-leaf order.
//!
//! Both tests query one worker over one queue, so the evaluation order
//! and every counter are deterministic, on tiny leaves (capacity 8 ≪
//! the 64-entry run target) that make multi-leaf runs the norm.

use messi::prelude::*;
use messi::series::gen::{self, DatasetKind};
use std::sync::Arc;

fn small_leaf_index(count: usize, seed: u64) -> (Arc<Dataset>, MessiIndex) {
    let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
    let config = IndexConfig {
        segments: 8,
        num_workers: 4,
        chunk_size: 64,
        leaf_capacity: 8,
        initial_buffer_capacity: 5,
        variant: BuildVariant::Buffered,
    };
    let (index, _) = MessiIndex::build(Arc::clone(&data), &config);
    assert!(
        index.run_shapes().iter().any(|r| r.0 > 1),
        "test tree has no multi-leaf runs — coalescing would be vacuous"
    );
    (data, index)
}

fn one_worker() -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        ..QueryConfig::default()
    }
}

#[test]
fn inserted_counts_member_leaves_while_pops_count_runs() {
    // k = n keeps the k-NN bound at +inf through the whole tree pass,
    // so no node is pruned and every leaf is inserted; coalescing then
    // queues them in far fewer runs than leaves.
    let (data, index) = small_leaf_index(400, 7);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 7);
    for (qi, q) in queries.iter().enumerate() {
        let (answers, stats) = index.search_knn(q, data.len(), &one_worker());
        assert_eq!(answers.len(), data.len(), "q{qi}: every series answers");
        assert_eq!(
            stats.nodes_inserted,
            index.num_leaves() as u64,
            "q{qi}: an unprunable bound inserts every leaf, counted per leaf"
        );
        assert!(
            stats.nodes_popped < stats.nodes_inserted,
            "q{qi}: {} pops for {} inserted leaves — nothing coalesced",
            stats.nodes_popped,
            stats.nodes_inserted
        );
    }
}

#[test]
fn budgeted_queries_pop_single_leaves() {
    let (data, index) = small_leaf_index(400, 7);
    let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 6, 7);
    let leaves = index.num_leaves() as f64;
    let dtw = DtwParams::paper_default(data.series_len());
    let config = one_worker();
    let (mut completed, mut exhausted) = (0, 0);
    for delta in [0.5f32, 0.05] {
        let budget = (delta as f64 * leaves).ceil() as u64;
        for (qi, q) in queries.iter().enumerate() {
            let (_, ed_stats) = index.search_approximate_bounded(q, 0.1, delta, &config);
            let (_, dtw_stats) = index.search_approximate_bounded_dtw(q, 0.1, delta, dtw, &config);
            for (metric, stats) in [("ed", ed_stats), ("dtw", dtw_stats)] {
                let tag = format!("δ={delta} q{qi} {metric}");
                match stats.stop_reason {
                    Some(StopReason::Completed) if stats.nodes_filtered_on_pop == 0 => {
                        // The queue drained: one pop per inserted leaf.
                        assert_eq!(stats.nodes_popped, stats.nodes_inserted, "{tag}");
                        completed += 1;
                    }
                    Some(StopReason::BudgetExhausted) => {
                        // `budget` admitted single-leaf pops, plus the
                        // pop the spent budget vetoed.
                        assert_eq!(stats.nodes_popped, budget + 1, "{tag}");
                        exhausted += 1;
                    }
                    Some(StopReason::Completed) => {
                        // Second filtering finished the queue early.
                        assert!(stats.nodes_popped <= stats.nodes_inserted, "{tag}");
                    }
                    other => panic!("{tag}: unexpected stop reason {other:?}"),
                }
            }
        }
    }
    assert!(completed > 0, "no budgeted query drained its queue");
    assert!(exhausted > 0, "no budgeted query exhausted its budget");
}
