//! The query path: what a query computes and the one function that
//! computes it.
//!
//! MESSI answers every query with one skeleton (Alg. 5–9), and the
//! journal follow-up (*Fast Data Series Indexing for In-Memory Data*)
//! and ParIS+ present exact, k-NN and DTW search as that same skeleton,
//! differing only in the distance and how the bound is kept. This module
//! is that skeleton one layer above [`crate::engine`]:
//!
//! * [`QuerySpec`] — *what* one query computes: an [`Objective`] (exact
//!   1-NN, k-NN, ε-range, or δ-ε-approximate 1-NN) × a [`MetricSpec`]
//!   (Euclidean, banded DTW).
//! * `answer` — the single prologue (validate, summarize, build the DTW
//!   envelope, seed from the home leaf, prepare the scratch, build the
//!   metric) and engine run for every cell of that matrix, solo or as
//!   one shard of a scatter.
//! * [`QueryAnswer`] — a result, with the one answer order
//!   ([`QueryAnswer::rank_cmp`]) every merge uses.
//! * [`Schedule`] — *how* a batch maps onto the workers: intra-query
//!   (the paper's protocol) or inter-query (throughput).
//!
//! Everything above is thin: `MessiIndex::search*` are one-line calls
//! of `answer` with a fresh context, and the one pooled executor,
//! [`crate::ShardedExecutor`] (a single index is its one-shard case),
//! checks warm contexts out and in around it.

mod answer;
mod spec;

pub use answer::QueryAnswer;
pub(crate) use answer::{answer, gather, scan_home_leaf, KnnSet};
pub use spec::{MetricSpec, Objective, QuerySpec, Schedule};

// Unit tests of the pooled executor, kept beside the query path they
// drive; the executor itself is `crate::shard::ShardedExecutor`.
#[cfg(test)]
#[path = "../query_tests/executor.rs"]
mod executor;
