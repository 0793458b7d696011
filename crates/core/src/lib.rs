//! The MESSI in-memory data-series index (Peng, Fatourou, Palpanas;
//! ICDE 2020).
//!
//! MESSI builds an iSAX tree over an in-memory collection of data series
//! entirely in parallel, and answers *exact* 1-NN (and k-NN) similarity
//! search queries with a tree-driven algorithm based on concurrent
//! priority queues — the first index to answer exact queries over
//! 100 GB collections at interactive (~50 ms) speeds.
//!
//! # Quick start
//!
//! ```
//! use messi_core::{IndexConfig, MessiIndex, QueryConfig};
//! use messi_series::gen::{self, DatasetKind};
//! use std::sync::Arc;
//!
//! // 1000 random-walk series of length 256 (the paper's default shape).
//! let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 1000, 42));
//! let queries = messi_series::gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 42);
//!
//! let (index, _stats) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
//! let (answer, _qstats) = index.search(queries.series(0), &QueryConfig::default());
//!
//! // The answer is exact: identical to a brute-force scan.
//! let (bf_pos, bf_dist) = data.nearest_neighbor_brute_force(queries.series(0));
//! assert_eq!(answer.pos as usize, bf_pos);
//! assert!((answer.dist_sq - bf_dist).abs() <= 1e-3 * bf_dist.max(1.0));
//! ```
//!
//! # Module map (↔ paper sections)
//!
//! * [`config`] — index/query parameters (§IV-B's tuning knobs).
//! * [`node`] — arena-backed tree storage: root fan-out ≤ 2^w, binary
//!   inner nodes, leaves holding `(iSAX summary, position)` pairs
//!   (§II-B, Fig. 1d), each root subtree flattened into one preorder
//!   node array plus the leaves' position array and run-grouped symbol
//!   columns (each summary stored once).
//! * [`build`] — two-phase parallel construction (Alg. 1–4, Fig. 3).
//! * [`index`] — the [`MessiIndex`] handle and approximate search.
//! * [`persist`] — versioned, checksummed index snapshots: save a built
//!   index to a file, reload it and answer queries without rebuilding.
//! * [`engine`] — the unified query engine: one generic traversal/queue/
//!   drain driver (Alg. 5–9) parameterized by a metric (Euclidean or
//!   DTW) and a search objective (1-NN, k-NN, ε-range, or δ-ε-
//!   approximate), plus the reusable per-worker [`engine::QueryContext`]
//!   scratch.
//! * [`exec`] — the one query path above the engine: a [`QuerySpec`]
//!   (objective × metric) drives a single prologue — summarize the
//!   query, build the LB_Keogh envelope for DTW (Fig. 19), seed the
//!   bound from the home leaf (Fig. 4a), prepare the scratch — and one
//!   engine run. It answers exact 1-NN (Fig. 4), exact k-NN (the
//!   paper's k-NN classification application, §I), exact ε-range, and
//!   the journal version's ng- and δ-ε-approximate 1-NN, each under
//!   Euclidean distance or banded DTW.
//! * [`stats`] — build/query statistics: distance-calculation counters
//!   (Fig. 17) and per-phase time breakdown (Fig. 13), now reported
//!   uniformly by every objective.
//! * [`serve`] — the index service daemon: a hand-rolled HTTP/1.1
//!   frontend over one prewarmed sharded executor with readiness
//!   gating, a bounded load-shedding admission gate, live ingest
//!   (`POST /ingest`), Prometheus metrics (including per-shard counter
//!   families), graceful drain, and the matching load-smoke client.
//! * [`ingest`] — live ingest: the [`DeltaIndex`] epoch/RCU seam that
//!   absorbs appended series while queries keep reading immutable
//!   published arenas plus a sealed-delta overlay, republishing fresh
//!   arenas on size/cadence triggers, with a framed checksummed delta
//!   log for durability (replayed by `--load`, truncated by
//!   `messi compact`).
//! * [`shard`] — sharded multi-index scatter-gather: a [`ShardedIndex`]
//!   of N independent [`MessiIndex`] shards over contiguous position
//!   ranges, built in parallel and persisted as a per-shard snapshot
//!   directory with a checksummed manifest; and the one pooled executor,
//!   [`ShardedExecutor`], which owns warm per-shard contexts and answers
//!   single queries and batches under intra-query (paper protocol) or
//!   inter-query (throughput) scheduling. A single index is its
//!   one-shard case ([`ShardedIndex::from_single`]); with more shards
//!   the 1-NN objectives share one atomic cross-shard BSF for pruning.
//! * [`validate`] — index invariant checker used by the test suite.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod build;
pub mod config;
pub mod engine;
pub mod exec;
pub mod index;
pub mod ingest;
pub mod node;
pub mod persist;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod validate;

pub use config::{
    auto_leaf_capacity, BsfPolicy, BuildVariant, IndexConfig, QueryConfig, QueuePolicy,
};
pub use engine::QueryContext;
pub use exec::{MetricSpec, Objective, QueryAnswer, QuerySpec, Schedule};
pub use index::MessiIndex;
pub use ingest::{
    DeltaIndex, IngestError, IngestOptions, IngestReport, IngestStats, LogError, ReplayReport,
};
pub use persist::{load_index, save_index, PersistError};
pub use serve::{IndexServer, ServeConfig, ServeSummary};
pub use shard::{global_pos, load_sharded, save_sharded, ShardedExecutor, ShardedIndex};
pub use stats::{BuildStats, QueryStats, StopReason, TimeBreakdown};

// Unit tests of the query path, grouped by objective and metric. These
// modules hold tests only: the code under test is `exec`'s `answer`,
// the `MessiIndex::search*` wrappers and the `ShardedExecutor`.
#[cfg(test)]
#[path = "query_tests/approximate.rs"]
mod approximate;
#[cfg(test)]
#[path = "query_tests/batch.rs"]
mod batch;
#[cfg(test)]
#[path = "query_tests/dtw.rs"]
mod dtw;
#[cfg(test)]
#[path = "query_tests/exact.rs"]
mod exact;
#[cfg(test)]
#[path = "query_tests/knn.rs"]
mod knn;
#[cfg(test)]
#[path = "query_tests/range.rs"]
mod range;
