//! The unified query engine.
//!
//! MESSI's query algorithm (Alg. 5–9) is one skeleton — traverse root
//! subtrees handed out by Fetch&Inc, prune by lower bound, order
//! surviving leaves in shared priority queues, drain them with second
//! filtering, and cascade per-entry lower bounds into early-abandoning
//! real distances. The journal follow-up (*Fast Data Series Indexing for
//! In-Memory Data*) presents 1-NN, k-NN, and approximate search
//! explicitly as instances of that skeleton; this module is the
//! skeleton, written once:
//!
//! * [`driver`](self) — the traversal/queue/drain loops, with a
//!   queue-less mode for fixed-bound objectives and built-in per-phase
//!   time collection (Fig. 13).
//! * `Metric` (private) — how bounds and real distances are computed:
//!   Euclidean with iSAX mindists, or banded DTW with the LB_Keogh
//!   envelope cascade (Fig. 19).
//! * `SearchObjective` (private) — what the query is looking for:
//!   1-NN's shrinking BSF (exact, or δ-ε-approximate with the inflated
//!   `bsf/(1+ε)²` bound and a δ-derived early-termination budget),
//!   k-NN's k-th-best bound, or range search's fixed ε².
//! * [`QueryContext`] — reusable scratch (queue set, barrier, mindist
//!   table) so batch workloads stop paying per-query allocations.
//!
//! The engine knows nothing of query specs, seeding or shards: the one
//! query path in [`crate::exec`] summarizes the query, seeds the bound,
//! picks the (metric, objective) pair and calls `run` — statically
//! specialized per pair. Any metric composes with any objective, so DTW
//! k-NN, DTW range, and DTW δ-ε-approximate queries cost no extra code.

mod context;
mod driver;
mod metric;
mod objective;

pub use context::QueryContext;

pub(crate) use context::{Scratch, TableSpec};
pub(crate) use driver::{run, Engine};
pub(crate) use metric::{DtwMetric, EuclideanMetric, Metric};
pub(crate) use objective::{
    KnnObjective, NearestObjective, RangeObjective, ShardSlot, SharedBound,
};
