//! What to run and how to run it: the executor's request vocabulary.
//!
//! A [`QuerySpec`] names a cell of the Metric × Objective matrix the
//! unified engine serves — *what* one query computes. A [`Schedule`]
//! names how a *batch* of such queries maps onto the worker pool. The
//! two axes are deliberately independent: every objective runs under
//! every metric under every schedule, because every query goes through
//! the one query path (`super::answer`).

use messi_series::distance::dtw::DtwParams;

/// What a query is looking for (the engine's objective axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Exact 1-NN: the single nearest series.
    Exact,
    /// Exact k-NN: the `k` nearest series, ascending by distance.
    Knn {
        /// Number of neighbors (must be positive).
        k: usize,
    },
    /// Exact ε-range: every series with squared distance `<= epsilon_sq`,
    /// ascending.
    Range {
        /// The squared radius (non-negative, non-NaN).
        epsilon_sq: f32,
    },
    /// Approximate 1-NN with error bounds (the journal paper's
    /// ng-approximate and δ-ε-approximate modes): the answer is within
    /// `(1+epsilon)` of the true nearest-neighbor distance with
    /// probability calibrated by `delta`. `delta = 0` is ng-approximate
    /// (the home-leaf answer, no guarantee); `delta = 1` makes the
    /// `(1+epsilon)` bound deterministic; in between, the traversal stops
    /// once a δ-derived leaf-visit budget is spent. At
    /// `epsilon = 0, delta = 1` this is exact search bit-for-bit.
    Approx {
        /// Relative error bound ε ≥ 0 (finite), in *distance* (not
        /// squared) terms.
        epsilon: f32,
        /// Confidence δ ∈ [0, 1].
        delta: f32,
    },
}

/// How distances are measured (the engine's metric axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSpec {
    /// Euclidean distance with iSAX mindist lower bounds.
    Euclidean,
    /// Banded DTW with the `mindist_env ≤ LB_Keogh ≤ DTW` cascade.
    Dtw(DtwParams),
}

/// One cell of the Metric × Objective matrix: a complete description of
/// what a single query computes.
///
/// ```
/// use messi_core::exec::QuerySpec;
/// use messi_series::distance::dtw::DtwParams;
///
/// let knn_under_dtw = QuerySpec::knn(5).with_dtw(DtwParams::paper_default(256));
/// let radius = QuerySpec::range(2.5);
/// assert_ne!(knn_under_dtw, radius);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuerySpec {
    /// What the query is looking for.
    pub objective: Objective,
    /// How distances are measured.
    pub metric: MetricSpec,
}

impl QuerySpec {
    /// Exact 1-NN under Euclidean distance.
    pub fn exact() -> Self {
        Self {
            objective: Objective::Exact,
            metric: MetricSpec::Euclidean,
        }
    }

    /// Exact k-NN under Euclidean distance.
    pub fn knn(k: usize) -> Self {
        Self {
            objective: Objective::Knn { k },
            metric: MetricSpec::Euclidean,
        }
    }

    /// Exact ε-range under Euclidean distance (`epsilon_sq` is the
    /// *squared* radius).
    pub fn range(epsilon_sq: f32) -> Self {
        Self {
            objective: Objective::Range { epsilon_sq },
            metric: MetricSpec::Euclidean,
        }
    }

    /// δ-ε-approximate 1-NN under Euclidean distance (`epsilon` is the
    /// relative error in distance terms; `delta` the confidence —
    /// see [`Objective::Approx`]).
    pub fn approximate(epsilon: f32, delta: f32) -> Self {
        Self {
            objective: Objective::Approx { epsilon, delta },
            metric: MetricSpec::Euclidean,
        }
    }

    /// The same objective under banded DTW instead of Euclidean distance.
    pub fn with_dtw(self, params: DtwParams) -> Self {
        Self {
            metric: MetricSpec::Dtw(params),
            ..self
        }
    }
}

/// How a batch of queries maps onto the search workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// The paper's protocol (§V): queries run one after the other, each
    /// monopolizing the full worker complement of the `QueryConfig` —
    /// minimal single-query latency, the exploratory-analysis scenario.
    IntraQuery,
    /// The throughput protocol: `parallelism` pool workers each answer
    /// whole queries single-threadedly, pulling work via Fetch&Inc from
    /// a shared dispenser — no per-query coordination at all.
    InterQuery {
        /// Number of concurrent single-threaded query workers (must be
        /// positive; capped at the batch size).
        parallelism: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_cover_the_matrix() {
        assert_eq!(QuerySpec::exact().objective, Objective::Exact);
        assert_eq!(QuerySpec::knn(7).objective, Objective::Knn { k: 7 });
        assert_eq!(
            QuerySpec::range(1.5).objective,
            Objective::Range { epsilon_sq: 1.5 }
        );
        assert_eq!(
            QuerySpec::approximate(0.1, 0.9).objective,
            Objective::Approx {
                epsilon: 0.1,
                delta: 0.9
            }
        );
        assert_eq!(QuerySpec::exact().metric, MetricSpec::Euclidean);
        let p = DtwParams { window: 9 };
        let spec = QuerySpec::knn(3).with_dtw(p);
        assert_eq!(spec.metric, MetricSpec::Dtw(p));
        assert_eq!(spec.objective, Objective::Knn { k: 3 }, "objective kept");
        let spec = QuerySpec::approximate(0.2, 0.5).with_dtw(p);
        assert_eq!(spec.metric, MetricSpec::Dtw(p));
        assert_eq!(
            spec.objective,
            Objective::Approx {
                epsilon: 0.2,
                delta: 0.5
            },
            "objective kept"
        );
    }
}
