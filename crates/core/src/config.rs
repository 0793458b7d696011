//! Index and query configuration.
//!
//! Defaults follow §IV-B of the paper: 24 index workers, 48 search
//! workers, 20K-series chunks, 2000-series leaves, 24 priority queues,
//! initial iSAX buffer part capacity of 5 — each validated there by a
//! dedicated experiment (Figs. 5–9, 14), all reproduced by the bench
//! crate.

use messi_series::distance::Kernel;

/// Upper bound on index workers used by [`IndexConfig::default`]
/// (the paper fixes Nw = 24; we clamp to the machine).
pub const PAPER_INDEX_WORKERS: usize = 24;

/// Upper bound on search workers used by [`QueryConfig::default`]
/// (the paper fixes Ns = 48, i.e. 2 hyperthreads per core).
pub const PAPER_SEARCH_WORKERS: usize = 48;

pub(crate) fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Adaptive leaf split threshold for `--leaf-target auto`: one leaf per
/// ~512 series, clamped to `[64, 2_000]` (the paper's default stays the
/// upper bound). Small datasets get small leaves so the tree still fans
/// out enough for parallelism and pruning; huge datasets keep the
/// paper's 2_000-entry leaves.
pub fn auto_leaf_capacity(num_series: usize) -> usize {
    (num_series / 512).clamp(64, 2_000)
}

/// Which Best-So-Far implementation the search workers share.
///
/// Applies to the 1-NN objectives (Euclidean and DTW). k-NN carries its
/// bound in the candidate set and range search has a fixed bound, so
/// neither consults this policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BsfPolicy {
    /// Lock-free packed CAS-min (default; see `messi_sync::AtomicBsf`).
    #[default]
    Atomic,
    /// The paper's mutex-protected BSF (Alg. 8 lines 5–7).
    Locked,
}

/// How search workers are assigned to priority queues.
///
/// The paper considered and rejected a per-thread-local-queue design:
/// "using a local queue per thread results in severe load imbalance,
/// since, depending on the workload, the size of the different queues may
/// vary significantly" (§III-B). Both designs are implemented so the
/// ablation bench can reproduce that comparison. The policy is handled
/// by the unified engine driver, so it applies to every queued objective
/// (1-NN and k-NN, Euclidean and DTW) alike; range search runs
/// queue-less and ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// The paper's design: Nq shared queues, round-robin insertion,
    /// workers hop to the next unfinished queue (Alg. 6–7).
    #[default]
    SharedRoundRobin,
    /// The rejected design: one private queue per worker; each worker
    /// inserts into and drains only its own queue (`num_queues` is
    /// ignored; Nq = Ns).
    PerWorkerLocal,
}

/// How the index construction stages summaries before tree construction.
///
/// The paper also tried building without the iSAX buffers: "we also
/// tried a design of MESSI with no iSAX buffers, but this led to slower
/// performance (due to the worse cache locality)" (§III-A). Both designs
/// are implemented so the ablation bench can reproduce that comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildVariant {
    /// The paper's design: summaries staged in per-(subtree × worker)
    /// buffer parts, then each subtree built by one worker (Alg. 3–4).
    #[default]
    Buffered,
    /// The rejected design: summaries inserted straight into the tree as
    /// they are computed, each root subtree protected by a lock.
    NoBuffers,
}

/// Parameters of index construction (Alg. 1–4).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexConfig {
    /// Number of PAA segments, the paper's w (default 16).
    pub segments: usize,
    /// Number of index worker threads, the paper's Nw (default
    /// `min(24, cores)`).
    pub num_workers: usize,
    /// Chunk size, in series, for Fetch&Inc work dispensing during
    /// summarization (default 20_000 = the paper's 20MB of 256-point
    /// series).
    pub chunk_size: usize,
    /// Maximum entries per leaf before it splits (default 2_000).
    pub leaf_capacity: usize,
    /// Initial capacity of each iSAX buffer part, in entries (default 5).
    pub initial_buffer_capacity: usize,
    /// Staging strategy (default: the paper's buffered design).
    pub variant: BuildVariant,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            segments: 16,
            num_workers: PAPER_INDEX_WORKERS.min(available_cores()),
            chunk_size: 20_000,
            leaf_capacity: 2_000,
            initial_buffer_capacity: 5,
            variant: BuildVariant::Buffered,
        }
    }
}

impl IndexConfig {
    /// Validates the configuration against a dataset shape.
    ///
    /// # Panics
    ///
    /// Panics on invalid combinations (zero workers, zero leaf capacity,
    /// more segments than points, …).
    pub fn validate(&self, series_len: usize) {
        assert!(self.num_workers > 0, "need at least one index worker");
        assert!(self.chunk_size > 0, "chunk size must be positive");
        assert!(self.leaf_capacity > 0, "leaf capacity must be positive");
        assert!(
            self.segments > 0 && self.segments <= messi_sax::MAX_SEGMENTS,
            "segments must be in 1..={}",
            messi_sax::MAX_SEGMENTS
        );
        assert!(
            self.segments <= series_len,
            "more segments ({}) than points ({series_len})",
            self.segments
        );
    }

    /// A small configuration for unit tests: fewer segments (small root
    /// fan-out), tiny chunks and leaves, deterministic with any worker
    /// count.
    pub fn for_tests() -> Self {
        Self {
            segments: 8,
            num_workers: 4,
            chunk_size: 64,
            leaf_capacity: 32,
            initial_buffer_capacity: 5,
            variant: BuildVariant::Buffered,
        }
    }
}

/// Parameters of exact query answering (Alg. 5–9).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryConfig {
    /// Number of search worker threads, the paper's Ns (default
    /// `min(48, 2 × cores)`).
    pub num_workers: usize,
    /// Number of shared priority queues, the paper's Nq: 1 = MESSI-sq,
    /// >1 = MESSI-mq (default 24).
    pub num_queues: usize,
    /// Distance kernel selection (SIMD vs SISD; Fig. 18's ablation).
    pub kernel: Kernel,
    /// Best-So-Far implementation.
    pub bsf: BsfPolicy,
    /// Queue assignment discipline (default: the paper's shared queues).
    pub queue_policy: QueuePolicy,
    /// Collect the per-phase wall-time breakdown of Fig. 13 (adds two
    /// `Instant::now` calls around each phase transition; off by
    /// default). Collection lives in the engine driver, so every
    /// objective — 1-NN, k-NN, and range, Euclidean or DTW — reports the
    /// same breakdown.
    pub collect_breakdown: bool,
}

impl Default for QueryConfig {
    fn default() -> Self {
        Self {
            num_workers: PAPER_SEARCH_WORKERS.min(2 * available_cores()),
            num_queues: 24,
            kernel: Kernel::Auto,
            bsf: BsfPolicy::Atomic,
            queue_policy: QueuePolicy::SharedRoundRobin,
            collect_breakdown: false,
        }
    }
}

impl QueryConfig {
    /// MESSI-sq: the single-queue variant.
    pub fn single_queue() -> Self {
        Self {
            num_queues: 1,
            ..Self::default()
        }
    }

    /// MESSI-mq with an explicit queue count.
    pub fn multi_queue(num_queues: usize) -> Self {
        Self {
            num_queues,
            ..Self::default()
        }
    }

    /// A small configuration for unit tests.
    pub fn for_tests() -> Self {
        Self {
            num_workers: 4,
            num_queues: 3,
            kernel: Kernel::Auto,
            bsf: BsfPolicy::Atomic,
            queue_policy: QueuePolicy::SharedRoundRobin,
            collect_breakdown: false,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero workers or zero queues.
    pub fn validate(&self) {
        assert!(self.num_workers > 0, "need at least one search worker");
        assert!(self.num_queues > 0, "need at least one priority queue");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let ic = IndexConfig::default();
        assert_eq!(ic.segments, 16);
        assert_eq!(ic.chunk_size, 20_000);
        assert_eq!(ic.leaf_capacity, 2_000);
        assert_eq!(ic.initial_buffer_capacity, 5);
        assert!(ic.num_workers >= 1 && ic.num_workers <= 24);
        ic.validate(256);

        let qc = QueryConfig::default();
        assert_eq!(qc.num_queues, 24);
        assert!(qc.num_workers >= 1 && qc.num_workers <= 48);
        qc.validate();
    }

    #[test]
    fn auto_leaf_capacity_scales_with_dataset_size() {
        assert_eq!(auto_leaf_capacity(0), 64);
        assert_eq!(auto_leaf_capacity(10_000), 64);
        assert_eq!(auto_leaf_capacity(100_000), 195);
        assert_eq!(auto_leaf_capacity(1 << 20), 2_000);
        assert_eq!(auto_leaf_capacity(100_000_000), 2_000);
    }

    #[test]
    fn sq_and_mq_presets() {
        assert_eq!(QueryConfig::single_queue().num_queues, 1);
        assert_eq!(QueryConfig::multi_queue(7).num_queues, 7);
    }

    #[test]
    #[should_panic(expected = "more segments")]
    fn rejects_more_segments_than_points() {
        IndexConfig::default().validate(8);
    }

    #[test]
    #[should_panic(expected = "at least one priority queue")]
    fn rejects_zero_queues() {
        let qc = QueryConfig {
            num_queues: 0,
            ..QueryConfig::default()
        };
        qc.validate();
    }
}
