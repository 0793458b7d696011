//! The [`ShardedIndex`]: N independent [`MessiIndex`] shards over
//! contiguous position ranges, built in parallel.

use crate::config::IndexConfig;
use crate::index::MessiIndex;
use crate::stats::BuildStats;
use messi_series::Dataset;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A sharded MESSI index: the collection partitioned into contiguous
/// position ranges, one independent [`MessiIndex`] per range.
///
/// Shard `i` covers global positions
/// `[shard_offset(i), shard_offset(i) + shard(i).num_series())`; inside
/// the shard, positions are local `u32`s, globalized with
/// [`super::global_pos`]. Shards are built in parallel (one build per
/// shard, each with a proportional slice of the configured index
/// workers) and queried through a [`super::ShardedExecutor`], which
/// fans each query out and merges the partial answers.
///
/// Why shard at all:
///
/// * **Parallel build wall-clock** — per-shard builds overlap end to
///   end, including their serial phases.
/// * **Scale** — a single `MessiIndex` caps the collection at
///   `u32::MAX` series (positions are `u32`); N shards multiply that
///   ceiling by N while answers carry `u64` global positions.
/// * **Inter-query throughput** — a batch worker walks the shards
///   sequentially per query, and the cross-shard shared BSF lets a
///   tight answer from an early shard prune most of the later shards'
///   work.
///
/// ```
/// use messi_core::{IndexConfig, QueryConfig, ShardedIndex};
/// use messi_core::exec::QuerySpec;
/// use messi_series::gen::{self, DatasetKind};
/// use std::sync::Arc;
///
/// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 600, 9));
/// let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 4, &IndexConfig::for_tests());
/// assert_eq!(sharded.num_shards(), 4);
///
/// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 9);
/// let exec = sharded.executor();
/// let (answers, _) = exec.run_one(queries.series(0), &QuerySpec::exact(), &QueryConfig::for_tests());
/// let (bf_pos, _) = data.nearest_neighbor_brute_force(queries.series(0));
/// assert_eq!(answers[0].pos, bf_pos as u64);
/// ```
#[derive(Debug)]
pub struct ShardedIndex {
    /// Shards are `Arc`-shared so a grown copy ([`ShardedIndex::absorb`])
    /// can reuse every untouched shard without rebuilding it.
    shards: Vec<Arc<MessiIndex>>,
    /// First global position of each shard (ascending, `offsets[0] == 0`).
    offsets: Vec<u64>,
    /// The full collection (shards hold their own sub-dataset `Arc`s).
    dataset: Arc<Dataset>,
}

/// The contiguous balanced partition of `len` positions into `n`
/// ranges: every range gets `len / n` positions and the first `len % n`
/// ranges get one extra, so range sizes differ by at most one. This is
/// the *canonical* partition — [`super::load_sharded`] recomputes the
/// same split to reconstruct per-shard sub-datasets, and the manifest
/// cross-checks it.
pub(crate) fn shard_ranges(len: usize, n: usize) -> Vec<(usize, usize)> {
    let base = len / n;
    let extra = len % n;
    let mut start = 0;
    (0..n)
        .map(|i| {
            let size = base + usize::from(i < extra);
            let range = (start, start + size);
            start += size;
            range
        })
        .collect()
}

impl ShardedIndex {
    /// Builds `num_shards` independent shards over `dataset` in
    /// parallel and returns the sharded index plus merged construction
    /// statistics (phase times are the *maximum* across the overlapping
    /// per-shard builds; `total_time` is the scatter's wall clock).
    ///
    /// At most `available_cores` builds run at once (extra shards queue
    /// behind a shared counter), and each concurrent build gets a
    /// proportional slice of the configured index workers, so the
    /// machine is never oversubscribed. `num_shards == 1` builds a single shard
    /// over the full dataset `Arc` directly (no copy) — byte-identical
    /// to [`MessiIndex::build`].
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or exceeds the number of series,
    /// if the dataset is empty, if any shard would exceed the per-shard
    /// `u32` position cap, or if the configuration is invalid.
    pub fn build(
        dataset: Arc<Dataset>,
        num_shards: usize,
        config: &IndexConfig,
    ) -> (Self, BuildStats) {
        assert!(num_shards > 0, "need at least one shard");
        assert!(
            num_shards <= dataset.len(),
            "more shards ({num_shards}) than series ({})",
            dataset.len()
        );
        let t_start = Instant::now();
        if num_shards == 1 {
            let (index, stats) = MessiIndex::build(Arc::clone(&dataset), config);
            return (
                Self {
                    shards: vec![Arc::new(index)],
                    offsets: vec![0],
                    dataset,
                },
                stats,
            );
        }

        let ranges = shard_ranges(dataset.len(), num_shards);
        // At most `available_cores` shard builds run concurrently —
        // more would just time-slice and thrash caches (on a 1-core
        // host the builds run back to back). Each concurrent build gets
        // a proportional slice of the configured worker budget.
        let concurrency = num_shards.min(crate::config::available_cores()).max(1);
        let shard_config = IndexConfig {
            num_workers: (config.num_workers / concurrency).max(1),
            ..config.clone()
        };
        let built: Vec<parking_lot::Mutex<Option<(MessiIndex, BuildStats)>>> = (0..num_shards)
            .map(|_| parking_lot::Mutex::new(None))
            .collect();
        // `concurrency` scoped threads drain the shard list via a shared
        // counter. `MessiIndex::build` parallelizes internally with
        // scoped threads of its own (never the global worker pool), so
        // nesting is plain fork-join.
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..concurrency {
                let next = &next;
                let built = &built;
                let ranges = &ranges;
                let dataset = &dataset;
                let shard_config = &shard_config;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&(start, end)) = ranges.get(i) else {
                        break;
                    };
                    let sub = shard_dataset(dataset, start, end);
                    *built[i].lock() = Some(MessiIndex::build(sub, shard_config));
                });
            }
        });

        let mut shards = Vec::with_capacity(num_shards);
        let mut stats = BuildStats {
            summarize_time: Duration::ZERO,
            tree_time: Duration::ZERO,
            total_time: t_start.elapsed(),
            num_series: 0,
            num_leaves: 0,
            num_root_subtrees: 0,
            max_height: 0,
        };
        for slot in built {
            let (index, s) = slot.into_inner().expect("every shard built");
            stats.summarize_time = stats.summarize_time.max(s.summarize_time);
            stats.tree_time = stats.tree_time.max(s.tree_time);
            stats.num_series += s.num_series;
            stats.num_leaves += s.num_leaves;
            stats.num_root_subtrees += s.num_root_subtrees;
            stats.max_height = stats.max_height.max(s.max_height);
            shards.push(Arc::new(index));
        }
        let offsets = ranges.iter().map(|&(start, _)| start as u64).collect();
        (
            Self {
                shards,
                offsets,
                dataset,
            },
            stats,
        )
    }

    /// Wraps an already-built single [`MessiIndex`] as a one-shard
    /// sharded index (offset 0), so code written against the sharded
    /// frontend — the serve daemon, the CLI — also accepts single-file
    /// snapshots and `--shards 1` builds without a separate path.
    pub fn from_single(index: MessiIndex) -> Self {
        let dataset = Arc::clone(index.dataset());
        Self {
            shards: vec![Arc::new(index)],
            offsets: vec![0],
            dataset,
        }
    }

    /// Assembles a sharded index from parts — the loader's entry point.
    /// `shards[i]` must index exactly the sub-range of `dataset`
    /// starting at global position `offsets[i]`.
    pub(crate) fn from_parts(
        shards: Vec<MessiIndex>,
        offsets: Vec<u64>,
        dataset: Arc<Dataset>,
    ) -> Self {
        debug_assert_eq!(shards.len(), offsets.len());
        Self {
            shards: shards.into_iter().map(Arc::new).collect(),
            offsets,
            dataset,
        }
    }

    /// A grown copy of this index over `grown` — a dataset that starts
    /// with this index's series and appends new ones at the tail.
    ///
    /// Only the **last** shard is rebuilt (via
    /// [`MessiIndex::insert_batch`], which reuses every untouched root
    /// subtree's arena verbatim); all earlier shards are shared with
    /// `self` through their `Arc`s. The contiguous-partition invariant
    /// is preserved — the last shard simply covers a longer tail — but
    /// the split is no longer the canonical balanced one, so snapshot
    /// loading validates the manifest's recorded partition rather than
    /// recomputing it.
    ///
    /// # Panics
    ///
    /// Panics if `grown` is not a strict extension of this index's
    /// dataset shape (same `series_len`, at least as many series).
    pub fn absorb(&self, grown: Arc<Dataset>) -> Result<Self, crate::ingest::IngestError> {
        assert_eq!(
            grown.series_len(),
            self.dataset.series_len(),
            "grown dataset changes series_len"
        );
        assert!(
            grown.len() >= self.dataset.len(),
            "grown dataset shrank: {} -> {}",
            self.dataset.len(),
            grown.len()
        );
        let n = self.shards.len();
        let last_start = self.offsets[n - 1] as usize;
        let already_indexed = self.dataset.len() - last_start;
        let sub = shard_dataset(&grown, last_start, grown.len());
        let last = self.shards[n - 1].insert_batch(sub, already_indexed)?;
        let mut shards: Vec<Arc<MessiIndex>> = self.shards[..n - 1].to_vec();
        shards.push(Arc::new(last));
        Ok(Self {
            shards,
            offsets: self.offsets.clone(),
            dataset: grown,
        })
    }

    /// The full collection this index covers.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s index (positions local to the shard).
    pub fn shard(&self, i: usize) -> &MessiIndex {
        &self.shards[i]
    }

    /// All shards, ascending by global position range.
    pub fn shards(&self) -> &[Arc<MessiIndex>] {
        &self.shards
    }

    /// Shard `i`'s first global position — the `offset` argument of
    /// [`super::global_pos`].
    pub fn shard_offset(&self, i: usize) -> u64 {
        self.offsets[i]
    }

    /// Maps a global position back to `(shard, local position)` — the
    /// inverse of [`super::global_pos`].
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn locate(&self, pos: u64) -> (usize, u32) {
        assert!(
            pos < self.num_series(),
            "global position {pos} out of range"
        );
        let shard = match self.offsets.binary_search(&pos) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (shard, (pos - self.offsets[shard]) as u32)
    }

    /// Total series across all shards (equals the dataset length).
    pub fn num_series(&self) -> u64 {
        self.shards.iter().map(|s| s.num_series() as u64).sum()
    }

    /// Total leaves across all shards.
    pub fn num_leaves(&self) -> usize {
        self.shards.iter().map(|s| s.num_leaves()).sum()
    }

    /// Total stored leaf entries across all shards.
    pub fn num_entries(&self) -> usize {
        self.shards.iter().map(|s| s.num_entries()).sum()
    }

    /// Height of the tallest root subtree of any shard.
    pub fn max_height(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.max_height())
            .max()
            .unwrap_or(0)
    }

    /// Bytes held by all node arenas across all shards.
    pub fn node_storage_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.node_storage_bytes()).sum()
    }

    /// Bytes that store the leaf entries (positions plus symbol
    /// columns) across all shards.
    pub fn entry_storage_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.entry_storage_bytes()).sum()
    }

    /// Mean leaf fill factor across all shards (entry-weighted).
    pub fn leaf_fill_factor(&self) -> f64 {
        let leaves = self.num_leaves();
        if leaves == 0 {
            return 0.0;
        }
        self.num_entries() as f64 / (leaves * self.shard(0).config().leaf_capacity) as f64
    }

    /// Creates a pooled [`super::ShardedExecutor`] over this index —
    /// the scatter-gather frontend serving every objective × metric ×
    /// schedule combination.
    pub fn executor(&self) -> super::ShardedExecutor<'_> {
        super::ShardedExecutor::new(self)
    }
}

/// The sub-dataset for global positions `[start, end)`: a zero-copy
/// [`Dataset::view`] sharing the full collection's backing buffer (a
/// 4-shard build over 50M series would otherwise memcpy the entire
/// collection once before building). The view exposes exactly the
/// range's bytes, so a per-shard snapshot's dataset fingerprint
/// ([`crate::persist`]) reproduces at load time from the same range of
/// the full collection.
pub(crate) fn shard_dataset(dataset: &Arc<Dataset>, start: usize, end: usize) -> Arc<Dataset> {
    if start == 0 && end == dataset.len() {
        return Arc::clone(dataset);
    }
    Arc::new(dataset.view(start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_series::gen::{self, DatasetKind};

    #[test]
    fn ranges_are_contiguous_balanced_and_exhaustive() {
        for (len, n) in [(10, 3), (9, 3), (1, 1), (7, 7), (1000, 4), (5, 2)] {
            let ranges = shard_ranges(len, n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[n - 1].1, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced: {sizes:?}");
            assert!(*min >= 1, "no empty shard");
        }
    }

    #[test]
    fn build_partitions_and_globalizes() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 503, 77));
        let (sharded, stats) = ShardedIndex::build(Arc::clone(&data), 4, &IndexConfig::for_tests());
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.num_series(), 503);
        assert_eq!(stats.num_series, 503);
        assert_eq!(sharded.num_entries(), 503);
        assert!(stats.total_time.as_nanos() > 0);
        // Offsets are the partial sums of shard sizes.
        let mut expect = 0u64;
        for i in 0..4 {
            assert_eq!(sharded.shard_offset(i), expect);
            expect += sharded.shard(i).num_series() as u64;
        }
        // Every shard's sub-dataset is the matching slice of the full
        // collection, so local position p in shard i is global
        // offset+p of the original.
        for i in 0..4 {
            let off = sharded.shard_offset(i) as usize;
            let shard_data = sharded.shard(i).dataset();
            for p in [0usize, shard_data.len() - 1] {
                assert_eq!(shard_data.series(p), data.series(off + p));
            }
        }
    }

    #[test]
    fn locate_inverts_global_pos() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 101, 3));
        let (sharded, _) = ShardedIndex::build(data, 3, &IndexConfig::for_tests());
        for pos in [0u64, 1, 33, 34, 67, 100] {
            let (shard, local) = sharded.locate(pos);
            assert_eq!(
                super::super::global_pos(sharded.shard_offset(shard), local),
                pos
            );
            assert!((local as usize) < sharded.shard(shard).num_series());
        }
    }

    #[test]
    fn single_shard_build_shares_the_dataset_arc() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 64, 5));
        let (sharded, _) = ShardedIndex::build(Arc::clone(&data), 1, &IndexConfig::for_tests());
        assert!(Arc::ptr_eq(sharded.shard(0).dataset(), &data));
        let single = ShardedIndex::from_single(
            MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests()).0,
        );
        assert_eq!(single.num_shards(), 1);
        assert_eq!(single.shard_offset(0), 0);
    }

    #[test]
    #[should_panic(expected = "more shards")]
    fn rejects_more_shards_than_series() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 3, 1));
        ShardedIndex::build(data, 4, &IndexConfig::for_tests());
    }
}
