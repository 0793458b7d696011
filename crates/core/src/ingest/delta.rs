//! The [`DeltaIndex`]: an epoch/RCU seam over a
//! [`ShardedIndex`](crate::shard::ShardedIndex) that absorbs appended
//! series while queries keep reading immutable published state.
//!
//! ## The seam
//!
//! At any instant the live index is one **epoch**: an immutable
//! `(index + executor, sealed overlay)` pair behind an `Arc`. Queries
//! clone the current epoch's `Arc` (a brief `RwLock` read for the
//! pointer itself — never held across query work) and run entirely
//! against that snapshot; writers build a *successor* epoch and swap
//! the pointer. Two successor shapes exist:
//!
//! * **Ingest** — the batch is sealed as its own immutable segment and
//!   pushed onto the overlay; the heavy index core is shared with the
//!   previous epoch untouched. O(batch) work, no arena rebuild.
//! * **Republish** — the overlay is flattened: the base collection is
//!   copy-on-grown ([`Dataset::concat`]), only the root subtrees that
//!   received entries are rebuilt
//!   ([`MessiIndex::insert_batch`](crate::MessiIndex::insert_batch) via
//!   [`ShardedIndex::absorb`](crate::shard::ShardedIndex::absorb)), and
//!   a fresh prewarmed executor is published. Old epochs stay valid —
//!   and allocation-free to query — until their last reader drops.
//!
//! Overlay segments are answered by a brute-force scan with the *same*
//! distance kernels the engine uses at an infinite abandon bound, so
//! merged answers are bit-identical to a fresh build over the grown
//! collection (`tests/ingest_equivalence.rs` pins this across the whole
//! objective × metric × schedule matrix).

use super::log::{dataset_fingerprint, DeltaLog, ReplayReport};
use super::{check_position_ceiling, IngestError};
use crate::config::QueryConfig;
use crate::exec::{gather, MetricSpec, Objective, QueryAnswer, QuerySpec};
use crate::shard::{ShardedExecutor, ShardedIndex};
use crate::stats::QueryStats;
use messi_series::distance::dtw::dtw_sq_early_abandon;
use messi_series::distance::euclidean::ed_sq_early_abandon_with;
use messi_series::Dataset;
use parking_lot::{Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs of the live-ingest layer.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Overlay size (in series) that triggers an inline republish right
    /// after the insert that crossed it. `0` disables the size trigger
    /// (republish only manually or by cadence).
    pub republish_after: usize,
    /// Cadence trigger: when the published core is older than this and
    /// the overlay is non-empty, [`DeltaIndex::maybe_republish`]
    /// flattens it. `None` disables the cadence trigger.
    pub max_epoch_age: Option<Duration>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            republish_after: 4096,
            max_epoch_age: Some(Duration::from_secs(5)),
        }
    }
}

/// What [`DeltaIndex::insert_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Series accepted from the batch.
    pub accepted: usize,
    /// Total live series after the insert (base + overlay).
    pub total_series: u64,
    /// Epoch id now published.
    pub epoch: u64,
    /// Whether the insert tripped the size trigger and the overlay was
    /// flattened inline.
    pub republished: bool,
}

/// A point-in-time snapshot of the ingest layer's accounting, the
/// source for the `/metrics` ingest families. `Default` is the all-zero
/// snapshot a daemon without ingest enabled exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Published epoch id (bumps on every insert and republish).
    pub epoch: u64,
    /// Age of the published index core (resets on republish).
    pub epoch_age: Duration,
    /// Series currently in the sealed overlay (not yet flattened).
    pub overlay_series: u64,
    /// Total live series (base + overlay).
    pub total_series: u64,
    /// Ingest batches accepted since boot.
    pub batches: u64,
    /// Series ingested since boot.
    pub series_ingested: u64,
    /// Republishes (overlay flattens) since boot.
    pub republishes: u64,
    /// Total wall-clock spent republishing since boot.
    pub republish_time: Duration,
    /// Current delta-log size in bytes (0 when running without a log).
    pub log_bytes: u64,
}

/// One published epoch: the immutable index core plus the sealed
/// overlay segments appended since the core was built.
struct Epoch {
    core: Arc<EpochCore>,
    /// Sealed overlay segments, oldest first. Each is an independent
    /// immutable `Dataset`; segment series occupy global positions
    /// `core.index.num_series() ..` in arrival order.
    overlay: Vec<Arc<Dataset>>,
    /// Total series across `overlay` (cached).
    overlay_len: u64,
    /// Monotonic epoch id.
    id: u64,
}

impl Epoch {
    fn total_series(&self) -> u64 {
        self.core.index.num_series() + self.overlay_len
    }
}

/// The heavy, shareable part of an epoch: the sharded index and its
/// warm executor. Shared untouched across ingest epochs; replaced by
/// republish.
struct EpochCore {
    /// Declared before `index` so it drops first: it borrows the
    /// `ShardedIndex` heap allocation owned by `index`'s `Arc` through
    /// an erased lifetime (see [`EpochCore::new`]).
    exec: ShardedExecutor<'static>,
    index: Arc<ShardedIndex>,
    /// When this core was published (epoch-age metric and cadence
    /// trigger).
    published_at: Instant,
}

impl EpochCore {
    fn new(index: Arc<ShardedIndex>) -> Arc<Self> {
        let exec = ShardedExecutor::new(&index);
        // SAFETY: `exec` borrows the `ShardedIndex` allocation behind
        // `index`'s `Arc`. The `Arc` is stored in the same struct and
        // outlives `exec` (field order puts `exec` first, so it drops
        // first), and an `Arc`'s pointee never moves. The erased
        // lifetime is never observable: `EpochCore` is private to this
        // module and `exec` is only ever used while `&self` — and
        // therefore `index` — is alive.
        let exec =
            unsafe { std::mem::transmute::<ShardedExecutor<'_>, ShardedExecutor<'static>>(exec) };
        Arc::new(Self {
            exec,
            index,
            published_at: Instant::now(),
        })
    }

    /// Warms every pooled context so first queries on this core are
    /// allocation-free (the serve path asserts this via `alloc_events`).
    fn prewarm(&self, config: &QueryConfig) {
        let query = self.index.dataset().series(0).to_vec();
        self.exec.prewarm(&query, &QuerySpec::exact(), config);
    }
}

/// Writer-side state, serialized under one mutex: the optional delta
/// log handle. (The epoch pointer itself is swapped under its own
/// `RwLock`; this mutex only orders writers against each other.)
struct WriterState {
    log: Option<DeltaLog>,
}

/// A live, growable MESSI index: a [`ShardedIndex`] behind an
/// epoch/RCU seam that accepts appended series
/// ([`DeltaIndex::insert_batch`]) while concurrent queries
/// ([`DeltaIndex::query`]) keep reading immutable published state.
/// See the [module docs](crate::ingest) for the design.
pub struct DeltaIndex {
    /// The published epoch. Readers hold the lock only long enough to
    /// clone the `Arc`; writers only long enough to store a new one.
    published: RwLock<Arc<Epoch>>,
    /// Serializes writers (insert/republish/compact) and owns the log.
    writer: Mutex<WriterState>,
    options: IngestOptions,
    /// Last prewarm configuration — republish warms the fresh executor
    /// with it before the swap, keeping the no-alloc discipline across
    /// epochs.
    warm: Mutex<QueryConfig>,
    batches: AtomicU64,
    series_ingested: AtomicU64,
    republishes: AtomicU64,
    republish_micros: AtomicU64,
    log_bytes: AtomicU64,
}

impl DeltaIndex {
    /// Wraps a built index as epoch 0, without durability (no delta
    /// log — inserts are accepted in memory only).
    pub fn new(index: ShardedIndex, options: IngestOptions) -> Self {
        let core = EpochCore::new(Arc::new(index));
        let epoch = Arc::new(Epoch {
            core,
            overlay: Vec::new(),
            overlay_len: 0,
            id: 0,
        });
        Self {
            published: RwLock::new(epoch),
            writer: Mutex::new(WriterState { log: None }),
            options,
            warm: Mutex::new(QueryConfig::default()),
            batches: AtomicU64::new(0),
            series_ingested: AtomicU64::new(0),
            republishes: AtomicU64::new(0),
            republish_micros: AtomicU64::new(0),
            log_bytes: AtomicU64::new(0),
        }
    }

    /// Wraps a built index with a delta log at `path`: opens (or
    /// creates) the log, validates it belongs to this collection,
    /// replays any surviving batches over the index, and keeps the
    /// handle so every subsequent [`DeltaIndex::insert_batch`] is
    /// appended and fsynced before it becomes queryable.
    ///
    /// The returned [`ReplayReport`] says how many batches were
    /// recovered and whether a torn tail was dropped.
    pub fn with_log(
        index: ShardedIndex,
        options: IngestOptions,
        path: &Path,
    ) -> Result<(Self, ReplayReport), IngestError> {
        let series_len = index.dataset().series_len();
        let base_len = index.dataset().len() as u64;
        let fingerprint = dataset_fingerprint(index.dataset());
        let (log, batches, report) = DeltaLog::open(path, series_len, base_len, fingerprint)?;
        let live = Self::new(index, options);
        for batch in &batches {
            // Replay in memory only — these batches are already in the
            // log (the handle is installed after the loop).
            live.ingest(batch, false)?;
        }
        live.log_bytes.store(log.bytes(), Ordering::Relaxed);
        live.writer.lock().log = Some(log);
        Ok((live, report))
    }

    /// The current epoch snapshot: one brief read-lock to clone the
    /// `Arc`, never held across query work.
    fn snapshot(&self) -> Arc<Epoch> {
        Arc::clone(&self.published.read())
    }

    /// Appends a batch of series to the live index. On return the
    /// batch is durable (fsynced to the delta log, when one is
    /// attached) and visible to every query started afterwards; queries
    /// already in flight keep their pre-insert snapshot. Series are
    /// assigned consecutive global positions starting at the current
    /// total.
    ///
    /// Rejects (typed, atomically — nothing is logged or published on
    /// error): empty batches, shape mismatches, non-finite values, and
    /// batches that would push the absorbing shard past the `u32`
    /// local-position ceiling.
    pub fn insert_batch(&self, batch: &Dataset) -> Result<IngestReport, IngestError> {
        self.ingest(batch, true)
    }

    fn ingest(&self, batch: &Dataset, durable: bool) -> Result<IngestReport, IngestError> {
        if batch.is_empty() {
            return Err(IngestError::EmptyBatch);
        }
        let mut writer = self.writer.lock();
        let epoch = self.snapshot();
        let series_len = epoch.core.index.dataset().series_len();
        if batch.series_len() != series_len {
            return Err(IngestError::ShapeMismatch {
                expected: series_len,
                got: batch.series_len(),
            });
        }
        if let Some((pos, index)) = batch.find_non_finite() {
            return Err(IngestError::NonFinite { pos, index });
        }
        // The whole overlay lands in the last shard at the next
        // republish — enforce its u32 ceiling now, so acceptance is
        // the only gate (republish can then never fail on positions).
        let shards = epoch.core.index.num_shards();
        let last_local = epoch.core.index.shard(shards - 1).num_series() as u64 + epoch.overlay_len;
        check_position_ceiling(last_local, batch.len() as u64)?;

        // Durability before visibility: the log append fsyncs.
        if durable {
            if let Some(log) = writer.log.as_mut() {
                log.append(batch)?;
                self.log_bytes.store(log.bytes(), Ordering::Relaxed);
            }
        }

        // Seal the batch as an immutable segment of our own (the
        // caller's buffer may alias something it later mutates).
        let sealed = Arc::new(
            Dataset::from_flat(batch.as_flat().to_vec(), series_len)
                .expect("validated batch shape"),
        );
        let mut overlay = epoch.overlay.clone();
        overlay.push(sealed);
        let overlay_len = epoch.overlay_len + batch.len() as u64;
        let next = Arc::new(Epoch {
            core: Arc::clone(&epoch.core),
            overlay,
            overlay_len,
            id: epoch.id + 1,
        });
        *self.published.write() = next;
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.series_ingested
            .fetch_add(batch.len() as u64, Ordering::Relaxed);

        let mut republished = false;
        if self.options.republish_after > 0 && overlay_len as usize >= self.options.republish_after
        {
            republished = self.republish_locked(&mut writer)?;
        }
        let now = self.snapshot();
        Ok(IngestReport {
            accepted: batch.len(),
            total_series: now.total_series(),
            epoch: now.id,
            republished,
        })
    }

    /// Flattens the overlay into a fresh index core now (regardless of
    /// triggers). Returns `true` if there was anything to flatten.
    pub fn republish(&self) -> Result<bool, IngestError> {
        let mut writer = self.writer.lock();
        self.republish_locked(&mut writer)
    }

    /// Applies the cadence trigger: republishes iff the overlay is
    /// non-empty and the published core is older than
    /// [`IngestOptions::max_epoch_age`]. The serve loop calls this on
    /// idle ticks.
    pub fn maybe_republish(&self) -> Result<bool, IngestError> {
        let Some(max_age) = self.options.max_epoch_age else {
            return Ok(false);
        };
        {
            let epoch = self.snapshot();
            if epoch.overlay_len == 0 || epoch.core.published_at.elapsed() <= max_age {
                return Ok(false);
            }
        }
        let mut writer = self.writer.lock();
        self.republish_locked(&mut writer)
    }

    fn republish_locked(&self, _writer: &mut WriterState) -> Result<bool, IngestError> {
        let epoch = self.snapshot();
        if epoch.overlay.is_empty() {
            return Ok(false);
        }
        let started = Instant::now();
        // Copy-on-grow: a brand-new backing buffer; every outstanding
        // view of the old dataset stays pinned to the old buffer.
        let grown = epoch
            .core
            .index
            .dataset()
            .concat(epoch.overlay.iter().map(Arc::as_ref))
            .map_err(|e| IngestError::Corrupt(e.to_string()))?;
        let index = epoch.core.index.absorb(Arc::new(grown))?;
        let core = EpochCore::new(Arc::new(index));
        // Warm the fresh executor *before* the swap so queries landing
        // on the new epoch stay allocation-free from the first one.
        core.prewarm(&self.warm.lock().clone());
        let next = Arc::new(Epoch {
            core,
            overlay: Vec::new(),
            overlay_len: 0,
            id: epoch.id + 1,
        });
        *self.published.write() = next;
        self.republishes.fetch_add(1, Ordering::Relaxed);
        self.republish_micros
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        Ok(true)
    }

    /// Republishes, then resets the delta log to a fresh header over
    /// the (now grown) base collection — the caller must have persisted
    /// that collection first (see `messi compact`). Returns the new
    /// base length. No-op on the log when none is attached.
    pub fn checkpoint_log(&self) -> Result<u64, IngestError> {
        let mut writer = self.writer.lock();
        self.republish_locked(&mut writer)?;
        let epoch = self.snapshot();
        let dataset = epoch.core.index.dataset();
        if let Some(log) = writer.log.as_mut() {
            log.reset(
                dataset.series_len(),
                dataset.len() as u64,
                dataset_fingerprint(dataset),
            )?;
            self.log_bytes.store(log.bytes(), Ordering::Relaxed);
        }
        Ok(dataset.len() as u64)
    }

    /// Answers one query against the live index: the published arenas
    /// through the epoch's warm executor, plus a brute-force scan of
    /// the sealed overlay with the engine's own kernels at an infinite
    /// abandon bound, merged with the executor's exact tie-break order.
    /// Positions are global and stable across republishes.
    ///
    /// # Panics
    ///
    /// As the underlying executor: invalid spec, query length mismatch,
    /// or invalid configuration.
    pub fn query(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let (answers, stats, _, _) = self.query_traced(query, spec, config);
        (answers, stats)
    }

    /// [`DeltaIndex::query`] plus the executor's allocation-event count
    /// and per-shard statistics (the serve layer's tracing hook).
    pub fn query_traced(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats, u64, Vec<QueryStats>) {
        let epoch = self.snapshot();
        let (answers, mut stats, alloc_events, per_shard) =
            epoch.core.exec.run_one_traced(query, spec, config);
        if epoch.overlay_len == 0 {
            return (answers, stats, alloc_events, per_shard);
        }
        let overlay = overlay_candidates(&epoch, query, spec, config);
        stats.real_distance_calcs += overlay.len() as u64;
        let answers = merge_overlay(spec, answers, overlay);
        (answers, stats, alloc_events, per_shard)
    }

    /// Warms every pooled context of the current epoch and remembers
    /// `config` so republish re-warms successor epochs the same way.
    pub fn prewarm(&self, config: &QueryConfig) {
        *self.warm.lock() = config.clone();
        self.snapshot().core.prewarm(config);
    }

    /// The published index core (base collection only — excludes any
    /// un-flattened overlay). Call [`DeltaIndex::republish`] first to
    /// fold the overlay in, e.g. before saving a snapshot.
    pub fn index(&self) -> Arc<ShardedIndex> {
        Arc::clone(&self.snapshot().core.index)
    }

    /// Total live series (base + overlay).
    pub fn num_series(&self) -> u64 {
        self.snapshot().total_series()
    }

    /// Length of every indexed series.
    pub fn series_len(&self) -> usize {
        self.snapshot().core.index.dataset().series_len()
    }

    /// The published epoch id (bumps on every insert and republish).
    pub fn epoch(&self) -> u64 {
        self.snapshot().id
    }

    /// Point-in-time ingest accounting for `/metrics`.
    pub fn stats(&self) -> IngestStats {
        let epoch = self.snapshot();
        IngestStats {
            epoch: epoch.id,
            epoch_age: epoch.core.published_at.elapsed(),
            overlay_series: epoch.overlay_len,
            total_series: epoch.total_series(),
            batches: self.batches.load(Ordering::Relaxed),
            series_ingested: self.series_ingested.load(Ordering::Relaxed),
            republishes: self.republishes.load(Ordering::Relaxed),
            republish_time: Duration::from_micros(self.republish_micros.load(Ordering::Relaxed)),
            log_bytes: self.log_bytes.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for DeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("DeltaIndex")
            .field("epoch", &s.epoch)
            .field("total_series", &s.total_series)
            .field("overlay_series", &s.overlay_series)
            .field("republishes", &s.republishes)
            .finish_non_exhaustive()
    }
}

/// Brute-force distances from `query` to every overlay series, using
/// the *same* kernels the engine's refinement step uses, at an
/// infinite abandon bound so the computed value is the full distance
/// (both kernels only return early with a value `>= bound`; at
/// `f32::INFINITY` they never abandon). This is what makes merged
/// answers bit-identical to a fresh build over the grown collection.
fn overlay_candidates(
    epoch: &Epoch,
    query: &[f32],
    spec: &QuerySpec,
    config: &QueryConfig,
) -> Vec<QueryAnswer> {
    let mut pos = epoch.core.index.num_series();
    let mut out = Vec::with_capacity(epoch.overlay_len as usize);
    for segment in &epoch.overlay {
        for series in segment.iter() {
            let dist_sq = match spec.metric {
                MetricSpec::Euclidean => {
                    ed_sq_early_abandon_with(config.kernel, query, series, f32::INFINITY)
                }
                MetricSpec::Dtw(params) => {
                    dtw_sq_early_abandon(query, series, params, f32::INFINITY)
                }
            };
            out.push(QueryAnswer { pos, dist_sq });
            pos += 1;
        }
    }
    out
}

/// Merges engine answers with overlay candidates through the
/// executor's own gather, so both follow the one answer order
/// ([`QueryAnswer::rank_cmp`]).
fn merge_overlay(
    spec: &QuerySpec,
    mut engine: Vec<QueryAnswer>,
    overlay: Vec<QueryAnswer>,
) -> Vec<QueryAnswer> {
    match spec.objective {
        // The engine admits `dist < next_up(ε²)`, i.e. `dist ≤ ε²` for
        // finite distances — mirror that bound exactly.
        Objective::Range { epsilon_sq } => {
            engine.extend(overlay.into_iter().filter(|a| a.dist_sq <= epsilon_sq));
        }
        _ => engine.extend(overlay),
    }
    gather(spec.objective, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};

    fn live_index(count: usize, shards: usize) -> DeltaIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, 42));
        let (index, _) = ShardedIndex::build(data, shards, &IndexConfig::for_tests());
        DeltaIndex::new(index, IngestOptions::default())
    }

    #[test]
    fn insert_seals_overlay_and_bumps_epoch() {
        let live = live_index(200, 2);
        assert_eq!(live.epoch(), 0);
        assert_eq!(live.num_series(), 200);
        let batch = gen::generate(DatasetKind::RandomWalk, 3, 7);
        let report = live.insert_batch(&batch).expect("accepted");
        assert_eq!(report.accepted, 3);
        assert_eq!(report.total_series, 203);
        assert_eq!(report.epoch, 1);
        assert!(!report.republished);
        let stats = live.stats();
        assert_eq!(stats.overlay_series, 3);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.series_ingested, 3);
    }

    #[test]
    fn republish_flattens_and_preserves_answers() {
        let live = live_index(150, 3);
        let batch = gen::generate(DatasetKind::RandomWalk, 10, 9);
        live.insert_batch(&batch).expect("accepted");
        let query = batch.series(4).to_vec();
        let config = QueryConfig::for_tests();
        let (before, _) = live.query(&query, &QuerySpec::exact(), &config);
        assert_eq!(before[0].pos, 154, "overlay series 4 sits at 150 + 4");
        assert_eq!(before[0].dist_sq, 0.0);

        assert!(live.republish().expect("republish"));
        assert_eq!(live.stats().overlay_series, 0);
        assert_eq!(live.num_series(), 160);
        let (after, _) = live.query(&query, &QuerySpec::exact(), &config);
        assert_eq!(after, before, "positions are stable across republish");
        // Idempotent when the overlay is empty.
        assert!(!live.republish().expect("republish"));
    }

    #[test]
    fn typed_rejections_leave_state_untouched() {
        let live = live_index(100, 1);
        let epoch = live.epoch();

        let empty = Dataset::from_flat(Vec::new(), 256).expect("empty dataset");
        assert!(matches!(
            live.insert_batch(&empty),
            Err(IngestError::EmptyBatch)
        ));

        let skinny = Dataset::from_flat(vec![0.5; 2 * 64], 64).expect("shape ok");
        assert!(matches!(
            live.insert_batch(&skinny),
            Err(IngestError::ShapeMismatch { got: 64, .. })
        ));

        let mut values = gen::generate(DatasetKind::RandomWalk, 1, 2)
            .as_flat()
            .to_vec();
        values[5] = f32::NAN;
        let poisoned = Dataset::from_flat(values, live.series_len()).expect("shape ok");
        assert!(matches!(
            live.insert_batch(&poisoned),
            Err(IngestError::NonFinite { pos: 0, index: 5 })
        ));

        assert_eq!(live.epoch(), epoch, "rejected batches publish nothing");
        assert_eq!(live.num_series(), 100);
    }

    #[test]
    fn size_trigger_republishes_inline() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 5));
        let (index, _) = ShardedIndex::build(data, 1, &IndexConfig::for_tests());
        let live = DeltaIndex::new(
            index,
            IngestOptions {
                republish_after: 8,
                max_epoch_age: None,
            },
        );
        let batch = gen::generate(DatasetKind::RandomWalk, 5, 6);
        assert!(!live.insert_batch(&batch).expect("first").republished);
        let report = live.insert_batch(&batch).expect("second");
        assert!(report.republished, "10 >= 8 flattens inline");
        assert_eq!(live.stats().overlay_series, 0);
        assert_eq!(live.stats().republishes, 1);
        assert_eq!(live.num_series(), 110);
    }
}
