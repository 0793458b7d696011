//! The [`MessiIndex`] handle: the finished tree plus approximate search.

use crate::config::{IndexConfig, QueryConfig};
use crate::engine::{QueryContext, ShardSlot};
use crate::exec::{QueryAnswer, QuerySpec};
use crate::node::{
    assemble_forest, forest_groups, LeafEntry, NodeId, NodeRecord, Subtree, SubtreeBuilder,
    TreeArena,
};
use crate::stats::{BuildStats, QueryStats};
use messi_sax::convert::{SaxConfig, SaxConverter};
use messi_sax::mindist::mindist_sq_node;
use messi_sax::root_key::{node_word_for_root_key, root_key};
use messi_sax::word::SaxWord;
use messi_series::distance::dtw::DtwParams;
use messi_series::distance::Kernel;
use messi_series::Dataset;
use std::sync::Arc;

/// `slots` sentinel for "this root key has no subtree".
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// The MESSI in-memory data-series index.
///
/// Holds (an `Arc` to) the raw dataset, the iSAX configuration, and the
/// index tree: up to 2^w root subtrees, each flattened into a
/// [`TreeArena`] (contiguous preorder node records + the leaves'
/// positions and symbol columns — see [`crate::node`]). Built with
/// [`MessiIndex::build`]; queried with [`MessiIndex::search`] (exact
/// 1-NN), [`MessiIndex::search_knn`], [`MessiIndex::search_range`],
/// [`MessiIndex::search_approximate_bounded`] (δ-ε-approximate 1-NN),
/// and their DTW twins — all answered by the one query path of
/// [`crate::exec`] over the unified [`crate::engine`] driver.
/// [`crate::persist`] saves and reloads the whole structure as a
/// snapshot file.
#[derive(Debug)]
pub struct MessiIndex {
    pub(crate) dataset: Arc<Dataset>,
    pub(crate) config: IndexConfig,
    pub(crate) sax_config: SaxConfig,
    /// Segment lengths as f32 (mindist scale factors).
    pub(crate) scales: Vec<f32>,
    /// The forest arenas, in ascending key order. Consecutive sparse
    /// root subtrees share one arena under a synthetic trie spine (see
    /// [`crate::node`]'s forest docs); a dense subtree gets its own.
    pub(crate) arenas: Vec<TreeArena>,
    /// Root key → index into `arenas` ([`EMPTY_SLOT`] = empty subtree).
    /// Several member keys of one forest map to the same arena.
    pub(crate) slots: Vec<u32>,
    /// Keys of the non-empty root subtrees, ascending.
    pub(crate) touched: Vec<usize>,
}

impl MessiIndex {
    /// Builds the index over `dataset` (Alg. 1–4). Returns the index and
    /// its construction statistics.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, holds more than `u32::MAX` series
    /// (positions are stored as `u32`), or the configuration is invalid
    /// for its shape.
    pub fn build(dataset: Arc<Dataset>, config: &IndexConfig) -> (Self, BuildStats) {
        crate::build::build_index(dataset, config)
    }

    /// Assembles an index from separately built root subtrees.
    ///
    /// This exists for the ParIS baseline (`messi-baselines`), which
    /// shares the tree *structure* with MESSI but constructs it with its
    /// own (locked-buffer) algorithm, and for [`crate::persist`]'s
    /// snapshot loader. `subtrees` pairs each root key with its
    /// [`Subtree`], in any order; empty keys are simply absent.
    ///
    /// This is the single grouping chokepoint: consecutive sparse
    /// subtrees are regrouped here into forest arenas by the
    /// deterministic rule shared with validation, so every construction
    /// path (parallel build, baselines, snapshot load) produces the same
    /// forests for the same per-key trees, and each entry is transposed
    /// into its arena's symbol columns once, here.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or duplicate keys, or an invalid
    /// configuration.
    #[doc(hidden)]
    pub fn from_parts(
        dataset: Arc<Dataset>,
        config: IndexConfig,
        mut subtrees: Vec<(usize, Subtree)>,
    ) -> Self {
        config.validate(dataset.series_len());
        crate::build::assert_positions_fit(&dataset);
        let sax_config = SaxConfig::new(config.segments, dataset.series_len());
        let num_keys = sax_config.num_root_subtrees();
        subtrees.sort_by_key(|(key, _)| *key);
        let mut slots = vec![EMPTY_SLOT; num_keys];
        let mut touched = Vec::with_capacity(subtrees.len());
        for &(key, _) in &subtrees {
            assert!(key < num_keys, "root key {key} out of range (< {num_keys})");
            assert!(touched.last() != Some(&key), "subtree {key} provided twice");
            touched.push(key);
        }
        let counts: Vec<usize> = subtrees.iter().map(|(_, s)| s.num_entries()).collect();
        let groups = forest_groups(&counts);
        let mut arenas = Vec::with_capacity(groups.len());
        let mut remaining = subtrees.into_iter();
        for range in groups {
            let group: Vec<(usize, Subtree)> = remaining.by_ref().take(range.len()).collect();
            for &(key, _) in &group {
                slots[key] = arenas.len() as u32;
            }
            arenas.push(assemble_forest(group, config.segments));
        }
        Self {
            scales: messi_sax::mindist::segment_scales(sax_config),
            dataset,
            config,
            sax_config,
            arenas,
            slots,
            touched,
        }
    }

    /// A grown copy of this index over `grown`: the same collection with
    /// `grown.len() - start` new series appended at local positions
    /// `start..grown.len()`, where `start` is the number of series this
    /// index already covers.
    ///
    /// Only root subtrees that receive new entries are rebuilt (through
    /// a [`SubtreeBuilder`], exactly as at build time); every untouched
    /// subtree's nodes and entries are carried over verbatim, and
    /// the result is reassembled by [`MessiIndex::from_parts`] so forest
    /// grouping, leaf runs, and SoA columns keep working identically to
    /// a fresh build over the grown collection.
    ///
    /// ## Append-safety invariant (audited for live ingest)
    ///
    /// `grown` must be a **new** `Dataset` whose backing buffer starts
    /// with this index's series bit-for-bit — growth is always
    /// copy-on-grow (see [`Dataset::concat`]). Existing leaf entries
    /// keep their `u32` local positions and simply re-resolve against
    /// `grown`; the old dataset's buffer, and every outstanding query
    /// view pinned to it, stays untouched and valid until its last
    /// `Arc` drops. No code path in this crate grows a `Dataset` buffer
    /// in place, so an in-flight query on the old epoch can never
    /// observe a reallocation.
    ///
    /// Returns [`IngestError::PositionOverflow`] when the grown
    /// collection would exceed the per-index `u32` local-position
    /// ceiling — the runtime (typed) counterpart of the build-time
    /// `assert_positions_fit` panic.
    ///
    /// # Panics
    ///
    /// Panics if `grown` changes the series length or holds fewer than
    /// `start` series.
    ///
    /// [`IngestError::PositionOverflow`]: crate::ingest::IngestError::PositionOverflow
    pub fn insert_batch(
        &self,
        grown: Arc<Dataset>,
        start: usize,
    ) -> Result<Self, crate::ingest::IngestError> {
        use crate::ingest::IngestError;
        assert_eq!(
            grown.series_len(),
            self.dataset.series_len(),
            "grown dataset changes series_len"
        );
        assert!(
            start <= grown.len(),
            "start {start} beyond grown dataset ({})",
            grown.len()
        );
        crate::ingest::check_position_ceiling(start as u64, (grown.len() - start) as u64)?;

        let segments = self.sax_config.segments;
        let mut conv = SaxConverter::new(self.sax_config);
        let mut fresh: std::collections::BTreeMap<usize, Vec<LeafEntry>> =
            std::collections::BTreeMap::new();
        for pos in start..grown.len() {
            let sax = conv.convert(grown.series(pos));
            let key = root_key(&sax, segments);
            fresh.entry(key).or_default().push(LeafEntry {
                sax,
                pos: pos as u32,
            });
        }

        let mut builder = SubtreeBuilder::new(segments, self.config.leaf_capacity);
        let mut subtrees: Vec<(usize, Subtree)> =
            Vec::with_capacity(self.touched.len() + fresh.len());
        for &key in &self.touched {
            let (nodes, entries) = self.key_raw_parts(key).expect("touched key has a subtree");
            match fresh.remove(&key) {
                // Untouched subtree: carry the existing records and
                // entries over unchanged.
                None => {
                    let subtree =
                        Subtree::from_raw(nodes, entries).map_err(IngestError::Corrupt)?;
                    subtrees.push((key, subtree));
                }
                // Touched subtree: rebuild from old + new entries.
                Some(new_entries) => {
                    let subtree = builder.build_subtree(
                        node_word_for_root_key(key, segments),
                        entries.into_iter().chain(new_entries),
                    );
                    subtrees.push((key, subtree));
                }
            }
        }
        for (key, entries) in fresh {
            let subtree = builder.build_subtree(node_word_for_root_key(key, segments), entries);
            subtrees.push((key, subtree));
        }
        Ok(Self::from_parts(grown, self.config.clone(), subtrees))
    }

    /// The indexed dataset.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// The build configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The iSAX summarization parameters.
    pub fn sax_config(&self) -> SaxConfig {
        self.sax_config
    }

    /// Mindist scale factors (segment lengths), shared with search code.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of indexed series.
    pub fn num_series(&self) -> usize {
        self.dataset.len()
    }

    /// Keys of non-empty root subtrees.
    pub fn touched_keys(&self) -> &[usize] {
        &self.touched
    }

    /// The arena holding `key`'s subtree, if non-empty. With forest
    /// grouping this may be shared by several member keys — walks that
    /// must stay per-key use [`MessiIndex::key_root`] instead.
    pub fn root(&self, key: usize) -> Option<&TreeArena> {
        match self.slots.get(key) {
            Some(&slot) if slot != EMPTY_SLOT => Some(&self.arenas[slot as usize]),
            _ => None,
        }
    }

    /// All arenas, in ascending key order — the iteration unit for
    /// whole-index sweeps (each leaf appears exactly once, whereas
    /// iterating [`MessiIndex::root`] per touched key revisits a shared
    /// forest arena once per member).
    pub fn arenas(&self) -> &[TreeArena] {
        &self.arenas
    }

    /// The per-key subtree root of `key`, if non-empty: its arena plus
    /// the node id of the first fully refined word on `key`'s path —
    /// the arena root itself for a solo subtree, or the member root
    /// below the synthetic spine of a forest.
    pub fn key_root(&self, key: usize) -> Option<(&TreeArena, NodeId)> {
        let arena = self.root(key)?;
        let segments = self.sax_config.segments;
        let mut id = TreeArena::ROOT;
        loop {
            let word = arena.word(id);
            if (0..segments).all(|s| word.bits(s) >= 1) {
                return Some((arena, id));
            }
            // Synthetic spine nodes are always inner (a group has at
            // least two members); route by the key's bit on the split
            // segment.
            let split = arena.split_segment(id);
            let (left, right) = arena.children(id);
            id = if (key >> (segments - 1 - split)) & 1 == 1 {
                right
            } else {
                left
            };
        }
    }

    /// `key`'s subtree as standalone raw parts (rebased node records +
    /// its entries, summaries gathered from the columns) — what
    /// [`crate::persist`] serializes, sliced back out of the forest so
    /// the on-disk format stays per-key.
    pub(crate) fn key_raw_parts(&self, key: usize) -> Option<(Vec<NodeRecord>, Vec<LeafEntry>)> {
        let (arena, root) = self.key_root(key)?;
        Some(arena.key_subtree_raw(root))
    }

    /// Total leaves in the index.
    pub fn num_leaves(&self) -> usize {
        self.arenas.iter().map(TreeArena::num_leaves).sum()
    }

    /// Total entries stored across all arenas (equals
    /// [`MessiIndex::num_series`] for a valid index).
    pub fn num_entries(&self) -> usize {
        self.arenas.iter().map(TreeArena::num_entries).sum()
    }

    /// Height of the tallest root subtree.
    pub fn max_height(&self) -> usize {
        self.arenas.iter().map(TreeArena::height).max().unwrap_or(0)
    }

    /// Per-run shapes across every root subtree, in arena order:
    /// `(member leaves, entries)`. Feeds `messi info`'s run-length
    /// histogram and the layout probe.
    pub fn run_shapes(&self) -> Vec<(usize, usize)> {
        self.arenas.iter().flat_map(TreeArena::run_shapes).collect()
    }

    /// Bytes held by all node arenas (the flat per-subtree node arrays).
    pub fn node_storage_bytes(&self) -> usize {
        self.arenas.iter().map(TreeArena::node_bytes).sum()
    }

    /// Bytes that store the leaf entries across all arenas: positions
    /// plus symbol columns, 4 + 16 bytes per entry on an allocation-flat
    /// index.
    pub fn entry_storage_bytes(&self) -> usize {
        self.arenas.iter().map(TreeArena::entry_bytes).sum()
    }

    /// Mean leaf fill factor: stored entries over total leaf capacity.
    pub fn leaf_fill_factor(&self) -> f64 {
        let leaves = self.num_leaves();
        if leaves == 0 {
            return 0.0;
        }
        self.num_entries() as f64 / (leaves * self.config.leaf_capacity) as f64
    }

    /// Exact 1-NN search (Alg. 5–9). Returns the answer and per-query
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if the query length mismatches or the configuration is
    /// invalid.
    pub fn search(&self, query: &[f32], config: &QueryConfig) -> (QueryAnswer, QueryStats) {
        first(self.answer(query, &QuerySpec::exact(), config))
    }

    /// Exact k-NN search: the `k` nearest series, ascending by distance.
    ///
    /// ```
    /// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
    /// use messi_series::gen::{self, DatasetKind};
    /// use std::sync::Arc;
    ///
    /// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 1));
    /// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    /// let query = data.series(3).to_vec();
    ///
    /// let (top3, _) = index.search_knn(&query, 3, &QueryConfig::for_tests());
    /// assert_eq!(top3.len(), 3);
    /// assert_eq!(top3[0].pos, 3, "a member query's nearest neighbor is itself");
    /// assert!(top3[0].dist_sq <= top3[1].dist_sq);
    /// ```
    ///
    /// Returns fewer than `k` answers only when the dataset holds fewer
    /// than `k` series.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, the query length mismatches, or the
    /// configuration is invalid.
    pub fn search_knn(
        &self,
        query: &[f32],
        k: usize,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        self.answer(query, &QuerySpec::knn(k), config)
    }

    /// Exact ε-range search: every series with squared distance
    /// `<= epsilon_sq`, ascending by distance (position breaks ties).
    /// `config.num_queues` and `config.bsf` are ignored — the bound is
    /// the fixed ε², so no queues and no BSF exist.
    ///
    /// ```
    /// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
    /// use messi_series::gen::{self, DatasetKind};
    /// use std::sync::Arc;
    ///
    /// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 2));
    /// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    /// let query = data.series(7).to_vec();
    ///
    /// // Radius 0 returns the query's exact duplicates (itself, here).
    /// let (hits, _) = index.search_range(&query, 0.0, &QueryConfig::for_tests());
    /// assert!(hits.iter().any(|a| a.pos == 7));
    /// assert!(hits.iter().all(|a| a.dist_sq == 0.0));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `epsilon_sq` is negative or NaN, the query length
    /// mismatches, or the configuration is invalid.
    pub fn search_range(
        &self,
        query: &[f32],
        epsilon_sq: f32,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        self.answer(query, &QuerySpec::range(epsilon_sq), config)
    }

    /// Exact DTW 1-NN search with a Sakoe-Chiba band (Fig. 19): the
    /// search skeleton is unchanged, only the metric is the three-level
    /// `mindist_env ≤ LB_Keogh ≤ DTW` cascade. `real_distance_calcs`
    /// counts full DTW evaluations and `lb_distance_calcs` counts mindist
    /// *and* LB_Keogh evaluations.
    ///
    /// # Panics
    ///
    /// Panics if the query length mismatches or the configuration is
    /// invalid.
    pub fn search_dtw(
        &self,
        query: &[f32],
        params: DtwParams,
        config: &QueryConfig,
    ) -> (QueryAnswer, QueryStats) {
        first(self.answer(query, &QuerySpec::exact().with_dtw(params), config))
    }

    /// Exact k-NN search under banded DTW.
    ///
    /// # Panics
    ///
    /// As [`MessiIndex::search_knn`].
    pub fn search_knn_dtw(
        &self,
        query: &[f32],
        k: usize,
        params: DtwParams,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        self.answer(query, &QuerySpec::knn(k).with_dtw(params), config)
    }

    /// Exact ε-range search under banded DTW.
    ///
    /// # Panics
    ///
    /// As [`MessiIndex::search_range`].
    pub fn search_range_dtw(
        &self,
        query: &[f32],
        epsilon_sq: f32,
        params: DtwParams,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        self.answer(
            query,
            &QuerySpec::range(epsilon_sq).with_dtw(params),
            config,
        )
    }

    /// One query through the one query path, on fresh scratch.
    fn answer(
        &self,
        query: &[f32],
        spec: &QuerySpec,
        config: &QueryConfig,
    ) -> (Vec<QueryAnswer>, QueryStats) {
        let ctx = &mut QueryContext::new();
        crate::exec::answer(self, query, spec, config, ctx, ShardSlot::solo(), None)
    }

    /// *ng-approximate* 1-NN search ("no guarantees"): one descent to the
    /// query's home leaf and a scan of that leaf only — the operation
    /// MESSI uses to seed its BSF (Alg. 5 line 3 / Fig. 4a), exposed as a
    /// public query mode in the tradition of the iSAX family (ADS+ and
    /// progressive-search front-ends answer from exactly this leaf).
    /// Typically within a few percent of the exact answer (§III-B: "the
    /// initial value of BSF is very close to its final value") at a tiny
    /// fraction of the cost.
    ///
    /// When the query's root subtree is empty, the descent falls back to
    /// the subtree with the smallest node mindist, descending greedily —
    /// the answer is always a real series, never empty.
    ///
    /// This is the `δ = 0` instance of the approximate objective — see
    /// [`MessiIndex::search_approximate_bounded`] for the δ-ε family with
    /// error bounds and statistics (it answers identically at
    /// `epsilon = 0, delta = 0`; this entry point skips the query-path
    /// machinery, keeping the cheapest query mode allocation-light).
    /// Callers that already hold the query's iSAX word and PAA (the
    /// exact-search seeding path, the ParIS baselines) use the
    /// `#[doc(hidden)]` [`MessiIndex::seed_approximate`] variant to skip
    /// re-summarizing.
    pub fn search_approximate(&self, query: &[f32], kernel: Kernel) -> QueryAnswer {
        let (sax, paa) = self.summarize_query(query);
        let (dist_sq, pos) = self.seed_approximate(query, &sax, &paa, kernel);
        QueryAnswer {
            pos: u64::from(pos),
            dist_sq,
        }
    }

    /// δ-ε-approximate 1-NN search (journal version of the paper): the
    /// answer is within `(1+epsilon)` of the true nearest-neighbor
    /// *distance* with probability calibrated by `delta`.
    ///
    /// * `delta = 0` — ng-approximate: the home-leaf answer, nothing
    ///   else (no guarantee).
    /// * `0 < delta < 1` — the traversal prunes with the inflated bound
    ///   `bsf/(1+ε)²` and stops once a δ-derived leaf-visit budget
    ///   (`ceil(delta · total leaves)`, spent best-bound-first) runs out.
    /// * `delta = 1` — no early stop: the `(1+epsilon)` guarantee is
    ///   deterministic, and `epsilon = 0` degenerates to exact search
    ///   bit-for-bit.
    ///
    /// Pruning against `bsf/(1+ε)²` (squared distances) means any pruned
    /// candidate lies at least `dist(bsf_final)/(1+ε)` away, hence the
    /// distance guarantee. Each queue is drained best-bound-first, so a
    /// δ budget goes to the most promising leaves; `tests/approximate.rs`
    /// measures and asserts the guarantee against brute force. See the
    /// [`QueryStats`] fields `stop_reason` / `approx_inflation_prunes`
    /// for the early-termination accounting.
    ///
    /// ```
    /// use messi_core::{IndexConfig, MessiIndex, QueryConfig};
    /// use messi_series::gen::{self, DatasetKind};
    /// use std::sync::Arc;
    ///
    /// let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 5));
    /// let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
    /// let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 1, 5);
    ///
    /// // ε = 0.1, δ = 1: deterministically within 1.1× of the true NN.
    /// let (approx, _) = index.search_approximate_bounded(
    ///     queries.series(0), 0.1, 1.0, &QueryConfig::for_tests());
    /// let (_, true_nn) = data.nearest_neighbor_brute_force(queries.series(0));
    /// assert!(approx.dist_sq <= 1.1 * 1.1 * true_nn * (1.0 + 1e-3));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is negative or non-finite, `delta` is outside
    /// `[0, 1]`, the query length mismatches, or the configuration is
    /// invalid.
    pub fn search_approximate_bounded(
        &self,
        query: &[f32],
        epsilon: f32,
        delta: f32,
        config: &QueryConfig,
    ) -> (QueryAnswer, QueryStats) {
        first(self.answer(query, &QuerySpec::approximate(epsilon, delta), config))
    }

    /// δ-ε-approximate 1-NN search under banded DTW: the same contract as
    /// [`MessiIndex::search_approximate_bounded`], with distances (and
    /// the `(1+epsilon)` guarantee) measured in DTW terms.
    ///
    /// # Panics
    ///
    /// As [`MessiIndex::search_approximate_bounded`].
    pub fn search_approximate_bounded_dtw(
        &self,
        query: &[f32],
        epsilon: f32,
        delta: f32,
        params: DtwParams,
        config: &QueryConfig,
    ) -> (QueryAnswer, QueryStats) {
        let spec = QuerySpec::approximate(epsilon, delta).with_dtw(params);
        first(self.answer(query, &spec, config))
    }

    /// Converts a query series to `(iSAX word, PAA)` using this index's
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the query length differs from the indexed series length.
    pub fn summarize_query(&self, query: &[f32]) -> (SaxWord, Vec<f32>) {
        assert_eq!(
            query.len(),
            self.dataset.series_len(),
            "query length must match indexed series length"
        );
        let mut conv = SaxConverter::new(self.sax_config);
        let (word, paa) = conv.convert_with_paa(query);
        (word, paa.to_vec())
    }

    /// Low-level ng-approximate search for callers that already computed
    /// the query's iSAX word and PAA: scans the home leaf
    /// ([`MessiIndex::home_leaf_positions`]) with the query path's
    /// uncounted early-abandoning Euclidean seed scan and returns
    /// `(squared distance, position)` — the initial BSF of Alg. 5.
    /// [`MessiIndex::search_approximate`] and the ParIS baselines answer
    /// through it.
    #[doc(hidden)]
    pub fn seed_approximate(
        &self,
        query: &[f32],
        query_sax: &SaxWord,
        query_paa: &[f32],
        kernel: Kernel,
    ) -> (f32, u32) {
        let best = std::cell::Cell::new((f32::INFINITY, u32::MAX));
        let home = self.home_leaf_positions(query_sax, query_paa);
        let bound = || best.get().0;
        crate::exec::scan_home_leaf(self, query, home, None, kernel, None, bound, |d, p| {
            best.set((d, p))
        });
        best.get()
    }

    /// The series positions of the query's *home leaf*: one descent from
    /// the query's root subtree following its summary bits. When the home
    /// subtree is empty the walk falls back to the subtree with the
    /// smallest node mindist and descends greedily by mindist — the
    /// returned leaf always holds real series. This is the one home-leaf
    /// walk in the repository: ED and DTW seeding and all approximate
    /// modes scan exactly this slice (each with its own distance
    /// cascade).
    pub(crate) fn home_leaf_positions(&self, query_sax: &SaxWord, query_paa: &[f32]) -> &[u32] {
        let segments = self.sax_config.segments;
        let key = root_key(query_sax, segments);
        if let Some(arena) = self.root(key) {
            // The query's key is a member of this arena, so containment
            // holds down the whole walk — through the synthetic spine
            // (whose refined bits are bits all member keys share) and
            // the per-key subtree alike.
            let id = arena.descend_by_sax(TreeArena::ROOT, query_sax, segments);
            return arena.leaf_positions(id);
        }
        // Empty home subtree: greedy-best entry point instead.
        let arena = self
            .arenas
            .iter()
            .min_by(|a, b| {
                let da = mindist_sq_node(query_paa, &self.scales, a.word(TreeArena::ROOT));
                let db = mindist_sq_node(query_paa, &self.scales, b.word(TreeArena::ROOT));
                da.total_cmp(&db)
            })
            .expect("index is never empty");
        let mut id = TreeArena::ROOT;
        while !arena.is_leaf(id) {
            let (left, right) = arena.children(id);
            id = if arena.word(id).contains(query_sax, segments) {
                // On the query's path at this node: follow its summary
                // bit. The step is re-checked every iteration because a
                // path-compressed forest child can refine bits the query
                // disagrees on — the walk then degrades to mindist.
                if arena.word(id).child_of(query_sax, arena.split_segment(id)) {
                    right
                } else {
                    left
                }
            } else {
                // Off the query's own path (fallback entry): pick the
                // closer child by node mindist.
                let dl = mindist_sq_node(query_paa, &self.scales, arena.word(left));
                let dr = mindist_sq_node(query_paa, &self.scales, arena.word(right));
                if dl <= dr {
                    left
                } else {
                    right
                }
            };
        }
        arena.leaf_positions(id)
    }
}

/// Unwraps the single answer of a 1-NN objective (exact or approximate).
fn first((mut answers, stats): (Vec<QueryAnswer>, QueryStats)) -> (QueryAnswer, QueryStats) {
    (answers.pop().expect("1-NN objectives always answer"), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};

    fn small_index() -> MessiIndex {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 400, 11));
        let (index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        index
    }

    #[test]
    fn accessors_are_consistent() {
        let index = small_index();
        assert_eq!(index.num_series(), 400);
        assert!(index.num_leaves() >= 1);
        assert!(index.max_height() >= 1);
        assert!(!index.touched_keys().is_empty());
        for &k in index.touched_keys() {
            assert!(index.root(k).is_some());
        }
        assert_eq!(index.sax_config().segments, 8);
        assert_eq!(index.scales().len(), 8);
        // Arena bookkeeping: every stored entry is accounted for, storage
        // sizes are plausible, fill factor lands in (0, 1].
        assert_eq!(index.num_entries(), 400);
        assert!(index.node_storage_bytes() > 0);
        assert!(index.arenas().iter().all(TreeArena::allocation_flat));
        assert_eq!(
            index.entry_storage_bytes(),
            400 * (std::mem::size_of::<u32>() + messi_sax::MAX_SEGMENTS)
        );
        let fill = index.leaf_fill_factor();
        assert!(fill > 0.0 && fill <= 1.0, "fill factor {fill}");
    }

    #[test]
    fn approximate_search_returns_a_real_series() {
        let index = small_index();
        let queries = gen::queries::generate_queries_with_len(DatasetKind::RandomWalk, 5, 11, 256);
        for q in queries.iter() {
            let (sax, paa) = index.summarize_query(q);
            let (d, pos) = index.seed_approximate(q, &sax, &paa, Kernel::Auto);
            assert!(pos != u32::MAX && (pos as usize) < index.num_series());
            // The approximate answer upper-bounds the true NN distance.
            let (_, true_d) = index.dataset().nearest_neighbor_brute_force(q);
            assert!(d >= true_d - 1e-4, "approx {d} below exact {true_d}?");
            // And it equals the distance to the returned series.
            let check =
                messi_series::distance::euclidean::ed_sq(q, index.dataset().series(pos as usize));
            assert!((check - d).abs() <= 1e-3 * check.max(1.0));
        }
    }

    #[test]
    fn public_approximate_search_upper_bounds_exact() {
        let index = small_index();
        let queries = gen::queries::generate_queries_with_len(DatasetKind::RandomWalk, 4, 12, 256);
        for q in queries.iter() {
            let approx = index.search_approximate(q, Kernel::Auto);
            let (exact, _) = index.search(q, &crate::config::QueryConfig::for_tests());
            assert!(
                approx.dist_sq >= exact.dist_sq - 1e-4 * exact.dist_sq.max(1.0),
                "approximate ({}) must never beat exact ({})",
                approx.dist_sq,
                exact.dist_sq
            );
            assert!((approx.pos as usize) < index.num_series());
        }
    }

    #[test]
    fn approximate_search_finds_exact_match_for_member_query() {
        let index = small_index();
        // A dataset member's approximate search must find distance 0 (its
        // own leaf contains it).
        let q = index.dataset().series(7).to_vec();
        let (sax, paa) = index.summarize_query(&q);
        let (d, pos) = index.seed_approximate(&q, &sax, &paa, Kernel::Auto);
        assert_eq!(d, 0.0);
        // Possibly a different position if duplicates exist; distance must
        // still be exactly zero.
        let check =
            messi_series::distance::euclidean::ed_sq(&q, index.dataset().series(pos as usize));
        assert_eq!(check, 0.0);
    }

    #[test]
    #[should_panic(expected = "query length")]
    fn rejects_wrong_query_length() {
        let index = small_index();
        index.summarize_query(&[0.0; 10]);
    }
}
