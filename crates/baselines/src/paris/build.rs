//! ParIS index construction (in-memory version).
//!
//! Differences from MESSI's build, per §I/§II-B of the MESSI paper:
//!
//! * The raw array is "split to as many chunks as the workers" — fixed
//!   contiguous ranges, no Fetch&Inc load balancing.
//! * Summaries go into a global **SAX array** indexed by position; the
//!   per-subtree **receiving buffers** store only *positions* (pointers
//!   into that array). Tree construction therefore pays a scattered
//!   indirection per entry — the cache-locality cost MESSI removes by
//!   storing the summaries in its buffers directly.
//! * Each receiving buffer is a single shared vector protected by a lock
//!   ([`ParisBuildVariant::Locked`]) — the synchronization cost MESSI's
//!   per-worker parts eliminate. [`ParisBuildVariant::NoSynch`] is the
//!   Fig. 5 baseline with that one cost removed (per-worker parts, but
//!   still position-only buffers and fixed ranges).

use messi_core::node::{LeafEntry, Subtree, SubtreeBuilder};
use messi_core::{BuildStats, IndexConfig, MessiIndex};
use messi_sax::convert::{SaxConfig, SaxConverter};
use messi_sax::root_key::{node_word_for_root_key, root_key};
use messi_sax::word::SaxWord;
use messi_series::Dataset;
use messi_sync::{Dispenser, PartitionedBuffers};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

use super::ParisIndex;

/// Receiving-buffer discipline during the ParIS build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParisBuildVariant {
    /// One lock-protected buffer per root subtree (faithful ParIS).
    Locked,
    /// Per-worker buffer parts (the "ParIS-no-synch" baseline of Fig. 5).
    NoSynch,
}

/// Builds an in-memory ParIS index over `dataset`.
///
/// # Panics
///
/// Panics if the dataset is empty or the configuration is invalid for the
/// dataset shape.
pub fn build_paris(
    dataset: Arc<Dataset>,
    config: &IndexConfig,
    variant: ParisBuildVariant,
) -> (ParisIndex, BuildStats) {
    config.validate(dataset.series_len());
    assert!(!dataset.is_empty(), "cannot index an empty dataset");

    let sax_config = SaxConfig::new(config.segments, dataset.series_len());
    let segments = sax_config.segments;
    let num_keys = sax_config.num_root_subtrees();
    let n = dataset.len();
    let num_workers = config.num_workers;
    let per_worker = n.div_ceil(num_workers).max(1);

    // ---- Phase 1: bulk loading (SAX array + receiving buffers) ----
    let mut sax_array = vec![SaxWord::zeroed(); n];
    let t0 = Instant::now();

    // Locked receiving buffers (positions per root subtree)…
    let locked_bufs: Vec<Mutex<Vec<u32>>> = match variant {
        ParisBuildVariant::Locked => (0..num_keys).map(|_| Mutex::new(Vec::new())).collect(),
        ParisBuildVariant::NoSynch => Vec::new(),
    };
    // …or per-worker parts for the no-synch variant.
    let mut part_bufs: PartitionedBuffers<u32> = match variant {
        ParisBuildVariant::NoSynch => {
            PartitionedBuffers::new(num_keys, num_workers, config.initial_buffer_capacity)
        }
        ParisBuildVariant::Locked => PartitionedBuffers::new(1, 1, 0),
    };

    {
        // Fixed contiguous ranges: worker w handles positions
        // [w·per_worker, (w+1)·per_worker).
        let mut parts = part_bufs.parts_mut().iter_mut();
        std::thread::scope(|s| {
            for (w, sax_slice) in sax_array.chunks_mut(per_worker).enumerate() {
                let dataset = &dataset;
                let locked_bufs = &locked_bufs;
                let part = match variant {
                    ParisBuildVariant::NoSynch => parts.next(),
                    ParisBuildVariant::Locked => None,
                };
                s.spawn(move || {
                    let mut part = part;
                    let mut conv = SaxConverter::new(sax_config);
                    for (k, slot) in sax_slice.iter_mut().enumerate() {
                        let pos = w * per_worker + k;
                        let sax = conv.convert(dataset.series(pos));
                        *slot = sax;
                        let key = root_key(&sax, segments);
                        match &mut part {
                            Some(p) => p.push(key, pos as u32),
                            None => locked_bufs[key].lock().push(pos as u32),
                        }
                    }
                });
            }
        });
    }
    let summarize_time = t0.elapsed();

    // ---- Phase 2: index construction workers (one subtree at a time) ----
    let t1 = Instant::now();
    let locked_touched: Vec<usize>;
    let touched: &[usize] = match variant {
        ParisBuildVariant::Locked => {
            locked_touched = (0..num_keys)
                .filter(|&k| !locked_bufs[k].lock().is_empty())
                .collect();
            &locked_touched
        }
        ParisBuildVariant::NoSynch => part_bufs.touched_keys(),
    };
    let dispenser = Dispenser::new(touched.len());
    let built: Mutex<Vec<(usize, Subtree)>> = Mutex::new(Vec::with_capacity(touched.len()));
    std::thread::scope(|s| {
        for _ in 0..num_workers {
            let touched = &touched;
            let dispenser = &dispenser;
            let built = &built;
            let locked_bufs = &locked_bufs;
            let part_bufs = &part_bufs;
            let sax_array = &sax_array;
            s.spawn(move || {
                let mut builder = SubtreeBuilder::new(segments, config.leaf_capacity);
                let mut local = Vec::new();
                while let Some(i) = dispenser.next() {
                    let key = touched[i];
                    builder.begin(node_word_for_root_key(key, segments));
                    // The indirection through the SAX array is ParIS's
                    // layout: buffers hold pointers, not summaries.
                    let mut insert_pos = |pos: u32| {
                        builder.insert(LeafEntry {
                            sax: sax_array[pos as usize],
                            pos,
                        });
                    };
                    match variant {
                        ParisBuildVariant::Locked => {
                            for &pos in locked_bufs[key].lock().iter() {
                                insert_pos(pos);
                            }
                        }
                        ParisBuildVariant::NoSynch => {
                            for &pos in part_bufs.iter_key(key) {
                                insert_pos(pos);
                            }
                        }
                    }
                    local.push((key, builder.finish()));
                }
                built.lock().extend(local);
            });
        }
    });
    let tree_time = t1.elapsed();

    let tree = MessiIndex::from_parts(dataset, config.clone(), built.into_inner());
    let stats = BuildStats {
        summarize_time,
        tree_time,
        total_time: t0.elapsed(),
        num_series: n,
        num_leaves: tree.num_leaves(),
        num_root_subtrees: tree.touched_keys().len(),
        max_height: tree.max_height(),
    };
    (ParisIndex { tree, sax_array }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use messi_series::gen::{self, DatasetKind};

    fn build(variant: ParisBuildVariant, count: usize) -> (ParisIndex, BuildStats) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, 19));
        build_paris(data, &IndexConfig::for_tests(), variant)
    }

    #[test]
    fn paris_tree_is_structurally_valid() {
        for variant in [ParisBuildVariant::Locked, ParisBuildVariant::NoSynch] {
            let (paris, stats) = build(variant, 400);
            assert_eq!(stats.num_series, 400);
            let errors = messi_core::validate::validate(&paris.tree);
            assert!(errors.is_empty(), "{variant:?}: {errors:?}");
        }
    }

    #[test]
    fn sax_array_matches_tree_summaries() {
        let (paris, _) = build(ParisBuildVariant::Locked, 300);
        assert_eq!(paris.num_series(), 300);
        for &key in paris.tree.touched_keys() {
            paris.tree.root(key).unwrap().for_each_leaf(&mut |leaf| {
                for e in leaf.entries() {
                    assert_eq!(paris.sax_array[e.pos as usize], e.sax);
                }
            });
        }
    }

    #[test]
    fn variants_build_identical_trees() {
        let (a, _) = build(ParisBuildVariant::Locked, 350);
        let (b, _) = build(ParisBuildVariant::NoSynch, 350);
        assert_eq!(a.tree.touched_keys(), b.tree.touched_keys());
        assert_eq!(a.sax_array, b.sax_array);
        // Leaf contents may be permuted (insertion order differs), but
        // per-subtree position sets must match.
        for &key in a.tree.touched_keys() {
            let collect = |t: &MessiIndex| {
                let mut v = Vec::new();
                t.root(key)
                    .unwrap()
                    .for_each_leaf(&mut |l| v.extend_from_slice(l.positions));
                v.sort_unstable();
                v
            };
            assert_eq!(collect(&a.tree), collect(&b.tree));
        }
    }

    #[test]
    fn paris_matches_messi_tree_contents() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 500, 23));
        let config = IndexConfig::for_tests();
        let (paris, _) = build_paris(Arc::clone(&data), &config, ParisBuildVariant::Locked);
        let (messi, _) = MessiIndex::build(data, &config);
        assert_eq!(paris.tree.touched_keys(), messi.touched_keys());
        assert_eq!(paris.tree.num_leaves(), messi.num_leaves());
    }
}
