//! Index invariant validation.
//!
//! Used by the test suite (including the cross-crate property tests) to
//! assert that a built index is structurally sound, and by the snapshot
//! loader ([`crate::persist`]) as its semantic trust boundary — both
//! call the same per-arena checker, so an invariant added here
//! automatically guards loaded snapshots too. Every invariant is one
//! the search algorithms silently rely on; a violation would make
//! "exact" answers wrong rather than slow.

use crate::index::{MessiIndex, EMPTY_SLOT};
use crate::node::{NodeId, TreeArena};
use messi_sax::convert::SaxConverter;
use messi_sax::root_key::{node_word_for_root_key, root_key};

/// Checks all structural invariants of `index`.
///
/// Returns the list of violations (empty = valid; at most one semantic
/// violation is reported per subtree). Checked invariants:
///
/// 1. **Completeness**: every dataset position appears in exactly one
///    leaf.
/// 2. **Summary correctness**: each stored iSAX summary — read from the
///    leaf's run-grouped symbol columns, the only stored copy — equals
///    the recomputed summary of its raw series. The batched mindist
///    kernels read those columns, so a forged byte would silently change
///    pruning bounds.
/// 3. **Containment**: every leaf entry's summary is contained in the
///    leaf's node word, and files under the root key of its subtree.
/// 4. **Refinement**: each subtree's root word matches its key, and
///    each inner node's children carry the two words produced by
///    refining the parent on its split segment.
/// 5. **Capacity**: no leaf exceeds the configured capacity unless all
///    its entries share one summary (the documented overflow case).
/// 6. **Bookkeeping**: `touched_keys` matches the non-empty root slots,
///    and no stored subtree is empty.
/// 7. **Arena layout**: each arena's leaves partition its entry pool in
///    depth-first order, so leaf scans and `for_each_leaf` walk flat,
///    gapless slices.
/// 8. **Run metadata**: every arena's derived leaf-run metadata (leaf
///    starts, ordinals, run spans, run ids) equals a from-scratch
///    recomputation — what the queue coalescing and the snapshot loader
///    both rely on being deterministic.
/// 9. **Forest spine**: in a grouped arena, every synthetic node splits
///    an unrefined segment, its children's words extend its own, and
///    each walk bottoms out at a per-key root whose word refines exactly
///    its key — so coarse spine words only ever *loosen* mindist (the
///    pruning-admissibility requirement) and per-key slicing for the
///    snapshot writer is well defined.
/// 10. **Grouping determinism**: the arena membership equals the greedy
///     regrouping of the touched keys' per-key entry counts — what lets
///     the loader (and any rebuild) reproduce the same forests.
pub fn validate(index: &MessiIndex) -> Vec<String> {
    let mut errors = Vec::new();
    let mut conv = SaxConverter::new(index.sax_config());
    let mut seen = vec![0u32; index.num_series()];

    // Bookkeeping (6).
    for (key, &slot) in index.slots.iter().enumerate() {
        let touched = index.touched.binary_search(&key).is_ok();
        if (slot != EMPTY_SLOT) != touched {
            errors.push(format!(
                "key {key}: touched-list ({touched}) disagrees with root slot ({})",
                slot != EMPTY_SLOT
            ));
        }
        if slot != EMPTY_SLOT {
            let arena = &index.arenas[slot as usize];
            if arena.num_entries() == 0 {
                errors.push(format!("key {key}: empty subtree stored"));
            }
        }
    }

    // Per-arena semantics (2, 3, 4, 5, 7, 8, 9), shared with the
    // snapshot loader. Position tallies feed the completeness check
    // below.
    for (arena_idx, arena) in index.arenas.iter().enumerate() {
        let mut record = |pos: usize| -> Result<(), String> {
            match seen.get_mut(pos) {
                Some(count) => {
                    *count += 1;
                    Ok(())
                }
                None => Err(format!("arena {arena_idx}: position {pos} out of range")),
            }
        };
        if let Err(e) = check_arena_semantics(index, arena, arena_idx, &mut conv, &mut record) {
            errors.push(e);
        }
    }

    // Completeness (1).
    for (pos, &count) in seen.iter().enumerate() {
        if count != 1 {
            errors.push(format!("position {pos} appears {count} times"));
            if errors.len() > 20 {
                errors.push("… (truncated)".into());
                break;
            }
        }
    }

    // Grouping determinism (10).
    let counts: Vec<usize> = index
        .touched
        .iter()
        .map(|&key| {
            index
                .key_root(key)
                .map(|(arena, root)| {
                    let (_, pool_lo, pool_hi) = arena.subtree_extent(root);
                    (pool_hi - pool_lo) as usize
                })
                .unwrap_or(0)
        })
        .collect();
    let groups = crate::node::forest_groups(&counts);
    if groups.len() != index.arenas.len() {
        errors.push(format!(
            "{} arenas stored, deterministic regrouping yields {}",
            index.arenas.len(),
            groups.len()
        ));
    }
    for (g, range) in groups.into_iter().enumerate() {
        for i in range {
            let key = index.touched[i];
            if index.slots.get(key).copied() != Some(g as u32) {
                errors.push(format!(
                    "key {key}: filed in arena {:?}, regrouping places it in {g}",
                    index.slots.get(key)
                ));
            }
        }
    }
    errors
}

/// Fail-fast semantic check of one arena — the single implementation
/// behind both [`validate`] and the snapshot loader's parallel sweep
/// ([`crate::persist`]). Verifies the forest spine (invariant 9), then
/// every member subtree's per-key semantics, then the arena-wide derived
/// run metadata (invariant 8).
pub(crate) fn check_arena_semantics(
    index: &MessiIndex,
    arena: &TreeArena,
    arena_idx: usize,
    conv: &mut SaxConverter,
    record: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let members = check_forest_spine(index, arena, arena_idx)?;
    for &(key, root) in &members {
        check_subtree_semantics(index, arena, key, root, conv, record)?;
    }
    // Run metadata (8): the derived layout must equal a from-scratch
    // recomputation.
    if let Err(e) = arena.check_derived_layout() {
        return Err(format!("arena {arena_idx}: {e}"));
    }
    Ok(())
}

/// Walks an arena's synthetic spine (empty for a solo per-key arena),
/// verifying invariant 9, and returns the member `(key, per-key root)`
/// pairs in ascending key order.
fn check_forest_spine(
    index: &MessiIndex,
    arena: &TreeArena,
    arena_idx: usize,
) -> Result<Vec<(usize, NodeId)>, String> {
    let segments = index.sax_config().segments;
    let mut members = Vec::new();
    let mut stack = vec![TreeArena::ROOT];
    while let Some(id) = stack.pop() {
        let word = arena.word(id);
        if (0..segments).all(|s| word.bits(s) >= 1) {
            // First fully refined node on this path: a per-key root.
            // Its word must refine *exactly* the key bits (one bit per
            // segment), pinning the spine boundary to original roots.
            let mut key = 0usize;
            for s in 0..segments {
                key = (key << 1) | usize::from(word.symbol(s) >> (word.bits(s) - 1));
            }
            if word != &node_word_for_root_key(key, segments) {
                return Err(format!(
                    "arena {arena_idx}: per-key root {id} word {} over-refines key {key}",
                    word.display(segments)
                ));
            }
            if index.slots.get(key).copied() != Some(arena_idx as u32) {
                return Err(format!(
                    "arena {arena_idx}: member key {key} filed in arena {:?}",
                    index.slots.get(key)
                ));
            }
            members.push((key, id));
            continue;
        }
        if arena.is_leaf(id) {
            return Err(format!(
                "arena {arena_idx}: leaf {id} above full key refinement"
            ));
        }
        let split = arena.split_segment(id);
        if word.bits(split) != 0 {
            return Err(format!(
                "arena {arena_idx}: synthetic node {id} splits refined segment {split}"
            ));
        }
        let (left, right) = arena.children(id);
        for (child, side_bit) in [(left, 0u16), (right, 1)] {
            let child_word = arena.word(child);
            for s in 0..segments {
                let (pb, cb) = (word.bits(s), child_word.bits(s));
                if cb < pb || (child_word.symbol(s) >> (cb - pb)) != word.symbol(s) {
                    return Err(format!(
                        "arena {arena_idx}: node {child} word {} does not extend its \
                         spine parent {}",
                        child_word.display(segments),
                        word.display(segments)
                    ));
                }
            }
            let cb = child_word.bits(split);
            if cb == 0 || (child_word.symbol(split) >> (cb - 1)) != side_bit {
                return Err(format!(
                    "arena {arena_idx}: node {child} sits on the wrong side of the \
                     synthetic split on segment {split}"
                ));
            }
        }
        stack.push(right);
        stack.push(left);
    }
    if !members.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(format!(
            "arena {arena_idx}: member keys out of ascending order"
        ));
    }
    Ok(members)
}

/// Fail-fast semantic check of one member subtree rooted at `root`:
/// root word vs key, refinement chains, arena pool layout, leaf
/// capacity, containment, key filing, and recomputed summary
/// correctness against the dataset. `record` tallies every stored
/// position (and may reject duplicates or out-of-range values — how
/// duplicates are detected differs between the two callers).
fn check_subtree_semantics(
    index: &MessiIndex,
    arena: &TreeArena,
    key: usize,
    root: NodeId,
    conv: &mut SaxConverter,
    record: &mut dyn FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let segments = index.sax_config().segments;
    // Refinement (4), at the root: the subtree must cover exactly its key.
    if arena.word(root) != &node_word_for_root_key(key, segments) {
        return Err(format!("key {key}: root word does not match the key"));
    }
    // The node array is in preorder (guaranteed by the builder and
    // re-verified for loaded snapshots), so a linear sweep over the
    // subtree's contiguous node range visits its leaves in depth-first
    // order, and the pool cursor check below — starting at the
    // subtree's contiguous pool slice — is exactly the arena-layout
    // invariant (7) restricted to this member.
    let (node_end, pool_lo, pool_hi) = arena.subtree_extent(root);
    let mut cursor = pool_lo;
    for id in root..node_end {
        if !arena.is_leaf(id) {
            // Refinement (4).
            let (left, right) = arena.children(id);
            let (zero, one) = arena.word(id).refine(arena.split_segment(id));
            if arena.word(left) != &zero {
                return Err(format!(
                    "key {key}: left child word {} ≠ refinement {}",
                    arena.word(left).display(segments),
                    zero.display(segments)
                ));
            }
            if arena.word(right) != &one {
                return Err(format!(
                    "key {key}: right child word {} ≠ refinement {}",
                    arena.word(right).display(segments),
                    one.display(segments)
                ));
            }
            continue;
        }
        // Arena layout (7).
        let (start, _) = arena.leaf_range(id);
        if start != cursor {
            return Err(format!(
                "key {key}: leaf pool slice starts at {start}, expected {cursor}"
            ));
        }
        let leaf = arena.leaf(id);
        cursor += leaf.positions.len() as u32;
        // Capacity (5).
        if leaf.positions.len() > index.config.leaf_capacity {
            let first = leaf.entries().next().map(|e| e.sax);
            if !leaf.entries().all(|e| Some(e.sax) == first) {
                return Err(format!(
                    "key {key}: oversized leaf ({} > {}) with separable entries",
                    leaf.positions.len(),
                    index.config.leaf_capacity
                ));
            }
        }
        for e in leaf.entries() {
            let pos = e.pos as usize;
            record(pos)?;
            // Containment (3).
            if !leaf.word.contains(&e.sax, segments) {
                return Err(format!("key {key}: entry {pos} not contained in leaf word"));
            }
            if root_key(&e.sax, segments) != key {
                return Err(format!("key {key}: entry {pos} filed under wrong key"));
            }
            // Summary correctness (2).
            if conv.convert(index.dataset.series(pos)) != e.sax {
                return Err(format!(
                    "key {key}: entry {pos} has a forged or stale summary"
                ));
            }
        }
    }
    if cursor != pool_hi {
        return Err(format!(
            "key {key}: depth-first leaves cover up to {cursor} of the subtree pool \
             slice ending at {pool_hi}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IndexConfig;
    use messi_series::gen::{self, DatasetKind};
    use std::sync::Arc;

    #[test]
    fn fresh_indexes_validate_clean() {
        for kind in [
            DatasetKind::RandomWalk,
            DatasetKind::Seismic,
            DatasetKind::Sald,
        ] {
            let data = Arc::new(gen::generate(kind, 300, 7));
            let (index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
            let errors = validate(&index);
            assert!(errors.is_empty(), "{kind:?}: {errors:?}");
        }
    }

    #[test]
    fn paper_config_validates_clean() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 1000, 9));
        let (index, _) = MessiIndex::build(data, &IndexConfig::default());
        let errors = validate(&index);
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn detects_corrupted_index() {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 100, 3));
        let (mut index, _) = MessiIndex::build(data, &IndexConfig::for_tests());
        // Sabotage: unhook one subtree's slot, breaking completeness +
        // bookkeeping.
        let key = index.touched[0];
        index.slots[key] = EMPTY_SLOT;
        let errors = validate(&index);
        assert!(!errors.is_empty(), "corruption must be detected");
    }
}
