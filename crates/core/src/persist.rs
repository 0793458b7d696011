//! Index snapshot persistence.
//!
//! The arena layout ([`crate::node`]) makes the index a handful of flat
//! arrays, so the whole structure — configuration, per-subtree node
//! records, leaf entries, and mindist scales — serializes to one
//! versioned, checksummed file. A server can then `messi build --save`
//! once and answer queries from `--load`ed snapshots without ever paying
//! the build again (the ROADMAP's serve-from-prebuilt-snapshot
//! scenario).
//!
//! ## Container format (little-endian throughout)
//!
//! ```text
//! [0..8)    magic   b"MESSIIDX"
//! [8..12)   format version (u32)
//! [12..20)  payload length in bytes (u64)
//! [20..+n)  payload (see below)
//! [+n..+n+8) FNV-1a 64 checksum of the payload
//! ```
//!
//! The payload carries the [`IndexConfig`], a dataset fingerprint
//! (shape + content hash — snapshots store tree structure, not raw
//! series, so the loader verifies it is being paired with the right
//! data), the mindist scales, and each touched root subtree as its raw
//! arena: node records then one `(16 symbol bytes, position)` record per
//! pool entry, gathered from the arena's symbol columns. Loading
//! re-validates the preorder arena invariants *and* the full semantic
//! invariants of [`crate::validate`] (word refinement, containment,
//! root-key filing,
//! summary correctness against the dataset, position completeness), so
//! a torn or tampered file — even one with a correctly resealed
//! checksum — fails with a [`PersistError`] instead of producing a
//! quietly wrong index. The semantic pass recomputes every summary
//! across the configured worker count (subtrees are independent), so a
//! load is a verification-speed streaming pass over the data — it skips
//! all tree construction, splitting, and buffer staging, but it is
//! *not* free: callers loading from a trusted local file at very large
//! scale can measure it against a rebuild with `messi info --load`.

use crate::config::{BuildVariant, IndexConfig};
use crate::index::MessiIndex;
use crate::node::{LeafEntry, NodeRecord, Subtree};
use messi_sax::convert::SaxConverter;
use messi_sax::word::{NodeWord, SaxWord, CARD_BITS, MAX_SEGMENTS};
use messi_series::io::{fnv1a64, fnv1a64_f32, PayloadReader, PayloadWriter};
use messi_series::Dataset;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// File magic: `MESSIIDX`.
const MAGIC: [u8; 8] = *b"MESSIIDX";
/// Current snapshot format version.
///
/// Version 2 marks builds whose arenas keep the leaf summaries as
/// run-grouped symbol columns. The file still holds one
/// `(symbols, position)` record per entry — the writer gathers each
/// summary from the columns and the loader transposes the records back
/// at assembly — so the payload is byte-identical to version 1
/// and version-1 files still load.
pub const FORMAT_VERSION: u32 = 2;
/// Oldest format version this build still reads.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// Serialized bytes per node record: word (16×u16 + 16×u8) + tag + lo + hi.
const NODE_WIRE_BYTES: usize = 2 * MAX_SEGMENTS + MAX_SEGMENTS + 1 + 4 + 4;
/// Serialized bytes per leaf entry: sax symbols + position.
const ENTRY_WIRE_BYTES: usize = MAX_SEGMENTS + 4;
/// Serialized bytes per subtree header: key + node count + entry count.
const SUBTREE_HEADER_BYTES: usize = 12;

/// Errors from loading (or, for `Io`, saving) an index snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The file uses an unsupported format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The file is structurally damaged (truncation, checksum mismatch,
    /// or invalid content).
    Corrupt(String),
    /// The snapshot was built over a different dataset than the one
    /// supplied at load time.
    DatasetMismatch(String),
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a MESSI index snapshot (bad magic)"),
            PersistError::Version { found, expected } => write!(
                f,
                "unsupported snapshot version {found} (this build reads {expected})"
            ),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            PersistError::DatasetMismatch(what) => {
                write!(f, "snapshot/dataset mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Saves `index` as a snapshot file at `path`.
///
/// The write is all-or-nothing: the snapshot is assembled in a `.tmp`
/// sibling, synced, and renamed over `path`, so an interrupted save
/// (crash, Ctrl-C, full disk) never destroys a previous good snapshot.
///
/// # Errors
///
/// Any I/O error from creating, writing, or renaming the file.
pub fn save_index(index: &MessiIndex, path: &Path) -> Result<(), PersistError> {
    let payload = encode_payload(index);
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);
    let write = || -> std::io::Result<()> {
        let file = std::fs::File::create(&tmp)?;
        let mut w = std::io::BufWriter::new(file);
        w.write_all(&MAGIC)?;
        w.write_all(&FORMAT_VERSION.to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&payload)?;
        w.write_all(&fnv1a64(&payload).to_le_bytes())?;
        w.flush()?;
        w.into_inner()
            .map_err(|e| std::io::Error::other(format!("flush failed: {e}")))?
            .sync_all()?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Loads a snapshot previously written by [`save_index`], pairing it
/// with `dataset` (snapshots store tree structure, not raw series).
///
/// # Errors
///
/// [`PersistError::Io`] for filesystem problems; [`PersistError::
/// BadMagic`] / [`PersistError::Version`] for foreign or future files;
/// [`PersistError::Corrupt`] for truncation, checksum mismatches, or
/// invalid content; [`PersistError::DatasetMismatch`] when `dataset` is
/// not the collection the snapshot was built over.
pub fn load_index(path: &Path, dataset: Arc<Dataset>) -> Result<MessiIndex, PersistError> {
    let file = std::fs::File::open(path)?;
    let mut bytes = Vec::new();
    std::io::BufReader::new(file).read_to_end(&mut bytes)?;
    if bytes.len() < 20 || bytes[..8] != MAGIC {
        if bytes.len() >= 8 && bytes[..8] == MAGIC {
            return Err(PersistError::Corrupt("truncated header".into()));
        }
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::Version {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let expected_total = 20usize
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| PersistError::Corrupt("payload length overflows".into()))?;
    if bytes.len() != expected_total {
        return Err(PersistError::Corrupt(format!(
            "file is {} bytes, header promises {expected_total}",
            bytes.len()
        )));
    }
    let payload = &bytes[20..20 + payload_len];
    let stored = u64::from_le_bytes(bytes[20 + payload_len..].try_into().expect("8 bytes"));
    let actual = fnv1a64(payload);
    if stored != actual {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    let index = decode_payload(payload, dataset)?;
    // Semantic validation: the structural checks above cannot notice a
    // resealed forgery that tampers with iSAX words or positions while
    // keeping the arenas well-formed — wrong summaries would corrupt
    // pruning bounds and make "exact" answers quietly wrong. The
    // invariant sweep (refinement, containment, key filing, recomputed
    // summaries, each position exactly once) closes that hole; it runs
    // across the configured worker count, so its cost tracks the build's
    // parallel summarize phase, not a serial re-derivation.
    validate_loaded(&index)
        .map_err(|e| PersistError::Corrupt(format!("index invariants violated: {e}")))?;
    Ok(index)
}

/// Load-time semantic validation — the parallel counterpart of
/// [`crate::validate::validate`] for the snapshot trust boundary, built
/// on the *same* per-arena checker
/// ([`crate::validate::check_arena_semantics`]), so an invariant
/// added there automatically guards loaded snapshots. Arenas are
/// independent, so workers claim them via Fetch&Inc; position
/// completeness is folded through a shared atomic seen-array (the
/// `record` hook rejects duplicates on the spot).
fn validate_loaded(index: &MessiIndex) -> Result<(), String> {
    use std::sync::atomic::{AtomicU8, Ordering};
    let arenas = index.arenas();
    let seen: Vec<AtomicU8> = (0..index.num_series()).map(|_| AtomicU8::new(0)).collect();
    let first_error: Mutex<Option<String>> = Mutex::new(None);
    let dispenser = messi_sync::Dispenser::new(arenas.len());
    let workers = index.config().num_workers.min(arenas.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            let seen = &seen;
            let first_error = &first_error;
            let dispenser = &dispenser;
            s.spawn(move || {
                let mut conv = SaxConverter::new(index.sax_config());
                while let Some(i) = dispenser.next() {
                    if first_error.lock().is_some() {
                        return; // someone already failed: stop early
                    }
                    let arena = &arenas[i];
                    let mut record = |pos: usize| -> Result<(), String> {
                        match seen.get(pos) {
                            Some(count) if count.fetch_add(1, Ordering::Relaxed) == 0 => Ok(()),
                            Some(_) => Err(format!("position {pos} appears in more than one leaf")),
                            None => Err(format!("position {pos} out of range")),
                        }
                    };
                    if let Err(e) = crate::validate::check_arena_semantics(
                        index,
                        arena,
                        i,
                        &mut conv,
                        &mut record,
                    ) {
                        let mut slot = first_error.lock();
                        if slot.is_none() {
                            *slot = Some(e);
                        }
                        return;
                    }
                }
            });
        }
    });
    if let Some(e) = first_error.into_inner() {
        return Err(e);
    }
    if let Some(pos) = seen.iter().position(|c| c.load(Ordering::Relaxed) == 0) {
        return Err(format!("position {pos} missing from every leaf"));
    }
    Ok(())
}

fn encode_payload(index: &MessiIndex) -> Vec<u8> {
    let mut w = PayloadWriter::new();
    let config = index.config();
    w.put_u32(config.segments as u32);
    w.put_u32(config.num_workers as u32);
    w.put_u64(config.chunk_size as u64);
    w.put_u64(config.leaf_capacity as u64);
    w.put_u64(config.initial_buffer_capacity as u64);
    w.put_u8(match config.variant {
        BuildVariant::Buffered => 0,
        BuildVariant::NoBuffers => 1,
    });

    let dataset = index.dataset();
    w.put_u32(dataset.series_len() as u32);
    w.put_u64(dataset.len() as u64);
    w.put_u64(fnv1a64_f32(dataset.as_flat()));

    w.put_u32(index.scales().len() as u32);
    for &s in index.scales() {
        w.put_f32(s);
    }

    w.put_u32(index.touched_keys().len() as u32);
    for &key in index.touched_keys() {
        // Slice the per-key subtree back out of its (possibly shared)
        // forest arena, rebased to standalone ids/offsets — the exact
        // bytes a solo per-key arena would have written, so the format
        // is unchanged by forest grouping and old snapshots stay
        // readable (and re-writable) bit for bit.
        let (nodes, entries) = index.key_raw_parts(key).expect("touched ⇒ present");
        w.put_u32(key as u32);
        w.put_u32(nodes.len() as u32);
        w.put_u32(entries.len() as u32);
        for rec in &nodes {
            put_node_word(&mut w, &rec.word);
            w.put_u8(rec.tag);
            w.put_u32(rec.lo);
            w.put_u32(rec.hi);
        }
        for e in entries {
            w.put_bytes(e.sax.symbols());
            w.put_u32(e.pos);
        }
    }
    w.into_bytes()
}

fn decode_payload(payload: &[u8], dataset: Arc<Dataset>) -> Result<MessiIndex, PersistError> {
    let corrupt = |what: &str| PersistError::Corrupt(what.into());
    let mut r = PayloadReader::new(payload);

    let segments = r.take_u32().map_err(corrupt)? as usize;
    let num_workers = r.take_u32().map_err(corrupt)? as usize;
    let chunk_size = r.take_u64().map_err(corrupt)? as usize;
    let leaf_capacity = r.take_u64().map_err(corrupt)? as usize;
    let initial_buffer_capacity = r.take_u64().map_err(corrupt)? as usize;
    let variant = match r.take_u8().map_err(corrupt)? {
        0 => BuildVariant::Buffered,
        1 => BuildVariant::NoBuffers,
        other => {
            return Err(PersistError::Corrupt(format!(
                "unknown build variant {other}"
            )))
        }
    };
    if segments == 0
        || segments > MAX_SEGMENTS
        || num_workers == 0
        || chunk_size == 0
        || leaf_capacity == 0
    {
        return Err(corrupt("configuration out of range"));
    }
    let config = IndexConfig {
        segments,
        num_workers,
        chunk_size,
        leaf_capacity,
        initial_buffer_capacity,
        variant,
    };

    let series_len = r.take_u32().map_err(corrupt)? as usize;
    let num_series = r.take_u64().map_err(corrupt)? as usize;
    let data_hash = r.take_u64().map_err(corrupt)?;
    if series_len != dataset.series_len() || num_series != dataset.len() {
        return Err(PersistError::DatasetMismatch(format!(
            "snapshot indexes {num_series} series × {series_len} points, \
             dataset holds {} × {}",
            dataset.len(),
            dataset.series_len()
        )));
    }
    if data_hash != fnv1a64_f32(dataset.as_flat()) {
        return Err(PersistError::DatasetMismatch(
            "dataset content hash differs — same shape, different values".into(),
        ));
    }
    if segments > series_len {
        return Err(corrupt("more segments than points"));
    }

    let num_scales = r.take_u32().map_err(corrupt)? as usize;
    if num_scales != segments {
        return Err(corrupt("scale count disagrees with segments"));
    }
    let mut scales = Vec::with_capacity(num_scales);
    for _ in 0..num_scales {
        scales.push(r.take_f32().map_err(corrupt)?);
    }

    let num_subtrees = r.take_u32().map_err(corrupt)? as usize;
    let num_keys = 1usize << segments;
    // Every count below is untrusted: cap it by the bytes actually left
    // in the payload before passing it to `Vec::with_capacity`, so a
    // tiny crafted file cannot request a multi-gigabyte allocation (an
    // abort, not a catchable error) by lying about its sizes.
    if num_subtrees > r.remaining() / SUBTREE_HEADER_BYTES {
        return Err(corrupt("subtree count exceeds payload size"));
    }
    let mut subtrees = Vec::with_capacity(num_subtrees);
    let mut total_entries = 0usize;
    for _ in 0..num_subtrees {
        let key = r.take_u32().map_err(corrupt)? as usize;
        if key >= num_keys {
            return Err(PersistError::Corrupt(format!(
                "root key {key} out of range"
            )));
        }
        let num_nodes = r.take_u32().map_err(corrupt)? as usize;
        let num_entries = r.take_u32().map_err(corrupt)? as usize;
        if num_nodes > r.remaining() / NODE_WIRE_BYTES
            || num_entries > r.remaining() / ENTRY_WIRE_BYTES
        {
            return Err(corrupt("subtree counts exceed payload size"));
        }
        let mut nodes = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let word = take_node_word(&mut r, segments).map_err(PersistError::Corrupt)?;
            let tag = r.take_u8().map_err(corrupt)?;
            let lo = r.take_u32().map_err(corrupt)?;
            let hi = r.take_u32().map_err(corrupt)?;
            nodes.push(NodeRecord { word, tag, lo, hi });
        }
        let mut entries = Vec::with_capacity(num_entries);
        for _ in 0..num_entries {
            let symbols = r.take_bytes(MAX_SEGMENTS).map_err(corrupt)?;
            let pos = r.take_u32().map_err(corrupt)?;
            if pos as usize >= num_series {
                return Err(PersistError::Corrupt(format!(
                    "entry position {pos} out of range (< {num_series})"
                )));
            }
            entries.push(LeafEntry {
                sax: SaxWord::new(symbols),
                pos,
            });
        }
        let subtree = Subtree::from_raw(nodes, entries).map_err(PersistError::Corrupt)?;
        total_entries += subtree.num_entries();
        subtrees.push((key, subtree));
    }
    if r.remaining() != 0 {
        return Err(corrupt("trailing bytes after the last subtree"));
    }
    if total_entries != num_series {
        return Err(PersistError::Corrupt(format!(
            "subtrees store {total_entries} entries for {num_series} series"
        )));
    }
    // Duplicate keys are rejected by `from_parts` with a panic; turn that
    // into a recoverable error here.
    {
        let mut keys: Vec<usize> = subtrees.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt("duplicate root key"));
        }
    }

    let index = MessiIndex::from_parts(dataset, config, subtrees);
    // The scales are derivable state: `from_parts` already rederived
    // them from the sax config. The persisted copy exists so a snapshot
    // is self-describing — but it must never *override* the derivation
    // (a crafted file could inflate them and make mindist prune the true
    // nearest neighbor). Require bit-equality instead.
    if index
        .scales()
        .iter()
        .zip(&scales)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(corrupt(
            "persisted mindist scales disagree with the configuration",
        ));
    }
    Ok(index)
}

fn put_node_word(w: &mut PayloadWriter, word: &NodeWord) {
    for i in 0..MAX_SEGMENTS {
        w.put_u16(word.symbol(i));
    }
    for i in 0..MAX_SEGMENTS {
        w.put_u8(word.bits(i));
    }
}

fn take_node_word(r: &mut PayloadReader<'_>, _segments: usize) -> Result<NodeWord, String> {
    let mut symbols = [0u16; MAX_SEGMENTS];
    for s in &mut symbols {
        *s = r.take_u16().map_err(String::from)?;
    }
    let mut bits = [0u8; MAX_SEGMENTS];
    for b in &mut bits {
        *b = r.take_u8().map_err(String::from)?;
    }
    // Validate before constructing: NodeWord::new asserts, and a crafted
    // file must not be able to panic the loader.
    for i in 0..MAX_SEGMENTS {
        if bits[i] as usize > CARD_BITS {
            return Err(format!("segment {i}: {} cardinality bits", bits[i]));
        }
        if (u32::from(symbols[i]) >> bits[i]) != 0 {
            return Err(format!(
                "segment {i}: prefix {} does not fit {} bits",
                symbols[i], bits[i]
            ));
        }
    }
    Ok(NodeWord::new(&symbols, &bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QueryConfig;
    use messi_series::gen::{self, DatasetKind};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("messi-persist-test-{}-{name}", std::process::id()));
        p
    }

    fn build_small() -> (Arc<Dataset>, MessiIndex) {
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 23));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        (data, index)
    }

    #[test]
    fn roundtrip_preserves_structure_and_answers() {
        let (data, index) = build_small();
        let path = tmp("roundtrip.msx");
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, Arc::clone(&data)).unwrap();
        assert_eq!(loaded.touched_keys(), index.touched_keys());
        assert_eq!(loaded.num_leaves(), index.num_leaves());
        assert_eq!(loaded.max_height(), index.max_height());
        assert_eq!(loaded.num_entries(), index.num_entries());
        assert_eq!(loaded.scales(), index.scales());
        assert_eq!(loaded.config(), index.config());
        assert!(crate::validate::validate(&loaded).is_empty());
        // Loaded arenas stay allocation-flat.
        for &key in loaded.touched_keys() {
            assert!(loaded.root(key).unwrap().allocation_flat());
        }
        // Answers are bit-identical.
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 3, 23);
        let config = QueryConfig::for_tests();
        for q in queries.iter() {
            let (a, _) = index.search(q, &config);
            let (b, _) = loaded.search(q, &config);
            assert_eq!(a, b);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let path = tmp("badmagic.msx");
        std::fs::write(&path, b"NOTANIDXaaaaaaaaaaaaaaaaaaaa").unwrap();
        let (data, _) = build_small();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        // Valid file with a bumped version byte.
        let (data, index) = build_small();
        let path = tmp("version.msx");
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = FORMAT_VERSION as u8 + 1;
        std::fs::write(&path, &bytes).unwrap();
        match load_index(&path, data) {
            Err(PersistError::Version { found, expected }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected Version, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loads_version_1_snapshots() {
        // The v1 → v2 bump only marks the symbol-column layout; the
        // payload is unchanged, so a v1-stamped file must load. The
        // checksum covers the payload only, so re-stamping the header
        // version byte needs no reseal.
        let (data, index) = build_small();
        let path = tmp("v1.msx");
        save_index(&index, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_index(&path, Arc::clone(&data)).unwrap();
        assert_eq!(loaded.num_entries(), index.num_entries());
        // The symbol columns are rebuilt regardless of file version.
        for &key in loaded.touched_keys() {
            let arena = loaded.root(key).unwrap();
            assert_eq!(
                arena.entry_bytes(),
                arena.num_entries() * (4 + MAX_SEGMENTS)
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_flipped_payload_byte_and_truncation() {
        let (data, index) = build_small();
        let path = tmp("corrupt.msx");
        save_index(&index, &path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // Flip one payload byte: the checksum must catch it.
        let mut flipped = original.clone();
        let mid = 20 + (flipped.len() - 28) / 2;
        flipped[mid] ^= 0x5A;
        std::fs::write(&path, &flipped).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum corruption, got {other:?}"),
        }
        // Truncate: the length header must catch it.
        let mut short = original;
        short.truncate(short.len() - 9);
        std::fs::write(&path, &short).unwrap();
        match load_index(&path, data) {
            Err(PersistError::Corrupt(_)) => {}
            other => panic!("expected truncation corruption, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_dataset() {
        let (_, index) = build_small();
        let path = tmp("mismatch.msx");
        save_index(&index, &path).unwrap();
        // Same shape, different seed → content-hash mismatch.
        let other = Arc::new(gen::generate(DatasetKind::RandomWalk, 300, 24));
        match load_index(&path, other) {
            Err(PersistError::DatasetMismatch(msg)) => assert!(msg.contains("hash"), "{msg}"),
            other => panic!("expected DatasetMismatch, got {other:?}"),
        }
        // Different shape → shape mismatch.
        let small = Arc::new(gen::generate(DatasetKind::RandomWalk, 10, 23));
        match load_index(&path, small) {
            Err(PersistError::DatasetMismatch(_)) => {}
            other => panic!("expected DatasetMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Patches payload bytes of a snapshot file and re-seals the
    /// checksum, simulating an attacker who can forge valid containers.
    fn reseal(bytes: &[u8], patch_at: usize, patch: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[20 + patch_at..20 + patch_at + patch.len()].copy_from_slice(patch);
        let payload_len = out.len() - 28;
        let sum = fnv1a64(&out[20..20 + payload_len]);
        let at = 20 + payload_len;
        out[at..at + 8].copy_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn checksum_valid_forgeries_still_fail_loudly() {
        let (data, index) = build_small();
        let path = tmp("forged.msx");
        save_index(&index, &path).unwrap();
        let original = std::fs::read(&path).unwrap();
        // Payload offsets for the for_tests config (segments = 8):
        // config 33 B, dataset fingerprint 20 B, scales 4 + 8×4 B.
        let scales_at = 33 + 20 + 4;
        let num_subtrees_at = 33 + 20 + 4 + 8 * 4;

        // Inflated mindist scales prune the true nearest neighbor — the
        // loader must reject them even though the checksum matches.
        let forged = reseal(&original, scales_at, &1.0e9f32.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("scales"), "{msg}"),
            other => panic!("expected scales rejection, got {other:?}"),
        }

        // A ludicrous subtree count must be a clean error, not a
        // multi-gigabyte Vec::with_capacity abort.
        let forged = reseal(&original, num_subtrees_at, &u32::MAX.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("exceeds payload"), "{msg}")
            }
            other => panic!("expected count rejection, got {other:?}"),
        }

        // An orphaned-subtree forgery: point the first subtree's node
        // count slightly high while keeping the checksum sealed — the
        // structural validation must refuse it (exact error varies).
        let first_nodes_at = num_subtrees_at + 4 + 4;
        let forged = reseal(&original, first_nodes_at, &3u32.to_le_bytes());
        std::fs::write(&path, &forged).unwrap();
        assert!(load_index(&path, Arc::clone(&data)).is_err());

        // A structurally flawless forgery: tamper one leaf entry's iSAX
        // summary (the arenas stay well-formed, the checksum is
        // resealed). Only the semantic validation pass — recomputed
        // summaries / containment — can catch this; without it the
        // forged summary corrupts pruning bounds and exact answers.
        let first_key = index.touched_keys()[0];
        // The snapshot stores per-key subtrees (sliced back out of any
        // forest grouping), so the first subtree's node count comes from
        // the same slicing the writer uses — not the arena's total.
        let (first_nodes, _) = index.key_raw_parts(first_key).expect("touched");
        let first_entry_sax_at = num_subtrees_at
            + 4 // num_subtrees
            + SUBTREE_HEADER_BYTES
            + first_nodes.len() * NODE_WIRE_BYTES;
        let forged_sax = [original[20 + first_entry_sax_at] ^ 0xFF];
        let forged = reseal(&original, first_entry_sax_at, &forged_sax);
        std::fs::write(&path, &forged).unwrap();
        match load_index(&path, Arc::clone(&data)) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("invariants violated"), "{msg}")
            }
            other => panic!("expected semantic rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display_is_informative() {
        assert!(PersistError::BadMagic.to_string().contains("magic"));
        let v = PersistError::Version {
            found: 9,
            expected: FORMAT_VERSION,
        };
        assert!(v.to_string().contains('9'));
        assert!(PersistError::Corrupt("x".into())
            .to_string()
            .contains("corrupt"));
    }
}
