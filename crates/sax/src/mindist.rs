//! Lower-bound (mindist) distance kernels.
//!
//! The mindist between a query and an iSAX summary lower-bounds the true
//! Euclidean distance between the query and *every* series whose summary
//! it is (Shieh & Keogh 2008): per segment, the distance from the query's
//! PAA value to the summary's breakpoint region, scaled by the segment
//! length:
//!
//! ```text
//! mindist²(q, S) = Σᵢ lenᵢ · gapᵢ²,
//! gapᵢ = bl − q   if q < bl      (bl/bu = region bounds of segment i)
//!        q − bu   if q > bu
//!        0        otherwise
//! ```
//!
//! MESSI computes mindists in two places with very different volume:
//!
//! * **Node mindist** during tree traversal (Alg. 7 line 1) — a few per
//!   node, variable cardinality: [`mindist_sq_node`].
//! * **Leaf-entry mindist** when draining priority queues (Alg. 9
//!   line 2) — one per candidate series, full cardinality, the hot loop.
//!   For this we precompute a per-query [`MindistTable`] (16 × 256
//!   contributions), turning each mindist into 16 table lookups; the SIMD
//!   version performs the lookups with AVX2 gathers. This is the "SIMD
//!   ... for the computation of the lower bound distances" of §II-A (the
//!   branches are resolved at table-build time, once per query, instead
//!   of once per candidate).
//!
//! The `*_env` variants take a LB_Keogh envelope instead of a single PAA
//! vector and lower-bound the *DTW* distance (Fig. 19's MESSI-DTW).

use crate::breakpoints::{region_lower, region_upper};
use crate::convert::SaxConfig;
use crate::word::{NodeWord, SaxWord, CARD_BITS, MAX_CARDINALITY};

/// Per-segment gap between a query PAA value and a breakpoint region.
#[inline]
fn gap(q: f32, bl: f32, bu: f32) -> f32 {
    // At most one of the two terms is positive; ±inf bounds collapse to 0
    // through the max.
    (bl - q).max(0.0) + (q - bu).max(0.0)
}

/// Per-segment gap between an envelope `[lo, hi]` and a region `[bl, bu]`:
/// zero when they overlap, otherwise the separation.
#[inline]
fn gap_env(lo: f32, hi: f32, bl: f32, bu: f32) -> f32 {
    (bl - hi).max(0.0) + (lo - bu).max(0.0)
}

/// Segment lengths as `f32` scale factors for mindist computations.
pub fn segment_scales(config: SaxConfig) -> Vec<f32> {
    config
        .segment_lengths()
        .into_iter()
        .map(|l| l as f32)
        .collect()
}

/// Squared mindist between a query PAA and a variable-cardinality node
/// word. Segments with zero bits contribute nothing (their region is the
/// whole axis).
///
/// # Panics
///
/// Debug-panics if `query_paa` and `scales` are shorter than the config's
/// segment count implied by use.
#[inline]
pub fn mindist_sq_node(query_paa: &[f32], scales: &[f32], node: &NodeWord) -> f32 {
    debug_assert_eq!(query_paa.len(), scales.len());
    let mut sum = 0.0f32;
    for i in 0..query_paa.len() {
        let bits = node.bits(i);
        if bits == 0 {
            continue;
        }
        let s = node.symbol(i);
        let g = gap(query_paa[i], region_lower(s, bits), region_upper(s, bits));
        sum += scales[i] * g * g;
    }
    sum
}

/// Squared mindist between a LB_Keogh envelope (given as the PAAs of its
/// lower and upper series) and a node word — the DTW-search analogue of
/// [`mindist_sq_node`].
#[inline]
pub fn mindist_sq_node_env(
    paa_lower: &[f32],
    paa_upper: &[f32],
    scales: &[f32],
    node: &NodeWord,
) -> f32 {
    debug_assert_eq!(paa_lower.len(), scales.len());
    debug_assert_eq!(paa_upper.len(), scales.len());
    let mut sum = 0.0f32;
    for i in 0..paa_lower.len() {
        let bits = node.bits(i);
        if bits == 0 {
            continue;
        }
        let s = node.symbol(i);
        let g = gap_env(
            paa_lower[i],
            paa_upper[i],
            region_lower(s, bits),
            region_upper(s, bits),
        );
        sum += scales[i] * g * g;
    }
    sum
}

/// Branchy scalar mindist between a query PAA and a full-cardinality leaf
/// word — the SISD code path (each segment performs the breakpoint
/// comparison with data-dependent branches, like the paper's non-SIMD
/// baseline).
#[inline]
pub fn mindist_sq_leaf_scalar(query_paa: &[f32], scales: &[f32], word: &SaxWord) -> f32 {
    debug_assert_eq!(query_paa.len(), scales.len());
    let bits = CARD_BITS as u8;
    let mut sum = 0.0f32;
    for i in 0..query_paa.len() {
        let s = word.symbol(i) as u16;
        let q = query_paa[i];
        let bl = region_lower(s, bits);
        let bu = region_upper(s, bits);
        // Deliberate branches: this is the SISD variant.
        if q < bl {
            let g = bl - q;
            sum += scales[i] * g * g;
        } else if q > bu {
            let g = q - bu;
            sum += scales[i] * g * g;
        }
    }
    sum
}

/// Per-query lookup table of mindist contributions.
///
/// `table[i * 256 + s]` holds `lenᵢ · gap(qᵢ, region(s))²` — the exact
/// contribution of segment `i` having symbol `s`. A leaf-entry mindist is
/// then `segments` dependent-free lookups, which the AVX2 kernel performs
/// as two 8-lane gathers.
///
/// ```
/// use messi_sax::convert::{sax_word, SaxConfig};
/// use messi_sax::mindist::MindistTable;
/// use messi_series::paa::paa;
/// use messi_series::distance::euclidean::ed_sq_scalar;
/// use messi_series::znorm::znormalized;
///
/// let config = SaxConfig::new(16, 256);
/// let query = znormalized(&(0..256).map(|i| (i as f32 * 0.1).sin()).collect::<Vec<_>>());
/// let candidate = znormalized(&(0..256).map(|i| (i as f32 * 0.2).cos()).collect::<Vec<_>>());
///
/// let table = MindistTable::new(&paa(&query, 16), config);
/// let lower_bound = table.mindist_sq(&sax_word(&candidate, config));
/// assert!(lower_bound <= ed_sq_scalar(&query, &candidate));
/// ```
#[derive(Debug, Clone)]
pub struct MindistTable {
    segments: usize,
    table: Vec<f32>,
}

impl MindistTable {
    /// Builds the table for a query PAA.
    ///
    /// # Panics
    ///
    /// Panics if `query_paa.len() != config.segments`.
    pub fn new(query_paa: &[f32], config: SaxConfig) -> Self {
        assert_eq!(query_paa.len(), config.segments, "PAA length mismatch");
        Self::build(config, |i, bl, bu| gap(query_paa[i], bl, bu))
    }

    /// Builds the table for a LB_Keogh envelope (PAA of lower/upper
    /// envelope series) — lower-bounds DTW instead of ED.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn from_envelope(paa_lower: &[f32], paa_upper: &[f32], config: SaxConfig) -> Self {
        assert_eq!(paa_lower.len(), config.segments, "PAA length mismatch");
        assert_eq!(paa_upper.len(), config.segments, "PAA length mismatch");
        Self::build(config, |i, bl, bu| {
            gap_env(paa_lower[i], paa_upper[i], bl, bu)
        })
    }

    fn build(config: SaxConfig, gap_of: impl Fn(usize, f32, f32) -> f32) -> Self {
        let mut this = Self {
            segments: config.segments,
            table: vec![0.0f32; config.segments * MAX_CARDINALITY],
        };
        this.fill(config, gap_of);
        this
    }

    /// Recomputes every entry in place for a new query. Allocation-free:
    /// the reusable query context calls this between batch queries so the
    /// 16 × 256-float table is paid for once per context, not per query.
    fn fill(&mut self, config: SaxConfig, gap_of: impl Fn(usize, f32, f32) -> f32) {
        assert_eq!(
            config.segments, self.segments,
            "refill requires a matching segment count"
        );
        let bits = CARD_BITS as u8;
        for i in 0..config.segments {
            // Segment length, computed without materializing the bounds
            // vector (`segment_scales` allocates; this path must not).
            let (start, end) =
                messi_series::paa::segment_range(config.series_len, config.segments, i);
            let scale = (end - start) as f32;
            let row = &mut self.table[i * MAX_CARDINALITY..(i + 1) * MAX_CARDINALITY];
            for (s, slot) in row.iter_mut().enumerate() {
                let g = gap_of(
                    i,
                    region_lower(s as u16, bits),
                    region_upper(s as u16, bits),
                );
                *slot = scale * g * g;
            }
        }
    }

    /// In-place variant of [`MindistTable::new`]: recomputes the table for
    /// a new query PAA without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `query_paa.len() != config.segments` or the segment count
    /// differs from the one this table was built with.
    pub fn refill(&mut self, query_paa: &[f32], config: SaxConfig) {
        assert_eq!(query_paa.len(), config.segments, "PAA length mismatch");
        self.fill(config, |i, bl, bu| gap(query_paa[i], bl, bu));
    }

    /// In-place variant of [`MindistTable::from_envelope`].
    ///
    /// # Panics
    ///
    /// Panics on length mismatches or a differing segment count.
    pub fn refill_from_envelope(
        &mut self,
        paa_lower: &[f32],
        paa_upper: &[f32],
        config: SaxConfig,
    ) {
        assert_eq!(paa_lower.len(), config.segments, "PAA length mismatch");
        assert_eq!(paa_upper.len(), config.segments, "PAA length mismatch");
        self.fill(config, |i, bl, bu| {
            gap_env(paa_lower[i], paa_upper[i], bl, bu)
        });
    }

    /// Number of segments the table covers.
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Scalar table-lookup mindist (used when AVX2 is unavailable or the
    /// segment count is not 16).
    #[inline]
    pub fn mindist_sq_scalar(&self, word: &SaxWord) -> f32 {
        let mut sum = 0.0f32;
        for i in 0..self.segments {
            sum += self.table[i * MAX_CARDINALITY + word.symbol(i) as usize];
        }
        sum
    }

    /// Table-lookup mindist, dispatched to AVX2 gathers when possible.
    #[inline]
    pub fn mindist_sq(&self, word: &SaxWord) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if self.segments == 16 && messi_series::distance::simd::simd_available() {
            // SAFETY: AVX2 availability checked; table has 16 rows.
            return unsafe { self.mindist_sq_avx2(word) };
        }
        self.mindist_sq_scalar(word)
    }

    /// AVX2 gather kernel: 16 lookups as two 8-lane gathers.
    ///
    /// # Safety
    ///
    /// Requires AVX2 on the executing CPU and `self.segments == 16`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mindist_sq_avx2(&self, word: &SaxWord) -> f32 {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        debug_assert_eq!(self.segments, 16);
        // SAFETY (whole block): `word.symbols()` is 16 contiguous bytes;
        // indices are sym + 256·i < 16·256 = table length.
        unsafe {
            let base = self.table.as_ptr();
            let syms = _mm_loadu_si128(word.symbols().as_ptr() as *const __m128i);
            let lo = _mm256_cvtepu8_epi32(syms);
            let hi = _mm256_cvtepu8_epi32(_mm_srli_si128(syms, 8));
            let off_lo = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
            let off_hi = _mm256_setr_epi32(2048, 2304, 2560, 2816, 3072, 3328, 3584, 3840);
            let idx_lo = _mm256_add_epi32(lo, off_lo);
            let idx_hi = _mm256_add_epi32(hi, off_hi);
            let v_lo = _mm256_i32gather_ps(base, idx_lo, 4);
            let v_hi = _mm256_i32gather_ps(base, idx_hi, 4);
            let sum = _mm256_add_ps(v_lo, v_hi);
            // Horizontal sum.
            let hi128 = _mm256_extractf128_ps(sum, 1);
            let lo128 = _mm256_castps256_ps128(sum);
            let s4 = _mm_add_ps(lo128, hi128);
            let s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
            let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 0b01));
            _mm_cvtss_f32(s1)
        }
    }

    /// Lower bounds for a chunk of up to 8 entries of a struct-of-arrays
    /// symbol block.
    ///
    /// `cols` is a transposed symbol block — column `s` starts at
    /// `s * n` and holds one byte per entry — `n` is the block's entry
    /// count, `base` the chunk's first entry, and `len <= 8` the chunk
    /// size. One bound per entry is written into `out[..len]`. The block
    /// is typically a whole *leaf run* (several adjacent small leaves
    /// sharing one transposition), with the caller chunking `[base,
    /// base + len)` windows across it; because every lane accumulates
    /// its own segment contributions independently, the per-entry
    /// results are bit-identical however the block is re-chunked — a
    /// run-batched sweep equals a per-leaf sweep bit for bit.
    ///
    /// The SIMD variants map *entries* to vector lanes and walk the
    /// segment columns sequentially, so each lane accumulates its segment
    /// contributions in ascending segment order — exactly the order of
    /// [`MindistTable::mindist_sq_scalar`]. SIMD and scalar results are
    /// therefore **bit-identical** per entry. There are two tiers: when
    /// `use_simd` is set, full chunks of 8 use the AVX2 gather kernel;
    /// every partial chunk (1–7 entries, at most one per scanned run)
    /// takes the scalar twin in both dispatch modes.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is out of bounds or `cols` is shorter than
    /// `segments * n`.
    #[inline]
    pub fn mindist_sq_soa(
        &self,
        cols: &[u8],
        n: usize,
        base: usize,
        len: usize,
        use_simd: bool,
        out: &mut [f32; 8],
    ) {
        assert!(len <= 8 && base + len <= n, "SoA chunk out of bounds");
        assert!(
            cols.len() >= self.segments * n,
            "SoA column block too short"
        );
        #[cfg(target_arch = "x86_64")]
        if use_simd && len == 8 {
            // SAFETY: bounds asserted above; `use_simd` is only true
            // after `simd_available()` confirmed AVX2 (via
            // `Kernel::uses_simd`).
            unsafe { self.mindist_sq_soa_avx2(cols, n, base, out) };
            return;
        }
        let _ = use_simd;
        self.mindist_sq_soa_scalar(cols, n, base, len, out);
    }

    /// Scalar twin of the SoA batch kernel: per entry, segment
    /// contributions summed in ascending segment order, reading the
    /// transposed columns. Bit-identical to
    /// [`MindistTable::mindist_sq_scalar`] (on the entry's word) and to
    /// the AVX2 batch lanes.
    pub fn mindist_sq_soa_scalar(
        &self,
        cols: &[u8],
        n: usize,
        base: usize,
        len: usize,
        out: &mut [f32; 8],
    ) {
        for (lane, slot) in out.iter_mut().take(len).enumerate() {
            let mut sum = 0.0f32;
            for s in 0..self.segments {
                let sym = cols[s * n + base + lane] as usize;
                sum += self.table[s * MAX_CARDINALITY + sym];
            }
            *slot = sum;
        }
    }

    /// AVX2 SoA batch kernel: 8 entries per call, one gather per segment
    /// column, plain (non-reassociating) adds so every lane matches the
    /// scalar accumulation order bit for bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2 on the executing CPU; `base + 8 <= n` and
    /// `cols.len() >= segments * n` (asserted by the public dispatcher).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn mindist_sq_soa_avx2(&self, cols: &[u8], n: usize, base: usize, out: &mut [f32; 8]) {
        #[allow(clippy::wildcard_imports)]
        use core::arch::x86_64::*;
        // SAFETY (whole block): per segment `s < segments`, the 8-byte load
        // at `s*n + base` stays inside `cols` (`base + 8 <= n`, block len
        // `>= segments*n`); gather indices are `sym + 256·s < segments·256`
        // = table length; `out` has exactly 8 lanes for the store.
        unsafe {
            let mut acc = _mm256_setzero_ps();
            let tbl = self.table.as_ptr();
            for s in 0..self.segments {
                let p = cols.as_ptr().add(s * n + base);
                let syms = _mm_loadl_epi64(p as *const __m128i);
                let idx = _mm256_add_epi32(
                    _mm256_cvtepu8_epi32(syms),
                    _mm256_set1_epi32((s * MAX_CARDINALITY) as i32),
                );
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps(tbl, idx, 4));
            }
            _mm256_storeu_ps(out.as_mut_ptr(), acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{sax_word, SaxConfig, SaxConverter};
    use crate::root_key::node_word_for_root_key;
    use messi_series::distance::euclidean::ed_sq_scalar;
    use messi_series::paa::paa;
    use messi_series::stats::approx_eq;
    use messi_series::znorm::znormalized;

    fn mk_series(n: usize, seed: u32) -> Vec<f32> {
        znormalized(
            &(0..n)
                .map(|i| ((i as f32 + seed as f32 * 3.1) * (0.05 + seed as f32 * 0.013)).sin())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn mindist_lower_bounds_true_distance_leaf() {
        let config = SaxConfig::new(16, 256);
        let scales = segment_scales(config);
        for qs in 0..6u32 {
            let q = mk_series(256, qs);
            let qp = paa(&q, 16);
            let table = MindistTable::new(&qp, config);
            for cs in 6..16u32 {
                let c = mk_series(256, cs);
                let w = sax_word(&c, config);
                let true_d = ed_sq_scalar(&q, &c);
                let lb_table = table.mindist_sq_scalar(&w);
                let lb_branchy = mindist_sq_leaf_scalar(&qp, &scales, &w);
                assert!(
                    lb_table <= true_d + 1e-3,
                    "q{qs} c{cs}: lb {lb_table} > d {true_d}"
                );
                assert!(approx_eq(lb_table, lb_branchy, 1e-4));
            }
        }
    }

    #[test]
    fn mindist_lower_bounds_true_distance_node() {
        let config = SaxConfig::new(8, 64);
        let scales = segment_scales(config);
        let mut conv = SaxConverter::new(config);
        for qs in 0..4u32 {
            let q = mk_series(64, qs);
            let qp = paa(&q, 8);
            for cs in 4..10u32 {
                let c = mk_series(64, cs);
                let w = conv.convert(&c);
                let key = crate::root_key::root_key(&w, 8);
                let node = node_word_for_root_key(key, 8);
                let true_d = ed_sq_scalar(&q, &c);
                let lb = mindist_sq_node(&qp, &scales, &node);
                assert!(lb <= true_d + 1e-3, "q{qs} c{cs}: {lb} > {true_d}");
            }
        }
    }

    #[test]
    fn node_mindist_never_exceeds_leaf_mindist() {
        // Coarser regions ⇒ weaker (smaller) bounds.
        let config = SaxConfig::new(8, 64);
        let scales = segment_scales(config);
        let q = mk_series(64, 1);
        let qp = paa(&q, 8);
        let c = mk_series(64, 7);
        let w = sax_word(&c, config);
        let leaf_lb = mindist_sq_leaf_scalar(&qp, &scales, &w);
        let key = crate::root_key::root_key(&w, 8);
        let node = node_word_for_root_key(key, 8);
        let node_lb = mindist_sq_node(&qp, &scales, &node);
        assert!(node_lb <= leaf_lb + 1e-4, "{node_lb} > {leaf_lb}");
    }

    #[test]
    fn refinement_strengthens_node_bounds() {
        let config = SaxConfig::new(4, 32);
        let scales = segment_scales(config);
        let q = mk_series(32, 2);
        let qp = paa(&q, 4);
        let c = mk_series(32, 9);
        let w = sax_word(&c, config);
        let mut node = node_word_for_root_key(crate::root_key::root_key(&w, 4), 4);
        let mut last = mindist_sq_node(&qp, &scales, &node);
        for seg in 0..4 {
            for _ in 1..CARD_BITS {
                let (zero, one) = node.refine(seg);
                node = if one.contains(&w, 4) { one } else { zero };
                let lb = mindist_sq_node(&qp, &scales, &node);
                assert!(lb >= last - 1e-4, "refinement weakened bound");
                last = lb;
            }
        }
    }

    #[test]
    fn simd_mindist_matches_scalar() {
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 3);
        let qp = paa(&q, 16);
        let table = MindistTable::new(&qp, config);
        for cs in 0..20u32 {
            let c = mk_series(256, cs + 50);
            let w = sax_word(&c, config);
            let scalar = table.mindist_sq_scalar(&w);
            let dispatched = table.mindist_sq(&w);
            assert!(
                approx_eq(scalar, dispatched, 1e-5),
                "cs={cs}: {scalar} vs {dispatched}"
            );
        }
    }

    /// Transposes words into an SoA column block (column `s` at `s * n`).
    fn transpose(words: &[SaxWord], segments: usize) -> Vec<u8> {
        let n = words.len();
        let mut cols = vec![0u8; segments * n];
        for (j, w) in words.iter().enumerate() {
            for (s, col) in cols.chunks_exact_mut(n).enumerate() {
                col[j] = w.symbol(s);
            }
        }
        cols
    }

    #[test]
    fn soa_batch_is_bit_identical_to_per_entry_scalar() {
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 21);
        let table = MindistTable::new(&paa(&q, 16), config);
        // 19 entries: two full chunks of 8 plus a partial chunk of 3.
        let words: Vec<SaxWord> = (0..19u32)
            .map(|cs| sax_word(&mk_series(256, cs + 100), config))
            .collect();
        let n = words.len();
        let cols = transpose(&words, 16);
        for use_simd in [false, messi_series::distance::simd::simd_available()] {
            let mut base = 0;
            while base < n {
                let len = (n - base).min(8);
                let mut out = [0.0f32; 8];
                table.mindist_sq_soa(&cols, n, base, len, use_simd, &mut out);
                for lane in 0..len {
                    let expected = table.mindist_sq_scalar(&words[base + lane]);
                    assert_eq!(
                        out[lane].to_bits(),
                        expected.to_bits(),
                        "use_simd={use_simd} base={base} lane={lane}"
                    );
                }
                base += len;
            }
        }
    }

    #[test]
    fn sse_tail_quad_covers_every_partial_length() {
        // Every partial chunk (1–7 entries) takes the scalar twin under
        // either dispatch, behind a full AVX2 chunk. Every length must be
        // bit-identical to the per-entry scalar path.
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 51);
        let table = MindistTable::new(&paa(&q, 16), config);
        for len in 1..8usize {
            // `n = 8 + len`: one full chunk, then a partial of exactly `len`.
            let n = 8 + len;
            let words: Vec<SaxWord> = (0..n as u32)
                .map(|cs| sax_word(&mk_series(256, cs + 200), config))
                .collect();
            let cols = transpose(&words, 16);
            for use_simd in [false, messi_series::distance::simd::simd_available()] {
                let mut out = [0.0f32; 8];
                table.mindist_sq_soa(&cols, n, 8, len, use_simd, &mut out);
                for lane in 0..len {
                    let expected = table.mindist_sq_scalar(&words[8 + lane]);
                    assert_eq!(
                        out[lane].to_bits(),
                        expected.to_bits(),
                        "use_simd={use_simd} len={len} lane={lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn rechunking_a_run_block_never_changes_a_bit() {
        // The engine walks a run's column block in chunks of 8 from the
        // first scanned entry, so the grid depends on which member leaves
        // coalesced. Per-entry results must be bit-identical under *any*
        // chunking —
        // here every window `[base, base + len)` of a 21-entry block, in
        // both dispatch modes.
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 77);
        let table = MindistTable::new(&paa(&q, 16), config);
        let n = 21usize;
        let words: Vec<SaxWord> = (0..n as u32)
            .map(|cs| sax_word(&mk_series(256, cs + 300), config))
            .collect();
        let cols = transpose(&words, 16);
        let expected: Vec<u32> = words
            .iter()
            .map(|w| table.mindist_sq_scalar(w).to_bits())
            .collect();
        for use_simd in [false, messi_series::distance::simd::simd_available()] {
            for base in 0..n {
                for len in 1..=(n - base).min(8) {
                    let mut out = [0.0f32; 8];
                    table.mindist_sq_soa(&cols, n, base, len, use_simd, &mut out);
                    for lane in 0..len {
                        assert_eq!(
                            out[lane].to_bits(),
                            expected[base + lane],
                            "use_simd={use_simd} base={base} len={len} lane={lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn soa_batch_works_for_eight_segments() {
        // Non-16 segment counts must take the same code path (unlike the
        // per-entry gather kernel, the SoA kernel has no 16-row special
        // case).
        let config = SaxConfig::new(8, 64);
        let q = mk_series(64, 31);
        let table = MindistTable::new(&paa(&q, 8), config);
        let words: Vec<SaxWord> = (0..8u32)
            .map(|cs| sax_word(&mk_series(64, cs + 40), config))
            .collect();
        let cols = transpose(&words, 8);
        let mut out = [0.0f32; 8];
        table.mindist_sq_soa(
            &cols,
            8,
            0,
            8,
            messi_series::distance::simd::simd_available(),
            &mut out,
        );
        for (lane, w) in words.iter().enumerate() {
            assert_eq!(out[lane].to_bits(), table.mindist_sq_scalar(w).to_bits());
        }
    }

    #[test]
    fn mindist_zero_for_own_summary() {
        // The query's own iSAX region contains its PAA, so mindist = 0.
        let config = SaxConfig::new(16, 256);
        let q = mk_series(256, 4);
        let qp = paa(&q, 16);
        let w = sax_word(&q, config);
        let table = MindistTable::new(&qp, config);
        assert_eq!(table.mindist_sq_scalar(&w), 0.0);
        assert_eq!(table.segments(), 16);
    }

    #[test]
    fn envelope_mindist_lower_bounds_dtw() {
        use messi_series::distance::dtw::{dtw_sq, DtwParams};
        use messi_series::distance::lb_keogh::Envelope;
        let config = SaxConfig::new(16, 128);
        let scales = segment_scales(config);
        let params = DtwParams::paper_default(128);
        for qs in 0..4u32 {
            let q = mk_series(128, qs);
            let env = Envelope::new(&q, params);
            let pl = paa(&env.lower, 16);
            let pu = paa(&env.upper, 16);
            let table = MindistTable::from_envelope(&pl, &pu, config);
            for cs in 10..18u32 {
                let c = mk_series(128, cs);
                let w = sax_word(&c, config);
                let d = dtw_sq(&q, &c, params);
                let lb_leaf = table.mindist_sq(&w);
                assert!(lb_leaf <= d + 1e-3, "q{qs} c{cs}: leaf {lb_leaf} > {d}");
                let key = crate::root_key::root_key(&w, 16);
                let node = node_word_for_root_key(key, 16);
                let lb_node = mindist_sq_node_env(&pl, &pu, &scales, &node);
                assert!(lb_node <= d + 1e-3, "q{qs} c{cs}: node {lb_node} > {d}");
                assert!(lb_node <= lb_leaf + 1e-3);
            }
        }
    }

    #[test]
    fn envelope_mindist_weaker_than_point_mindist() {
        // The envelope bound must not exceed the ED bound (envelope
        // regions are wider than the point query).
        let config = SaxConfig::new(16, 128);
        let q = mk_series(128, 5);
        let qp = paa(&q, 16);
        use messi_series::distance::dtw::DtwParams;
        use messi_series::distance::lb_keogh::Envelope;
        let env = Envelope::new(&q, DtwParams::paper_default(128));
        let pl = paa(&env.lower, 16);
        let pu = paa(&env.upper, 16);
        let t_point = MindistTable::new(&qp, config);
        let t_env = MindistTable::from_envelope(&pl, &pu, config);
        for cs in 20..28u32 {
            let c = mk_series(128, cs);
            let w = sax_word(&c, config);
            assert!(t_env.mindist_sq(&w) <= t_point.mindist_sq(&w) + 1e-4);
        }
    }

    #[test]
    fn refill_matches_fresh_build() {
        let config = SaxConfig::new(16, 256);
        let q1 = mk_series(256, 11);
        let q2 = mk_series(256, 12);
        let mut reused = MindistTable::new(&paa(&q1, 16), config);
        reused.refill(&paa(&q2, 16), config);
        let fresh = MindistTable::new(&paa(&q2, 16), config);
        for cs in 0..10u32 {
            let w = sax_word(&mk_series(256, cs + 30), config);
            assert_eq!(
                reused.mindist_sq_scalar(&w).to_bits(),
                fresh.mindist_sq_scalar(&w).to_bits(),
                "refilled table must be bit-identical to a fresh one"
            );
        }
        // Envelope refill likewise matches a fresh envelope table.
        use messi_series::distance::dtw::DtwParams;
        use messi_series::distance::lb_keogh::Envelope;
        let env = Envelope::new(&q1, DtwParams::paper_default(256));
        let (pl, pu) = (paa(&env.lower, 16), paa(&env.upper, 16));
        reused.refill_from_envelope(&pl, &pu, config);
        let fresh_env = MindistTable::from_envelope(&pl, &pu, config);
        let w = sax_word(&mk_series(256, 77), config);
        assert_eq!(
            reused.mindist_sq_scalar(&w).to_bits(),
            fresh_env.mindist_sq_scalar(&w).to_bits()
        );
        // A refill for a different series length reuses the same buffer:
        // table size depends only on the segment count.
        let other = SaxConfig::new(16, 128);
        let q3 = mk_series(128, 13);
        reused.refill(&paa(&q3, 16), other);
        let fresh_other = MindistTable::new(&paa(&q3, 16), other);
        let w = sax_word(&mk_series(128, 78), other);
        assert_eq!(
            reused.mindist_sq_scalar(&w).to_bits(),
            fresh_other.mindist_sq_scalar(&w).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "matching segment count")]
    fn refill_rejects_segment_mismatch() {
        let c16 = SaxConfig::new(16, 256);
        let c8 = SaxConfig::new(8, 256);
        let q = mk_series(256, 14);
        let mut t = MindistTable::new(&paa(&q, 16), c16);
        t.refill(&paa(&q, 8), c8);
    }

    #[test]
    fn gap_handles_infinite_bounds() {
        assert_eq!(gap(0.5, f32::NEG_INFINITY, 1.0), 0.0);
        assert_eq!(gap(2.0, f32::NEG_INFINITY, 1.0), 1.0);
        assert_eq!(gap(-3.0, -1.0, f32::INFINITY), 2.0);
        assert_eq!(gap_env(-0.5, 0.5, f32::NEG_INFINITY, f32::INFINITY), 0.0);
        assert_eq!(gap_env(1.5, 2.5, f32::NEG_INFINITY, 1.0), 0.5);
        assert_eq!(gap_env(-2.5, -1.5, -1.0, f32::INFINITY), 0.5);
    }
}
