//! Property-based proof that the SIMD kernels and their scalar twins
//! are *bit-identical* — the contract `crates/series/src/distance/
//! simd.rs` documents and the `--kernel` ablation relies on.
//!
//! Two layers:
//!
//! * **Kernel level** — for random lengths (including 0, 1, and
//!   non-multiple-of-8 tails), random bounds, and extreme magnitudes,
//!   every dispatcher returns the same bits under `Kernel::Simd` and
//!   `Kernel::Scalar`: squared Euclidean distance (plain and
//!   early-abandoning), LB_Keogh (plain and early-abandoning), and the
//!   batched struct-of-arrays mindist.
//! * **Query level** — a full search under forced-SIMD and
//!   forced-scalar kernels returns bit-identical answers (position and
//!   `dist_sq` bits) for every objective × metric cell. Run single-
//!   worker/single-queue so the evaluation order is deterministic and
//!   the comparison is exact, not statistical.
//!
//! On a CPU without AVX2+FMA, `Kernel::Simd` falls back to scalar and
//! every property holds trivially — so the suite is portable, and the
//! forced-scalar CI job exercises the same fallback explicitly.

// The proptest shim expands multi-test blocks recursively; three tests
// of this size overflow the default 128 limit.
#![recursion_limit = "256"]

use messi::prelude::*;
use messi::sax::convert::SaxConfig;
use messi::sax::mindist::MindistTable;
use messi::series::distance::euclidean::{ed_sq_early_abandon_with, ed_sq_with};
use messi::series::distance::lb_keogh::{
    lb_keogh_sq_early_abandon_with, lb_keogh_sq_with, Envelope,
};
use messi::series::gen::{self, DatasetKind};
use proptest::prelude::*;
use std::sync::Arc;

const SIMD: Kernel = Kernel::Simd;
const SCALAR: Kernel = Kernel::Scalar;

/// A deterministic pseudo-random series of length `n`, with the
/// magnitude scale mixed in so extreme values (overflow-to-infinity
/// squares, denormal-range products) are part of the property.
fn series(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Roughly N(0, 1)-ish via a folded uniform; exact shape is
            // irrelevant — only bit-equality of the two kernels is.
            let u = (state >> 40) as f32 / (1u64 << 24) as f32;
            (u - 0.5) * 4.0 * scale
        })
        .collect()
}

fn scale_strategy() -> impl Strategy<Value = f32> {
    (0usize..4).prop_map(|i| [1.0f32, 1.0e-20, 1.0e19, 3.5e-3][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn ed_kernels_are_bit_identical(
        shape in (0usize..300, 0u64..1_000_000),
        scale in scale_strategy(),
        bound_frac in 0usize..4,
    ) {
        let (n, seed) = shape;
        let a = series(n, seed, scale);
        let b = series(n, seed.wrapping_add(1), scale);
        let simd = ed_sq_with(SIMD, &a, &b);
        let scalar = ed_sq_with(SCALAR, &a, &b);
        prop_assert_eq!(simd.to_bits(), scalar.to_bits(), "ed n={} {} vs {}", n, simd, scalar);

        // Early abandoning at several tightnesses, including bound = 0
        // (abandons at the first stride) and a bound the sum never hits.
        let bound = [0.0f32, scalar / 2.0, scalar, f32::INFINITY][bound_frac];
        let ea_simd = ed_sq_early_abandon_with(SIMD, &a, &b, bound);
        let ea_scalar = ed_sq_early_abandon_with(SCALAR, &a, &b, bound);
        prop_assert_eq!(
            ea_simd.to_bits(), ea_scalar.to_bits(),
            "ed_ea n={} bound={} {} vs {}", n, bound, ea_simd, ea_scalar
        );
    }

    #[test]
    fn lb_keogh_kernels_are_bit_identical(
        shape in (1usize..300, 0u64..1_000_000),
        scale in scale_strategy(),
        fracs in (0usize..4, 0usize..4),
    ) {
        let (n, seed) = shape;
        let (window_frac, bound_frac) = fracs;
        let q = series(n, seed, scale);
        let c = series(n, seed.wrapping_add(7), scale);
        let window = n * window_frac / 8; // 0 ..= n/2
        let env = Envelope::new(&q, DtwParams { window });
        let simd = lb_keogh_sq_with(SIMD, &env, &c);
        let scalar = lb_keogh_sq_with(SCALAR, &env, &c);
        prop_assert_eq!(
            simd.to_bits(), scalar.to_bits(),
            "lb_keogh n={} w={} {} vs {}", n, window, simd, scalar
        );

        let bound = [0.0f32, scalar / 2.0, scalar, f32::INFINITY][bound_frac];
        let ea_simd = lb_keogh_sq_early_abandon_with(SIMD, &env, &c, bound);
        let ea_scalar = lb_keogh_sq_early_abandon_with(SCALAR, &env, &c, bound);
        prop_assert_eq!(
            ea_simd.to_bits(), ea_scalar.to_bits(),
            "lb_keogh_ea n={} bound={} {} vs {}", n, bound, ea_simd, ea_scalar
        );
    }

    #[test]
    fn soa_mindist_tail_lengths_are_bit_identical(
        seed in 0u64..1_000_000,
        segments_pick in 0usize..3,
    ) {
        // Pin every remainder length explicitly: a partial chunk of 1–7
        // entries takes the scalar twin under either dispatch, right
        // after a full AVX2 chunk. Each must match the scalar path bit
        // for bit at every lane.
        let segments = [8usize, 12, 16][segments_pick];
        let series_len = segments * 16;
        let config = SaxConfig::new(segments, series_len);
        let q = series(series_len, seed, 1.0);
        let paa = messi::series::paa::paa(&q, segments);
        let table = MindistTable::new(&paa, config);

        for tail in 1..8usize {
            let entries = 8 + tail; // one full chunk + the pinned tail
            let mut state = seed.wrapping_add(tail as u64) | 1;
            let mut cols = vec![0u8; segments * entries];
            for byte in cols.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *byte = (state >> 32) as u8;
            }
            let mut simd_out = [0.0f32; 8];
            let mut scalar_out = [0.0f32; 8];
            table.mindist_sq_soa(&cols, entries, 8, tail, true, &mut simd_out);
            table.mindist_sq_soa(&cols, entries, 8, tail, false, &mut scalar_out);
            for lane in 0..tail {
                prop_assert_eq!(
                    simd_out[lane].to_bits(), scalar_out[lane].to_bits(),
                    "soa tail segs={} tail={} lane={}", segments, tail, lane
                );
            }
        }
    }

    #[test]
    fn soa_mindist_batch_is_bit_identical(
        shape in (1usize..40, 0u64..1_000_000),
        segments_pick in 0usize..3,
    ) {
        let (entries, seed) = shape;
        let segments = [8usize, 12, 16][segments_pick];
        let series_len = segments * 16;
        let config = SaxConfig::new(segments, series_len);
        let q = series(series_len, seed, 1.0);
        let paa = messi::series::paa::paa(&q, segments);
        let table = MindistTable::new(&paa, config);

        // Random symbol columns for `entries` entries.
        let mut state = seed | 1;
        let mut cols = vec![0u8; segments * entries];
        for byte in cols.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *byte = (state >> 32) as u8;
        }

        let mut simd_out = [0.0f32; 8];
        let mut scalar_out = [0.0f32; 8];
        let mut base = 0;
        while base < entries {
            let len = (entries - base).min(8);
            table.mindist_sq_soa(&cols, entries, base, len, true, &mut simd_out);
            table.mindist_sq_soa(&cols, entries, base, len, false, &mut scalar_out);
            for lane in 0..len {
                prop_assert_eq!(
                    simd_out[lane].to_bits(), scalar_out[lane].to_bits(),
                    "soa mindist segs={} entries={} base={} lane={}",
                    segments, entries, base, lane
                );
            }
            base += len;
        }
    }
}

/// Forced-SIMD and forced-scalar full queries, compared bit-for-bit.
/// Single worker + single queue: the leaf visit order, the bound
/// evolution, and hence every early-abandon decision are deterministic,
/// so bit-identical kernels must produce bit-identical answers.
fn kernel_forced(kernel: Kernel) -> QueryConfig {
    QueryConfig {
        num_workers: 1,
        num_queues: 1,
        kernel,
        ..QueryConfig::default()
    }
}

fn assert_same_answer(tag: &str, a: (u64, f32), b: (u64, f32)) {
    assert_eq!(a.0, b.0, "{tag}: position diverged");
    assert_eq!(
        a.1.to_bits(),
        b.1.to_bits(),
        "{tag}: dist_sq bits diverged ({} vs {})",
        a.1,
        b.1
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn full_queries_are_bit_identical_across_kernels(
        shape in (150usize..400, 0u64..1_000_000),
    ) {
        let (count, seed) = shape;
        let data = Arc::new(gen::generate(DatasetKind::RandomWalk, count, seed));
        let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::for_tests());
        let queries = gen::queries::generate_queries(DatasetKind::RandomWalk, 2, seed);
        let params = DtwParams::paper_default(data.series_len());
        let simd = kernel_forced(Kernel::Simd);
        let scalar = kernel_forced(Kernel::Scalar);

        for q in queries.iter() {
            // Exact 1-NN, both metrics.
            let (a, _) = index.search(q, &simd);
            let (b, _) = index.search(q, &scalar);
            assert_same_answer("exact/ed", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
            let (a, _) = index.search_dtw(q, params, &simd);
            let (b, _) = index.search_dtw(q, params, &scalar);
            assert_same_answer("exact/dtw", (a.pos, a.dist_sq), (b.pos, b.dist_sq));

            // k-NN, both metrics.
            let (ka, _) = index.search_knn(q, 5, &simd);
            let (kb, _) = index.search_knn(q, 5, &scalar);
            prop_assert_eq!(ka.len(), kb.len());
            for (x, y) in ka.iter().zip(&kb) {
                assert_same_answer("knn/ed", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }
            let (ka, _) = index.search_knn_dtw(q, 5, params, &simd);
            let (kb, _) = index.search_knn_dtw(q, 5, params, &scalar);
            prop_assert_eq!(ka.len(), kb.len());
            for (x, y) in ka.iter().zip(&kb) {
                assert_same_answer("knn/dtw", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }

            // ε-range, both metrics (radius from the exact answer so the
            // result set is non-trivial).
            let (nn, _) = index.search(q, &simd);
            let eps = nn.dist_sq * 4.0 + 1.0;
            let (ra, _) = index.search_range(q, eps, &simd);
            let (rb, _) = index.search_range(q, eps, &scalar);
            prop_assert_eq!(ra.len(), rb.len(), "range/ed set size");
            for (x, y) in ra.iter().zip(&rb) {
                assert_same_answer("range/ed", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }
            let (ra, _) = index.search_range_dtw(q, eps, params, &simd);
            let (rb, _) = index.search_range_dtw(q, eps, params, &scalar);
            prop_assert_eq!(ra.len(), rb.len(), "range/dtw set size");
            for (x, y) in ra.iter().zip(&rb) {
                assert_same_answer("range/dtw", (x.pos, x.dist_sq), (y.pos, y.dist_sq));
            }

            // δ-ε-approximate, both metrics: ng corner (δ=0), the
            // deterministic guarantee (δ=1), and a budgeted middle
            // (δ=0.5 — the budget is leaf-count-derived, so with one
            // worker the stop point is deterministic too).
            for delta in [0.0f32, 0.5, 1.0] {
                let (a, _) = index.search_approximate_bounded(q, 0.1, delta, &simd);
                let (b, _) = index.search_approximate_bounded(q, 0.1, delta, &scalar);
                assert_same_answer("approx/ed", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
                let (a, _) = index.search_approximate_bounded_dtw(q, 0.1, delta, params, &simd);
                let (b, _) = index.search_approximate_bounded_dtw(q, 0.1, delta, params, &scalar);
                assert_same_answer("approx/dtw", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
            }

            // The home-leaf-only approximate entry point.
            let a = index.search_approximate(q, Kernel::Simd);
            let b = index.search_approximate(q, Kernel::Scalar);
            assert_same_answer("approx/ng", (a.pos, a.dist_sq), (b.pos, b.dist_sq));
        }
    }
}
