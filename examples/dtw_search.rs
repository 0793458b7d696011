//! Exact DTW similarity search through the index (the paper's Fig. 19).
//!
//! ```text
//! cargo run --release --example dtw_search [num_series]
//! ```
//!
//! DTW tolerates temporal misalignment that Euclidean distance punishes.
//! "No changes are required in the index structure; we just have to build
//! the envelope of the LB_Keogh method around the query series, and then
//! search the index using this envelope" (§IV). This example shows (1)
//! that DTW retrieves shifted patterns ED misses, and (2) the index
//! accelerating exact DTW search vs the UCR Suite-P DTW scan.

use messi::baselines::ucr;
use messi::prelude::*;
use messi::series::znorm::znormalize_in_place;
use std::sync::Arc;

fn main() {
    let num_series: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    println!("== exact DTW search ==");
    let mut base = messi::series::gen::generate(DatasetKind::Sald, num_series, 5)
        .as_flat()
        .to_vec();

    // Plant a known pattern and, elsewhere, a *time-shifted* copy of it.
    let n = 128usize;
    let pattern: Vec<f32> = (0..n)
        .map(|i| ((i as f32) * 0.12).sin() * 2.0 + ((i as f32) * 0.53).cos())
        .collect();
    let mut shifted: Vec<f32> = (0..n)
        .map(|i| (((i + 7) as f32) * 0.12).sin() * 2.0 + (((i + 7) as f32) * 0.53).cos())
        .collect();
    znormalize_in_place(&mut shifted);
    let planted_pos = 1234usize.min(num_series - 1);
    base[planted_pos * n..(planted_pos + 1) * n].copy_from_slice(&shifted);
    let data = Arc::new(Dataset::from_flat(base, n).expect("well-shaped"));

    let (index, _) = MessiIndex::build(Arc::clone(&data), &IndexConfig::default());
    let qconfig = QueryConfig::default();

    let mut query = pattern;
    znormalize_in_place(&mut query);
    let params = DtwParams::paper_default(n); // 10% warping window
    println!("query: planted pattern; its 7-sample-shifted copy lives at position {planted_pos}\n");

    // Euclidean search: the shift makes the planted copy a poor ED match.
    let (ed_ans, _) = index.search(&query, &qconfig);
    println!(
        "ED  1-NN: series {:<8} distance {:.4}{}",
        ed_ans.pos,
        ed_ans.distance(),
        if ed_ans.pos as usize == planted_pos {
            "  ← found the shifted copy anyway"
        } else {
            "  (NOT the shifted copy: ED is shift-sensitive)"
        }
    );

    // DTW search through the index.
    let (dtw_ans, dtw_stats) = index.search_dtw(&query, params, &qconfig);
    println!(
        "DTW 1-NN: series {:<8} dtw-distance {:.4}{}",
        dtw_ans.pos,
        dtw_ans.distance(),
        if dtw_ans.pos as usize == planted_pos {
            "  ← the shifted copy, as it should be"
        } else {
            ""
        }
    );
    assert_eq!(dtw_ans.pos as usize, planted_pos);

    // Same answer, scan-style (Fig. 19's UCR Suite-p DTW).
    let (scan_ans, scan_stats) = ucr::ucr_parallel_dtw(&data, &query, params, &qconfig);
    assert_eq!(scan_ans.pos, dtw_ans.pos);
    println!(
        "\nMESSI-DTW: {:?} ({} full DTW computations)\n\
         UCR Suite-P DTW: {:?} ({} full DTW computations)\n\
         index speedup: {:.1}x",
        dtw_stats.total_time,
        dtw_stats.real_distance_calcs,
        scan_stats.total_time,
        scan_stats.real_distance_calcs,
        scan_stats.total_time.as_secs_f64() / dtw_stats.total_time.as_secs_f64().max(1e-9)
    );
}
