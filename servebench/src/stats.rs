//! Latency summaries under the nearest-rank percentile rule.
//!
//! A percentile is reported only as far as the sample supports it: the
//! p-th percentile of `n` samples is the sample at rank `ceil(p·n)`
//! (1-based, ascending), and it counts as *supported* when at least
//! [`MIN_BEYOND`] samples rank strictly beyond it. Percentiles are given
//! in permille so that the rank arithmetic is exact in integers.

/// Samples that must rank beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of the `permille`-th percentile of `n` samples.
pub fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).max(1)
}

/// How many of `n` samples rank strictly beyond the `permille`-th
/// percentile.
pub fn beyond(n: usize, permille: usize) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// Whether `n` samples support the `permille`-th percentile.
pub fn supported(n: usize, permille: usize) -> bool {
    n > 0 && beyond(n, permille) >= MIN_BEYOND
}

/// The nearest-rank percentile of an ascending slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of unsorted values (nearest rank; 0 for no values).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 500)
}

/// Arithmetic mean (0 for no values).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency sample summarized as median plus one tail percentile.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank tail percentile (`tail_permille`).
    pub tail: f64,
    /// Which tail percentile, in permille.
    pub tail_permille: usize,
    /// Whether `n` supports the tail percentile.
    pub tail_supported: bool,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes `samples` as median plus the `tail_permille` percentile.
pub fn summarize(samples: &[f64], tail_permille: usize) -> Summary {
    if samples.is_empty() {
        return Summary {
            tail_permille,
            ..Summary::default()
        };
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        p50: percentile(&v, 500),
        tail: percentile(&v, tail_permille),
        tail_permille,
        tail_supported: supported(v.len(), tail_permille),
        max: v[v.len() - 1],
    }
}

impl Summary {
    /// One report line: `p50 … · p99 … (n=…, k beyond)`.
    pub fn render(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit} · p{} {:.1} {unit}{} · max {:.1} {unit} (n={}, {} beyond the tail rank)",
            self.p50,
            self.tail_permille as f64 / 10.0,
            self.tail,
            if self.tail_supported {
                ""
            } else {
                " [UNSUPPORTED]"
            },
            self.max,
            self.n,
            beyond(self.n, self.tail_permille),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), 50.0);
        assert_eq!(percentile(&v, 990), 99.0);
        assert_eq!(percentile(&v, 1000), 100.0);
        assert_eq!(percentile(&v, 1), 1.0);
        // ceil(0.5 · 5) = 3 → the middle sample, after sorting.
        assert_eq!(median(&[5.0, 1.0, 2.0, 3.0, 4.0]), 3.0);
        // ceil(0.5 · 4) = 2 → the lower middle, never an interpolation.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(beyond(1000, 990), 10);
        assert!(supported(1000, 990));
        // 999 samples: rank ceil(989.01) = 990, only 9 beyond.
        assert_eq!(rank(999, 990), 990);
        assert!(!supported(999, 990));
        // 1009 samples: rank ceil(998.91) = 999, 10 beyond.
        assert!(supported(1009, 990));
        assert!(!supported(0, 990));
    }

    #[test]
    fn p95_is_supported_by_an_open_loop_of_250() {
        assert_eq!(rank(250, 950), 238);
        assert!(supported(250, 950));
        assert!(!supported(250, 990));
        assert!(!supported(199, 950));
    }

    #[test]
    fn summary_flags_an_unsupported_tail() {
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let s = summarize(&v, 990);
        assert_eq!(s.n, 500);
        assert_eq!(s.p50, 250.0);
        assert_eq!(s.tail, 495.0);
        assert!(!s.tail_supported);
        assert_eq!(s.max, 500.0);
        assert!(s.render("us").contains("UNSUPPORTED"));
    }
}
