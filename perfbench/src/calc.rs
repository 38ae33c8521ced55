//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! geomeans over report cells, failure shares and output digests.

/// Percentiles tried for a timing's tail, highest first. The reported one
/// is the highest that still has [`TAIL_MIN_BEYOND`] samples above it.
/// The ladder tops out at p99 so that a longer run does not silently
/// switch a `_p99` metric to p99.9.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile needs beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent) of sorted `sorted`, with the
/// number of samples strictly above its rank.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1], n - rank)
}

/// A tail percentile picked by the rule "the highest percentile with at
/// least ten samples beyond it", with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (99.0 for p99).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Applies the tail rule to `values`; `None` when even the median lacks
/// ten samples beyond it (fewer than 20 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    if v.is_empty() {
        return None;
    }
    TAIL_LADDER.iter().find_map(|&pct| {
        let (value, beyond) = nearest_rank(&v, pct);
        (beyond >= TAIL_MIN_BEYOND).then_some(Tail {
            pct,
            value,
            samples: v.len(),
        })
    })
}

/// Geometric mean over report cells, skipping `-` (cells an artifact
/// deliberately leaves unmeasured, such as TATAS above cw=1300).
///
/// # Errors
///
/// Names the first cell that is neither `-` nor a number, or as
/// [`geomean`].
pub fn geomean_cells<'a>(cells: impl IntoIterator<Item = &'a str>) -> Result<f64, String> {
    let values = cells
        .into_iter()
        .filter(|&c| c != "-")
        .map(|c| c.parse().map_err(|_| format!("cell `{c}` is not a number")))
        .collect::<Result<Vec<f64>, String>>()?;
    geomean(&values)
}

/// Geometric mean of positive values.
///
/// # Errors
///
/// Names the first value that is not a positive finite number, or
/// reports an empty input.
pub fn geomean(values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no measured cells".to_owned());
    }
    let mut log_sum = 0.0;
    for &v in values {
        if !(v > 0.0 && v.is_finite()) {
            return Err(format!("cell `{v}` is not a positive number"));
        }
        log_sum += v.ln();
    }
    Ok((log_sum / values.len() as f64).exp())
}

/// Failures over attempts.
///
/// # Panics
///
/// Panics when nothing was attempted: every workload attempts work.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "failed_frac with nothing attempted");
    failed as f64 / attempted as f64
}

/// FNV-1a over a run's deterministic outputs. Two runs of the same code
/// on the same seed give the same digest; a different digest means the
/// program's behaviour changed, not only its speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a count in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));

        // 999 samples: p99's rank is 990, leaving only 9 beyond it.
        let t = tail(&v[..999]).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 950.0));

        let v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 99.0);

        // 20 samples: only the median has ten beyond it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 50.0);
        assert!(tail(&v[..19]).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 990.0);
    }

    #[test]
    fn geomean_skips_dashes() {
        let g = geomean_cells(["100", "-", "400", "-"]).unwrap();
        assert!((g - 200.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_rejects_bad_cells() {
        assert!(geomean_cells(["100", "n/a"]).unwrap_err().contains("n/a"));
        assert!(geomean_cells(["0"]).is_err());
        assert!(geomean_cells(["-", "-"]).is_err());
    }

    #[test]
    fn failed_frac_is_failures_over_attempts() {
        assert_eq!(failed_frac(0, 7), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
    }

    #[test]
    #[should_panic(expected = "nothing attempted")]
    fn failed_frac_needs_attempts() {
        failed_frac(0, 0);
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.bytes(b"ab");
        let mut b = Digest::default();
        b.bytes(b"ba");
        assert_ne!(a.hex(), b.hex());
        let mut empty = Digest::default();
        empty.bytes(b"");
        assert_eq!(empty.hex(), "cbf29ce484222325");
    }
}
