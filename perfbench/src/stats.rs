//! The benchmark's own statistics: medians, quartiles, the tail rule and
//! the failure share. Kept free of any substrate type so the arithmetic
//! every reported number rests on is unit-tested on its own.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty. NaNs sort last and are the caller's bug.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the definition the run-to-run
/// spread of a metric is judged by. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let sorted = sorted(values);
    let m = sorted.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, sorted.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Percentiles the tail rule chooses from, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: f64 = 10.0;

/// The tail of a timing: the highest percentile of [`TAIL_LADDER`] that
/// leaves at least [`TAIL_MIN_BEYOND`] samples beyond it, with that
/// percentile. Falls back to the median (p50) when too few samples exist
/// for any rung. Nearest-rank definition: the value at rank
/// `ceil(p/100 · n)`.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let percentile = TAIL_LADDER
        .iter()
        .copied()
        .find(|p| n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    let sorted = sorted(values);
    let rank = ((percentile / 100.0) * n).ceil().max(1.0) as usize;
    Some(Tail {
        percentile,
        value: sorted[rank - 1],
        samples: values.len(),
    })
}

/// A tail timing together with the percentile it was taken at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile the rule chose.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the rule saw.
    pub samples: usize,
}

/// Share of presented queries the application did not get served:
/// `(dropped + shed) / (offered + shed)`. Shed queries never entered the
/// overlay, so they count in both the failures and the presented load.
/// `0.0` when nothing was presented.
pub fn failed_frac(offered: u64, dropped: u64, shed: u64) -> f64 {
    let presented = offered + shed;
    if presented == 0 {
        0.0
    } else {
        (dropped + shed) as f64 / presented as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it; p99.9 only 1.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        // 360 samples: p99 leaves 3.6, p95 leaves 18.
        let t = tail(&(1..=360).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 342.0);
        // 80 samples: p90 leaves 8, p75 leaves 20.
        let t = tail(&(1..=80).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.value, 60.0);
    }

    #[test]
    fn tail_falls_back_to_median_on_few_samples() {
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!(t.value, 2.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failed_frac_counts_shed_as_presented_and_failed() {
        assert_eq!(failed_frac(0, 0, 0), 0.0);
        assert_eq!(failed_frac(100, 5, 0), 0.05);
        // 90 entered the overlay, 10 were shed at the gate, 5 expired.
        assert_eq!(failed_frac(90, 5, 10), 0.15);
        assert_eq!(failed_frac(0, 0, 4), 1.0);
    }
}
