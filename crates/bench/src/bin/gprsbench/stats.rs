//! Order statistics for the benchmark's samples: the best sample every
//! time and rate is reported at, median and quartiles, the "ten samples
//! beyond the percentile" rule, and how many samples confirm the best.
//!
//! Why the best sample and not the median: on the 2-vCPU boxes this runs
//! on, the two CPUs behave like hardware threads of one core. Whatever runs on the
//! other one — a kernel thread, the driver, this process's own second
//! worker — slows memory-bound code on this one by up to 1.8×, in bursts
//! of a second or so, while an ALU-bound loop stays within 2 %. Identical
//! engine runs therefore take anywhere between 1× and 2× their undisturbed
//! time: invocations of 10 s each gave medians 25 % apart and best samples
//! 2 % apart. The disturbance only ever adds time, so the best of many
//! short samples is the repeatable number, and it is the cost of the code
//! rather than of the neighbour. (The 10th percentile does as well on one
//! CPU; on two it is three times less steady than the best sample, quiet
//! moments on both CPUs at once being rarer than a tenth.)

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// A sample confirms the best one when it is within this share of it.
pub const CONFIRMS: f64 = 0.25;

/// Which end of the samples is the undisturbed one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Best {
    /// Times: disturbance makes them longer.
    Lowest,
    /// Rates: disturbance makes them lower.
    Highest,
}

/// The best of `values`.
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn best(values: &[f64], which: Best) -> f64 {
    assert!(!values.is_empty(), "best needs at least one sample");
    let pick = match which {
        Best::Lowest => f64::min,
        Best::Highest => f64::max,
    };
    values.iter().copied().reduce(pick).expect("not empty")
}

/// How many of the samples confirm the best one, itself included. Printed
/// beside the number, never acted on: a rule that refused thinly confirmed
/// numbers ("a tenth of the samples") also refused two healthy runs in six
/// while the neighbour was busy for minutes on end, and with every workload
/// on one CPU there is no placement left for a rare fast mode to come from.
pub fn support(values: &[f64], which: Best) -> usize {
    let b = best(values, which);
    let near = |v: &&f64| (**v - b).abs() <= CONFIRMS * b.abs();
    values.iter().filter(near).count()
}

/// The best of a series of times.
pub fn fast(times: &[f64]) -> f64 {
    best(times, Best::Lowest)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear interpolation at fractional rank `pos` (0-based) of a sorted slice.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles. The quartiles use the same "exclusive" rule as
/// Python's `statistics.quantiles(values, n=4)` (rank `p·(n+1)`, 1-based),
/// so a spread printed here is the spread the driver computes.
///
/// # Panics
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let v = sorted(values);
    let n = v.len();
    let q = |p: f64| at_rank(&v, p * (n as f64 + 1.0) - 1.0);
    Summary {
        n,
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: v[n - 1],
    }
}

/// Samples that must lie beyond a percentile before it is reported.
pub const BEYOND: usize = 10;

/// The highest percentile, at most `want`, that still has [`BEYOND`]
/// samples beyond it among `n`; `None` when even the median has not.
pub fn reportable_percentile(n: usize, want: f64) -> Option<f64> {
    if n < 2 * BEYOND {
        return None;
    }
    Some(want.min(1.0 - BEYOND as f64 / n as f64))
}

/// Value at percentile `p` (0..1) by nearest rank over unsorted samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail figure of a latency distribution: the value at
/// [`reportable_percentile`]`(n, 0.99)`, or the maximum when the sample is
/// too small to have any reportable percentile.
pub fn tail(values: &[f64]) -> f64 {
    match reportable_percentile(values.len(), 0.99) {
        Some(p) => percentile(values, p),
        None => values.iter().copied().fold(f64::MIN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // A single sample is its own quartiles.
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn the_best_sample_ignores_the_disturbed_majority() {
        // 30 samples: 6 quiet ones near 1.0, the rest disturbed up to 2×.
        let mut walls: Vec<f64> = (0..24).map(|i| 1.4 + 0.03 * f64::from(i)).collect();
        walls.extend([1.00, 1.01, 0.99, 1.02, 1.015, 1.005]);
        assert_eq!(best(&walls, Best::Lowest), 0.99);
        assert_eq!(fast(&walls), 0.99);
        assert_eq!(support(&walls, Best::Lowest), 6);
        assert!(
            summarize(&walls).median > 1.5,
            "the median is the neighbour's"
        );
        // The same as rates: the best is the highest.
        let rates: Vec<f64> = walls.iter().map(|w| 100.0 / w).collect();
        assert_eq!(best(&rates, Best::Highest), 100.0 / 0.99);
        assert_eq!(support(&rates, Best::Highest), 6);
        assert_eq!(support(&[3.0], Best::Lowest), 1);
        // One run in thirty on a lucky placement: nothing confirms it.
        let mut walls = vec![1.0; 29];
        walls.push(0.38);
        assert_eq!(support(&walls, Best::Lowest), 1);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_percentile(19, 0.99), None);
        assert_eq!(reportable_percentile(20, 0.99), Some(0.5));
        assert_eq!(reportable_percentile(100, 0.99), Some(0.9));
        assert_eq!(reportable_percentile(1_000, 0.99), Some(0.99));
        assert_eq!(reportable_percentile(16_000, 0.99), Some(0.99));
        // p99.9 of 16 000 has 16 beyond it; of 5 000 it has only 5.
        assert_eq!(reportable_percentile(16_000, 0.999), Some(0.999));
        assert_eq!(reportable_percentile(5_000, 0.999), Some(0.998));
    }

    #[test]
    fn tail_is_p99_or_the_maximum_of_a_small_sample() {
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.5), 500.0);
        assert_eq!(tail(&big), 990.0);
        assert_eq!(tail(&[3.0, 9.0, 4.0]), 9.0);
    }
}
