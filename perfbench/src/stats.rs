//! Order statistics shared by the runs and the comparison: nearest-rank
//! percentiles with the ten-beyond tail rule, quartiles computed exactly
//! as Python's `statistics.quantiles(values, n=4)` does, medians,
//! geometric means and log–log slopes.

/// Samples a tail percentile must leave above it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` in `n` samples: the
/// smallest rank with at least `pct`% of the samples at or below it.
/// Integer arithmetic, so `p90` of 100 samples is rank 90, not 91.
pub fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending, non-empty `sorted`.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples ranked above percentile `pct` in `n` samples.
pub fn beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest of `candidates` (percentiles, ascending) that leaves at
/// least [`TAIL_MIN_BEYOND`] samples beyond it in `n` samples.
pub fn tail_percentile(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median as Python's `statistics.median` computes it: the middle
/// value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) returns them. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let n = 4;
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Geometric mean of positive `values` (1.0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Least-squares slope of `ln y` against `ln x` over the points with
/// both coordinates positive; 0.0 when fewer than two distinct `x`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if pts.len() < 2 || sxx <= 1e-12 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Arithmetic mean (0.0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
