//! Order statistics and process-level resource readings.

/// Summary of one sample set: what every latency figure is printed with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice at `pos` in
/// `0..=len-1` index space.
fn interpolate(sorted: &[f64], pos: f64) -> f64 {
    let pos = pos.clamp(0.0, (sorted.len() - 1) as f64);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ascending(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (NaN for an empty set).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = ascending(values);
    interpolate(&v, (v.len() - 1) as f64 / 2.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so the spread printed here is the
/// spread the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.len() < 2 {
        let m = median(values);
        return (m, m, m);
    }
    let v = ascending(values);
    let n = v.len() as f64;
    let at = |k: f64| interpolate(&v, k * (n + 1.0) / 4.0 - 1.0);
    (at(1.0), at(2.0), at(3.0))
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = ascending(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range as a share of the median: the run-to-run spread
/// `compare` and the acceptance check hold against a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(values);
    Summary {
        n: values.len(),
        q1,
        median,
        q3,
        p95: percentile(values, 95.0),
        p99: percentile(values, 99.0),
        max: values.iter().copied().fold(f64::NAN, f64::max),
    }
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MB. Zero where `/proc`
/// is unavailable; the caller reports that as a failed reading.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process so far, all
/// threads. `/proc/self/stat` counts in clock ticks; Linux fixes
/// `USER_HZ` at 100 for every architecture the workspace targets.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. 12th and 13th after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / USER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn process_readings_are_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
