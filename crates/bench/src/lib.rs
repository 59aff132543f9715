//! # pressio-bench
//!
//! The experiment harness regenerating every table and figure of the
//! LibPressio paper (see DESIGN.md's per-experiment index):
//!
//! * `exp_overhead` — Fig. 3 + Sec. VI (interface overhead distribution,
//!   Wilcoxon signed-rank test)
//! * `exp_feature_table` — Table I (with the libpressio-rs row verified by
//!   live capability probes)
//! * `exp_loc` — Table II (lines of client code, counted by [`cloc`])
//! * `exp_dims` — Sec. V dimension-ordering penalties
//! * `exp_embedding` — Sec. V in-process vs out-of-process overhead
//! * `exp_quality` — supporting compression-quality sweeps
//! * `exp_opt` — FRaZ-style optimizer convergence
//!
//! Per-PR performance is judged by the stand-alone `benchmark/` package at
//! the repository root, not by these binaries.

#![warn(missing_docs)]

pub mod cloc;

/// Median of a slice (small local helper; the metrics crate has the full
/// statistics substrate).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Render a unit-width ASCII histogram (the Fig. 3 rendering).
pub fn ascii_histogram(values: &[f64], bins: usize, width: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = (((v - min) / span) * bins as f64) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let peak = *counts.iter().max().expect("bins > 0");
    let mut out = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let lo = min + span * i as f64 / bins as f64;
        let hi = min + span * (i + 1) as f64 / bins as f64;
        let bar = "#".repeat((c * width).checked_div(peak).unwrap_or(0));
        out.push_str(&format!("[{lo:>7.3} .. {hi:>7.3}) {c:>3} {bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_works() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_renders() {
        let h = ascii_histogram(&[0.0, 0.1, 0.1, 0.2, 0.9], 5, 10);
        assert_eq!(h.lines().count(), 5);
        assert!(h.contains('#'));
    }
}
