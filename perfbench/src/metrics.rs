//! The metrics the benchmark may print, and the result line it prints.
//!
//! The declared metrics are read from `BENCHMARK.json`, compiled in, so
//! the file is their only list. A report refuses a name it does not
//! declare and will not render while a declared one is missing, so every
//! result line carries exactly the declared set.

use std::fmt::Write as _;

use serde::Deserialize;

/// The benchmark's declaration, at the repository root.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// A declared metric.
#[derive(Debug, Clone, Deserialize)]
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
}

/// The metric lists of `BENCHMARK.json`; its other keys are not read.
#[derive(Deserialize)]
struct Declared {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// Which result line a report is for.
#[derive(Debug, Clone, Copy)]
pub enum Section {
    /// Printed by every untraced run (`--trace 0`), on every workload.
    EndToEnd,
    /// Printed by every traced run (`--trace 1`), on every workload. A
    /// layer that does no work on a workload reads 0 there.
    PerLayer,
}

impl Section {
    /// The metrics `BENCHMARK.json` declares for this section.
    pub fn declared(self) -> Vec<Metric> {
        let d: Declared = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        match self {
            Section::EndToEnd => d.end_to_end,
            Section::PerLayer => d.per_layer,
        }
    }
}

/// Metric values for one result line, restricted to a declared list.
pub struct Report {
    declared: Vec<Metric>,
    values: Vec<Option<f64>>,
}

impl Report {
    /// An empty report over the metrics declared for `section`.
    pub fn new(section: Section) -> Self {
        let declared = section.declared();
        let values = vec![None; declared.len()];
        Report { declared, values }
    }

    /// Sets `name`. Panics if `name` is not declared: printing an
    /// undeclared metric is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .declared
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(if value.is_finite() { value } else { 0.0 });
    }

    /// Sets every declared metric not set yet to 0 (the layer did no
    /// work on this workload).
    pub fn zero_unset(&mut self) {
        for v in &mut self.values {
            v.get_or_insert(0.0);
        }
    }

    /// One human-readable line per metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.declared.iter().zip(&self.values) {
            let _ = writeln!(
                out,
                "  {:<28} {:>18.6} {}",
                d.name,
                v.unwrap_or(f64::NAN),
                d.unit
            );
        }
        out
    }

    /// The result line. Panics if a declared metric is unset.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (d, v)) in self.declared.iter().zip(&self.values).enumerate() {
            let v = v.unwrap_or_else(|| panic!("metric {} was never set", d.name));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: the highest of p99.9,
/// p99, p90 and p50 with at least ten samples beyond it, in parts per
/// million. `None` below twenty samples.
pub fn tail_quantile_ppm(n: u64) -> Option<u64> {
    [999_000u64, 990_000, 900_000, 500_000]
        .into_iter()
        .find(|&q| n * (1_000_000 - q) / 1_000_000 >= 10)
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_are_unique_and_nonempty() {
        let mut names = Vec::new();
        for section in [Section::EndToEnd, Section::PerLayer] {
            let declared = section.declared();
            assert!(!declared.is_empty(), "{section:?} declares no metric");
            names.extend(declared.into_iter().map(|d| d.name));
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is declared twice");
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Report::new(Section::EndToEnd).set("latency_ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn missing_metric_is_refused() {
        let mut r = Report::new(Section::EndToEnd);
        r.set("wall_s", 1.0);
        r.result_json(true, 1, 0);
    }

    #[test]
    fn result_line_has_every_declared_metric() {
        let declared = Section::EndToEnd.declared();
        let mut r = Report::new(Section::EndToEnd);
        for d in &declared {
            r.set(&d.name, 1.5);
        }
        let line = r.result_json(true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        for d in &declared {
            assert!(line.contains(&format!(
                "\"{}\": {{\"value\": 1.5, \"unit\": \"{}\"}}",
                d.name, d.unit
            )));
        }
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_quantile_ppm(19), None);
        assert_eq!(tail_quantile_ppm(20), Some(500_000));
        assert_eq!(tail_quantile_ppm(999), Some(900_000));
        assert_eq!(tail_quantile_ppm(1_000), Some(990_000));
        assert_eq!(tail_quantile_ppm(9_999), Some(990_000));
        assert_eq!(tail_quantile_ppm(10_000), Some(999_000));
        assert_eq!(tail_quantile_ppm(212_000), Some(999_000));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
