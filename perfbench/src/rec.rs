//! Measurement plumbing shared by every workload: a process-wide clock,
//! sample summaries, a thread-safe recorder for the traced run, and the
//! result line the benchmark prints.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many times each pass sets up; `setup_s` is the median over every
/// set-up in the run.
pub const SETUPS: usize = 5;

/// The machine's parallelism: the compute runtime's thread count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nanoseconds since the first call in this process. One origin for every
/// thread, so spans recorded on different threads share a timeline.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Milliseconds between two [`now_ns`] readings.
pub fn ms(start: u64, end: u64) -> f64 {
    end.saturating_sub(start) as f64 / 1e6
}

/// Linear-interpolated quantile of `xs` (`q` in 0..=1); `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Share of `[start, end)` covered by the union of `spans`, in percent.
pub fn covered_pct(spans: &mut [(u64, u64)], start: u64, end: u64) -> f64 {
    if end <= start {
        return 0.0;
    }
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(s, e) in spans.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    100.0 * covered as f64 / (end - start) as f64
}

/// SplitMix64 step: draws a run's later pass seeds from its `--seed`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[derive(Default)]
struct TraceData {
    samples: BTreeMap<String, Vec<f64>>,
    spans: Vec<(u64, u64)>,
}

/// Thread-safe recorder for the traced run: named samples (durations in
/// ms, or counts) plus every timed call's `[start, end)` span.
#[derive(Default)]
pub struct Trace {
    data: Mutex<TraceData>,
}

impl Trace {
    /// Runs `f`, recording its duration under `name` and its span; returns
    /// `f`'s result and the heap events it made on this thread.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, u64) {
        let start = now_ns();
        let (out, allocs) = gcs_alloc::measure(f);
        let end = now_ns();
        let mut d = self.data.lock().expect("trace mutex poisoned");
        d.spans.push((start, end));
        sample(&mut d.samples, name, ms(start, end));
        (out, allocs.total_events())
    }

    /// Records one sample under `name`.
    pub fn add(&self, name: &str, value: f64) {
        let mut d = self.data.lock().expect("trace mutex poisoned");
        sample(&mut d.samples, name, value);
    }

    /// The samples recorded under `name`.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        let d = self.data.lock().expect("trace mutex poisoned");
        d.samples.get(name).cloned().unwrap_or_default()
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<(u64, u64)> {
        self.data
            .lock()
            .expect("trace mutex poisoned")
            .spans
            .clone()
    }
}

fn sample(map: &mut BTreeMap<String, Vec<f64>>, name: &str, value: f64) {
    match map.get_mut(name) {
        Some(v) => v.push(value),
        None => {
            map.insert(name.to_string(), vec![value]);
        }
    }
}

/// What one run reports: the gate verdict, the operation tally, and the
/// metrics (name → value, unit) in print order.
#[derive(Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Context printed above the result line (sample counts, ratios...).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds a metric; a value that is not finite means the measurement
    /// broke, which fails the run.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if value.is_finite() {
            self.metrics.push((name, value, unit));
        } else {
            self.fail_gate(format!("metric {name} is {value}"));
        }
    }

    /// A timing's median (ms) under `name` and its sample count under
    /// `name.n`; nothing when there are no samples.
    pub fn timing(&mut self, name: &str, samples: &[f64]) {
        if let Some(p50) = median(samples) {
            self.metric(name, p50, "ms");
            self.metric(format!("{name}.n"), samples.len() as f64, "count");
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Marks a failed correctness gate: the run's output is wrong.
    pub fn fail_gate(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("GATE FAILED: {}", why.into()));
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let mut spans = vec![(10, 20), (15, 30), (40, 50), (90, 120)];
        assert_eq!(covered_pct(&mut spans, 0, 100), 40.0);
    }
}
