//! Run outcomes, sample statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`ms`, `us`, `1/s`, `count`, …).
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// One end-of-run correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Builds a [`Check`].
pub fn check(name: &'static str, ok: bool, detail: impl Into<String>) -> Check {
    Check { name, ok, detail: detail.into() }
}

/// Facts about the host and configuration a result depends on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Executor worker threads ([`EXECUTOR_WORKERS`]).
    pub workers: usize,
    /// Chain preset name.
    pub preset: String,
    /// State backend name.
    pub backend: &'static str,
    /// Workload seed.
    pub seed: u64,
}

impl Host {
    /// Host facts for a run on `preset` over `backend`.
    pub fn new(preset: &str, backend: &'static str, seed: u64) -> Host {
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            available_parallelism,
            workers: EXECUTOR_WORKERS,
            preset: preset.to_string(),
            backend,
            seed,
        }
    }
}

/// Executor worker threads of the node workloads' chains: one, below
/// any host's parallelism. The executor still runs its parallel path —
/// speculation rounds against a base snapshot, read-set validation,
/// conflict recovery — without handing work to other threads. On a
/// shared 2-vCPU Xeon (2.1 GHz), two workers made blocks 3.7x slower
/// (0.29 ms against 0.079 ms median on `pol-mixed`) and the p95 block
/// time unsteady from run to run (quartile spread 0.45 against 0.07),
/// so the hand-off cost would have drowned every other layer.
pub const EXECUTOR_WORKERS: usize = 1;

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host and configuration facts.
    pub host: Host,
    /// Operations attempted (transactions submitted, reports filed,
    /// areas verified).
    pub attempted: u64,
    /// Attempted operations whose outcome differs from what their class
    /// expects.
    pub failed: u64,
    /// End-of-run correctness checks.
    pub checks: Vec<Check>,
    /// End-to-end metrics (meaningful on untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (filled on traced runs).
    pub per_layer: Vec<Metric>,
    /// Exact counts that must repeat for a seed and a fixed amount of
    /// work (admissions, confirmations, rejections by class, …).
    pub counts: BTreeMap<&'static str, u64>,
    /// Digest of the generated input trace.
    pub trace_digest: [u8; 32],
    /// The chain's final state root.
    pub state_digest: [u8; 32],
    /// Fees burned over the whole run.
    pub total_burned: u128,
    /// Wall time spent inside calls into the system under test.
    pub system_ns: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Share of attempted operations that failed.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[u64]) -> f64 {
    values.iter().map(|&v| v as f64).sum::<f64>() / values.len().max(1) as f64
}

/// Median of a sample of seconds (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the chosen metrics.
pub fn result_json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1, 2, 6]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
