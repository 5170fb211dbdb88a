//! `wallbench` — the wall-clock benchmark of the proof-of-location node.
//!
//! One command drives one of four seeded workloads through the public
//! entry points of `pol-node`, `pol-chainsim` and `pol-core`, checks the
//! outputs, and prints the metrics by name with their units:
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload pol-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `pol-mixed`, `state-write`, `state-read` replay an open arrival
//!   trace (per-region Poisson arrivals with a 3x burst phase, drawn on
//!   the chain's virtual clock) into a [`pol_node::NodeService`] as fast
//!   as it can take them; see [`node`].
//! * `pol-protocol` is the paper's own flow, a closed loop of provers
//!   filing reports through [`pol_core::system::PolSystem`] on the
//!   Algorand Testnet preset, each area verified at the end of its
//!   round; see [`protocol`].
//!
//! With `--trace 0` the run measures for `--seconds` and reports the
//! end-to-end metrics ([`END_TO_END`]), taken only around calls into the
//! system: building, encoding and signing transactions is client work
//! and never inside them. With `--trace 1` it runs a fixed amount of
//! work twice, untraced and then traced ([`trace`]), and reports the
//! per-layer metrics ([`PER_LAYER`]), every span's self time and the
//! tracing overhead.
//!
//! `BENCHMARK.json` gates two of the four workloads, `state-write` and
//! `pol-protocol`, which between them reach every layer the per-layer
//! metrics name. On a shared 2-vCPU host whose speed drifts by up to 1.5x
//! for minutes at a time, four workloads only fit the benchmark's time
//! budget at 20 s a run, and at that length `pol-mixed` and `state-read`
//! spread beyond their bounds from run to run; two workloads run 50 s
//! each. The other two stay runnable by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod node;
pub mod protocol;
pub mod report;
pub mod trace;

use pol_chainsim::ExecStats;
use report::{check, metric, Metric, Outcome};
use std::collections::BTreeMap;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Node traffic on a small in-memory state: signature checks,
    /// admission, parking and the gas-certificate precheck dominate.
    PolMixed,
    /// Node traffic over a large preloaded trie; each call writes tens
    /// of slots spread across it.
    StateWrite,
    /// Node traffic over the same trie; each call reads hundreds of
    /// slots and writes one.
    StateRead,
    /// The paper's report / attest / deploy-or-attach / verify flow.
    PolProtocol,
}

impl Workload {
    /// Every workload (`BENCHMARK.json` lists the gated ones).
    pub const ALL: [Workload; 4] =
        [Workload::PolMixed, Workload::StateWrite, Workload::StateRead, Workload::PolProtocol];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PolMixed => "pol-mixed",
            Workload::StateWrite => "state-write",
            Workload::StateRead => "state-read",
            Workload::PolProtocol => "pol-protocol",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Keep starting trace segments (node) or rounds (protocol) until
    /// this much wall time has passed.
    Seconds(f64),
    /// Exactly this many segments or rounds — counts then repeat
    /// exactly for a seed.
    Units(u64),
}

/// Segments or rounds a traced run replays: fixed, so that its counts
/// repeat exactly and two commits trace identical work.
pub const TRACE_UNITS: u64 = 3;

/// How one run is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// How much traffic to replay.
    pub budget: Budget,
    /// Fewest set-up repetitions (see [`repeat_setup`]).
    pub setup_reps: usize,
    /// Storage slots preloaded into the trie of the state workloads.
    pub preload_keys: u32,
}

impl Plan {
    /// A measuring run: traffic for `seconds`, repeated set-up.
    pub fn measure(seconds: f64) -> Plan {
        Plan {
            budget: Budget::Seconds(seconds),
            setup_reps: SETUP_REPS,
            preload_keys: node::PRELOAD_KEYS,
        }
    }

    /// One half of a traced run: [`TRACE_UNITS`] of traffic, one set-up.
    pub fn trace() -> Plan {
        Plan { budget: Budget::Units(TRACE_UNITS), setup_reps: 1, preload_keys: node::PRELOAD_KEYS }
    }

    /// The smallest run with the same shape, for tests.
    pub fn tiny() -> Plan {
        Plan { budget: Budget::Units(1), setup_reps: 1, preload_keys: 2_000 }
    }
}

/// Fewest times the set-up runs in a measuring run; `setup_s` is the
/// median. A quick set-up repeats until [`SETUP_MIN_S`] has passed, so
/// its median rests on enough runs.
pub const SETUP_REPS: usize = 3;
/// Set-up time after which no further repetition starts.
pub const SETUP_MIN_S: f64 = 1.5;

/// Runs `setup` `reps` times or more (see [`SETUP_REPS`]), dropping
/// each result before the next so only one copy of the state is alive,
/// and returns the last result with every run's duration in seconds.
///
/// # Errors
///
/// The first set-up failure.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut built = None;
    while times.len() < reps.max(1) || (reps > 1 && times.iter().sum::<f64>() < SETUP_MIN_S) {
        drop(built.take());
        let started = std::time::Instant::now();
        built = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((built.expect("set-up ran at least once"), times))
}

/// End-to-end metrics, reported by every workload.
///
/// | metric | node workloads | `pol-protocol` |
/// |---|---|---|
/// | `wall_tps` | confirmed txs ÷ wall time inside node calls | confirmed txs ÷ wall time inside `submit_report` + `run_verifier` |
/// | `call_us_*` | `NodeService::submit_at` (admission only) | `PolSystem::submit_report` |
/// | `batch_ms_*` | `NodeService::tick` (one block) | `PolSystem::run_verifier` (one area) |
/// | `setup_s` | compile, deploy, fund, preload (median of [`repeat_setup`]) | compile and wire the system (median) |
/// | `peak_rss_mb` | `VmHWM` after [`node::RSS_SEGMENTS`] segments | `VmHWM` after [`protocol::RSS_ROUNDS`] rounds |
///
/// The names are generic because every workload must report every
/// metric. The block/area tail is p95: a `pol-protocol` run verifies a
/// few hundred areas, too few for a p99 with ten samples beyond it.
///
/// The typical call and batch are means, not medians, and the call tail
/// is p95, not p99. On a shared host whose speed switches between two
/// states for seconds at a time, call times fall into two modes about
/// 1.5x apart. A run's median lands in whichever mode holds just over
/// half its samples, and its p99 in the slowest few seconds of the run.
/// Over ten 50-s `state-write` runs the admission times' quartile
/// spreads, as shares of their medians, were 0.42 for the median, 0.25
/// for the mean, 0.24 for p99 and 0.16 for p95. A mean moves smoothly
/// with the share of time spent in each state.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_tps", "1/s"),
    ("call_us_mean", "us"),
    ("call_us_p95", "us"),
    ("batch_ms_mean", "ms"),
    ("batch_ms_p95", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, named by crate, reported by every traced run (0
/// where a workload does not reach the layer). `_ns` metrics are mean
/// nanoseconds per call of the span, except `chainsim.*_ns`, which are
/// per committed transaction.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("client.build_ns", "ns"),
    ("client.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("node.admit_ns", "ns"),
    ("node.tick_ns", "ns"),
    ("node.tick.self_ns", "ns"),
    ("node.shutdown_ns", "ns"),
    ("node.admitted", "count"),
    ("node.confirmed", "count"),
    ("node.parked", "count"),
    ("node.rejected.fee_overflow", "count"),
    ("node.rejected.underfunded", "count"),
    ("node.rejected.over_budget", "count"),
    ("node.rejected.queue_full", "count"),
    ("node.rejected.other", "count"),
    ("node.queue_wait_blocks_p99", "blocks"),
    ("chainsim.exec_ns", "ns"),
    ("chainsim.validation_ns", "ns"),
    ("chainsim.decode_ns", "ns"),
    ("chainsim.committed_txs", "count"),
    ("chainsim.conflicts", "count"),
    ("chainsim.speculative_runs", "count"),
    ("chainsim.useful_ratio", "ratio"),
    ("chainsim.code_cache_hit_ratio", "ratio"),
    ("chainsim.gas_precheck_clamps", "count"),
    ("store.commit_ns", "ns"),
    ("store.commits", "count"),
    ("store.commit_keys", "count"),
    ("store.flush_ns", "ns"),
    ("store.root_ns", "ns"),
    ("store.get_ns", "ns"),
    ("store.gets", "count"),
    ("store.keys", "count"),
    ("core.deploy_ns", "ns"),
    ("core.attach_ns", "ns"),
    ("core.run_verifier_ns", "ns"),
    ("core.txs_per_report", "count"),
    ("lang.compile_ns", "ns"),
    ("lang.certify_ns", "ns"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Orders `values` as `list` names them, filling absent ones with 0.
pub fn listed(list: &[(&str, &'static str)], values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    list.iter()
        .map(|(name, unit)| metric(*name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

/// The executor counters accumulated between two `exec_stats()`
/// snapshots (the rest of `after` rides along unchanged).
pub fn exec_delta(after: ExecStats, before: ExecStats) -> ExecStats {
    ExecStats {
        committed_txs: after.committed_txs - before.committed_txs,
        speculative_runs: after.speculative_runs - before.speculative_runs,
        conflicts: after.conflicts - before.conflicts,
        committed_exec_ns: after.committed_exec_ns - before.committed_exec_ns,
        validation_ns: after.validation_ns - before.validation_ns,
        decode_ns: after.decode_ns - before.decode_ns,
        code_cache_hits: after.code_cache_hits - before.code_cache_hits,
        code_cache_misses: after.code_cache_misses - before.code_cache_misses,
        ..after
    }
}

/// Fills the `chainsim.*` layer metrics from the executor counters of
/// the measured part of a run and its gas-precheck clamps. Times are per
/// committed transaction.
pub fn chainsim_layers(layers: &mut BTreeMap<&str, f64>, exec: &ExecStats, clamps: u64) {
    let per_tx = |ns: f64| ns / exec.committed_txs.max(1) as f64;
    layers.insert("chainsim.exec_ns", per_tx(exec.committed_exec_ns as f64));
    layers.insert("chainsim.validation_ns", per_tx(exec.validation_ns as f64));
    layers.insert("chainsim.decode_ns", per_tx(exec.decode_ns as f64));
    layers.insert("chainsim.committed_txs", exec.committed_txs as f64);
    layers.insert("chainsim.conflicts", exec.conflicts as f64);
    layers.insert("chainsim.speculative_runs", exec.speculative_runs as f64);
    layers.insert(
        "chainsim.useful_ratio",
        if exec.speculative_runs == 0 {
            1.0
        } else {
            exec.committed_txs as f64 / exec.speculative_runs as f64
        },
    );
    let lookups = exec.code_cache_hits + exec.code_cache_misses;
    layers.insert(
        "chainsim.code_cache_hit_ratio",
        exec.code_cache_hits as f64 / lookups.max(1) as f64,
    );
    layers.insert("chainsim.gas_precheck_clamps", clamps as f64);
}

/// Runs `workload` once.
///
/// # Errors
///
/// A set-up failure (a contract that fails to deploy, an unreadable
/// `/proc/self/status`); failed operations are counted, not errors.
pub fn run(
    workload: Workload,
    seed: u64,
    plan: Plan,
    tracer: Option<&std::sync::Arc<trace::Tracer>>,
) -> Result<Outcome, String> {
    match workload {
        Workload::PolProtocol => protocol::run(seed, plan, tracer),
        w => node::run(w, seed, plan, tracer),
    }
}

/// The same fixed work twice, untraced and then traced: returns the
/// traced outcome — per-layer metrics, the span table with each span's
/// self time, the tracing overhead against the untraced run, and a
/// check that both runs ended identically — and the tracer.
///
/// # Errors
///
/// As [`run`].
pub fn traced_run(
    workload: Workload,
    seed: u64,
    plan: Plan,
) -> Result<(Outcome, std::sync::Arc<trace::Tracer>), String> {
    let bare = run(workload, seed, plan, None)?;
    let tracer = std::sync::Arc::new(trace::Tracer::default());
    let mut traced = run(workload, seed, plan, Some(&tracer))?;
    traced.checks.push(check(
        "traced_matches_bare",
        traced.state_digest == bare.state_digest
            && traced.total_burned == bare.total_burned
            && traced.counts == bare.counts
            && traced.trace_digest == bare.trace_digest,
        "traced and untraced runs end with the same state digest, burn and counts",
    ));
    let overhead_pct = (traced.system_ns as f64 / bare.system_ns.max(1) as f64 - 1.0) * 100.0;
    let spans = tracer.mark();
    for m in &mut traced.per_layer {
        match m.name.as_str() {
            "trace.spans" => m.value = spans as f64,
            "trace.overhead_pct" => m.value = overhead_pct,
            _ => {}
        }
    }
    traced.notes.push(format!(
        "tracing overhead: {overhead_pct:.2}% ({:.1} ms traced vs {:.1} ms untraced inside system calls, {spans} spans)",
        traced.system_ns as f64 / 1e6,
        bare.system_ns as f64 / 1e6,
    ));
    traced.notes.push(format!(
        "{:<22} {:>9} {:>12} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms", "mean_ns"
    ));
    for (name, s) in tracer.stats() {
        traced.notes.push(format!(
            "{name:<22} {:>9} {:>12.3} {:>12.3} {:>12.0}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.mean_ns()
        ));
    }
    Ok((traced, tracer))
}

/// SplitMix64: derives independent, reproducible sub-seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 32 seed bytes (for key generation) from one 64-bit seed.
pub fn seed_bytes(seed: u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        chunk.copy_from_slice(&mix(seed, i as u64).to_be_bytes());
    }
    out
}
