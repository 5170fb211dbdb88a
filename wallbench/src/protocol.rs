//! The `pol-protocol` workload: the paper's own flow through
//! [`PolSystem`] on the Algorand Testnet preset (AVM).
//!
//! A closed loop: each prover waits for its own `submit_report` — DFS
//! upload, witness attestation with DID challenge–response, hypercube
//! lookup and the deploy-or-attach script — to finish before the next
//! report is filed. Work comes in rounds of [`AREAS_PER_ROUND`] fresh
//! areas, each with one witness and [`SystemConfig::max_users`] provers;
//! the round's reports are interleaved in a seeded order, so deploys and
//! attaches mix, and the round ends with `run_verifier` over each of its
//! areas.

use crate::backend::{BackendHandle, TimedBackend};
use crate::report::{check, mean, median, peak_rss_mb, Host, Outcome};
use crate::trace::{traced, Tracer};
use crate::{
    chainsim_layers, exec_delta, listed, mix, repeat_setup, Budget, Plan, END_TO_END, PER_LAYER,
};
use pol_chainsim::presets;
use pol_core::system::{OpKind, PolSystem, ProverId, SystemConfig, WitnessId};
use pol_geo::OlcCode;
use pol_node::metrics::percentile;
use pol_store::MemoryBackend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Fresh areas opened per round.
pub const AREAS_PER_ROUND: usize = 16;
const PRESET: &str = "algorand-testnet";
/// `peak_rss_mb` is read once this many rounds are done (or at the end
/// of a shorter run), so memory measures a fixed amount of work.
pub const RSS_ROUNDS: u64 = 16;

struct Area {
    witness: WitnessId,
    provers: Vec<ProverId>,
    filed: usize,
    code: Option<OlcCode>,
}

fn setup(seed: u64, tracer: Option<&Arc<Tracer>>) -> (PolSystem, BackendHandle) {
    let (timed, handle) = TimedBackend::wrap(Box::new(MemoryBackend::new()), tracer.cloned());
    let chain = presets::algorand_testnet().build_with_backend(seed, Box::new(timed));
    let system = PolSystem::new(chain, SystemConfig { seed, ..SystemConfig::default() });
    (system, handle)
}

#[derive(Default)]
struct Tally {
    report_ns: Vec<u64>,
    verify_ns: Vec<u64>,
    deploy_ns: Vec<u64>,
    attach_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    reports: u64,
    areas: u64,
    verified: u64,
    rounds: u64,
    trace: Vec<u8>,
}

fn round(system: &mut PolSystem, seed: u64, index: u64, t: Option<&Tracer>, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x9000 + index));
    let seats = SystemConfig::default().max_users as usize;
    // One area per 0.01° grid square (about a kilometre), placed on a
    // seeded 10-digit plus-code cell inside it (1/8000° wide); the
    // witness and the provers, a metre apart, all stand near that
    // cell's centre so they share its area code.
    let cell = |rng: &mut StdRng| (f64::from(rng.gen_range(0..80u32)) + 0.5) / 8000.0 - 0.00002;
    let mut areas: Vec<Area> = Vec::with_capacity(AREAS_PER_ROUND);
    for a in 0..AREAS_PER_ROUND {
        let k = index as usize * AREAS_PER_ROUND + a;
        let lat = -60.0 + (k % 10_000) as f64 * 0.01 + cell(&mut rng);
        let lon = 10.0 + (k / 10_000) as f64 * 0.01 + cell(&mut rng);
        tally.trace.extend_from_slice(&lat.to_be_bytes());
        tally.trace.extend_from_slice(&lon.to_be_bytes());
        let registered = traced(t, "core.register", None, || {
            let witness = system.register_witness(lat, lon)?;
            let provers = (0..seats)
                .map(|i| system.register_prover(lat + 0.00001 * i as f64, lon))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, pol_core::PolError>(Area { witness, provers, filed: 0, code: None })
        });
        match registered {
            Ok(area) => areas.push(area),
            // An area whose parties cannot register is a failed
            // operation; the round goes on without it.
            Err(_) => {
                tally.attempted += 1;
                tally.failed += 1;
            }
        }
    }
    // Interleave: each step files the next report of a random area that
    // still has provers waiting.
    loop {
        let open: Vec<usize> = (0..areas.len()).filter(|&a| areas[a].filed < seats).collect();
        if open.is_empty() {
            break;
        }
        let a = open[rng.gen_range(0..open.len())];
        let len = rng.gen_range(64..512);
        let report: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        tally.trace.extend_from_slice(&(a as u32).to_be_bytes());
        tally.trace.extend_from_slice(&report);
        let area = &mut areas[a];
        let (prover, witness) = (area.provers[area.filed], area.witness);
        let expect = if area.filed == 0 { OpKind::Deploy } else { OpKind::Attach };
        let span = if expect == OpKind::Deploy { "core.deploy" } else { "core.attach" };
        area.filed += 1;
        let started = Instant::now();
        let outcome = traced(t, span, None, || system.submit_report(prover, witness, report));
        let ns = started.elapsed().as_nanos() as u64;
        tally.report_ns.push(ns);
        tally.attempted += 1;
        tally.reports += 1;
        match outcome {
            Ok(o) if o.kind == expect => {
                if expect == OpKind::Deploy {
                    tally.deploy_ns.push(ns);
                } else {
                    tally.attach_ns.push(ns);
                }
                areas[a].code = Some(o.area);
            }
            _ => tally.failed += 1,
        }
    }
    // Verify every area of the round: each prover that filed must be
    // verified, and its report's CID must reach the hypercube.
    for area in &areas {
        let Some(code) = &area.code else { continue };
        let started = Instant::now();
        let verified = traced(t, "core.run_verifier", None, || system.run_verifier(code));
        tally.verify_ns.push(started.elapsed().as_nanos() as u64);
        tally.attempted += 1;
        tally.areas += 1;
        let cids = system.hypercube.record(code).ok().flatten().map_or(0, |r| r.cids.len());
        match verified {
            Ok(n) if n == area.filed && cids == area.filed => tally.verified += n as u64,
            _ => tally.failed += 1,
        }
    }
    tally.rounds += 1;
}

/// Runs `pol-protocol`. See [`crate::run`].
///
/// # Errors
///
/// An unreadable peak-RSS figure.
pub fn run(seed: u64, plan: Plan, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let t = tracer.map(|t| &**t);
    let ((mut system, handle), setup_s) =
        repeat_setup(plan.setup_reps, || Ok(setup(seed, tracer)))?;
    if let Some(t) = t {
        // The contract pipeline the system just ran, timed stage by
        // stage outside the set-up figure.
        let program = pol_core::contract::pol_program();
        traced(Some(t), "lang.compile", None, || pol_lang::backend::compile(&program))
            .map_err(|e| format!("PoL contract: {e:?}"))?;
        traced(Some(t), "lang.certify", None, || pol_lang::gas::certify(&program))
            .map_err(|e| format!("PoL contract: {e:?}"))?;
    }
    let mark = t.map_or(0, Tracer::mark);
    let keys_mark = t.map_or(0, |t| t.counter("store.commit_keys"));
    let exec_before = system.chain().exec_stats();
    let clamps_before = system.chain().gas_precheck_clamps();
    let ops_before = system.operations().len();

    let mut tally = Tally::default();
    let mut rss_mb = None;
    let wall = Instant::now();
    loop {
        let more = match plan.budget {
            Budget::Seconds(s) => wall.elapsed().as_secs_f64() < s,
            Budget::Units(n) => tally.rounds < n,
        };
        if !more {
            break;
        }
        round(&mut system, seed, tally.rounds, t, &mut tally);
        if tally.rounds == RSS_ROUNDS {
            rss_mb = Some(peak_rss_mb()?);
        }
    }

    let chain = system.chain();
    let ops = &system.operations()[ops_before..];
    let txs: usize = ops.iter().map(|o| o.txs).sum();
    let report_txs: usize = ops
        .iter()
        .filter(|o| matches!(o.kind, OpKind::Deploy | OpKind::Attach))
        .map(|o| o.txs)
        .sum();
    let exec = exec_delta(chain.exec_stats(), exec_before);
    let system_ns: u64 = tally.report_ns.iter().sum::<u64>() + tally.verify_ns.iter().sum::<u64>();
    let state_digest = chain.state_digest();
    let checks = vec![
        check(
            "all_verified",
            tally.verified == tally.reports && tally.failed == 0,
            format!(
                "{} of {} reports verified over {} areas",
                tally.verified, tally.reports, tally.areas
            ),
        ),
        handle.root_check(state_digest),
    ];

    let mut reports = tally.report_ns.clone();
    reports.sort_unstable();
    let mut verifies = tally.verify_ns.clone();
    verifies.sort_unstable();
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("wall_tps", txs as f64 / (system_ns as f64 / 1e9));
    e2e.insert("call_us_mean", mean(&reports) / 1e3);
    e2e.insert("call_us_p95", percentile(&reports, 95) as f64 / 1e3);
    e2e.insert("batch_ms_mean", mean(&verifies) / 1e6);
    e2e.insert("batch_ms_p95", percentile(&verifies, 95) as f64 / 1e6);
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("peak_rss_mb", rss_mb.map_or_else(peak_rss_mb, Ok)?);

    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some(t) = t {
        let stats = t.stats_from(mark);
        let all = t.stats();
        let span_mean = |name: &str| stats.get(name).map_or(0.0, |s| s.mean_ns());
        for (metric, span) in [
            ("core.deploy_ns", "core.deploy"),
            ("core.attach_ns", "core.attach"),
            ("core.run_verifier_ns", "core.run_verifier"),
            ("store.commit_ns", "store.commit"),
            ("store.flush_ns", "store.flush"),
            ("store.root_ns", "store.root"),
            ("store.get_ns", "store.get"),
        ] {
            layers.insert(metric, span_mean(span));
        }
        for (metric, span) in
            [("lang.compile_ns", "lang.compile"), ("lang.certify_ns", "lang.certify")]
        {
            layers.insert(metric, all.get(span).map_or(0.0, |s| s.mean_ns()));
        }
        layers.insert("store.commits", stats.get("store.commit").map_or(0, |s| s.count) as f64);
        layers.insert("store.gets", stats.get("store.get").map_or(0, |s| s.count) as f64);
        layers.insert("store.commit_keys", (t.counter("store.commit_keys") - keys_mark) as f64);
    }
    layers.insert("core.txs_per_report", report_txs as f64 / tally.reports.max(1) as f64);
    chainsim_layers(&mut layers, &exec, chain.gas_precheck_clamps() - clamps_before);
    layers.insert("store.keys", handle.len() as f64);

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    counts.insert("rounds", tally.rounds);
    counts.insert("reports", tally.reports);
    counts.insert("deploys", tally.deploy_ns.len() as u64);
    counts.insert("attaches", tally.attach_ns.len() as u64);
    counts.insert("areas", tally.areas);
    counts.insert("verified", tally.verified);
    counts.insert("txs", txs as u64);
    counts.insert("committed_txs", exec.committed_txs);
    counts.insert("conflicts", exec.conflicts);

    let notes = vec![format!(
        "trace: {} rounds of {AREAS_PER_ROUND} areas; samples: {} reports ({} deploys, {} attaches), {} area verifications, {} chain txs; setup runs {:?} s",
        tally.rounds,
        reports.len(),
        tally.deploy_ns.len(),
        tally.attach_ns.len(),
        verifies.len(),
        txs,
        setup_s
    )];
    Ok(Outcome {
        host: Host::new(PRESET, "memory", seed),
        attempted: tally.attempted,
        failed: tally.failed,
        checks,
        end_to_end: listed(&END_TO_END, &e2e),
        per_layer: listed(&PER_LAYER, &layers),
        counts,
        trace_digest: pol_crypto::sha256(&tally.trace),
        state_digest,
        total_burned: chain.total_burned(),
        system_ns,
        notes,
    })
}
