//! The node workloads: an open arrival trace replayed into a
//! [`NodeService`].
//!
//! The trace is cut into segments of [`SEGMENT_MS`] virtual
//! milliseconds. Each segment has three regions with Poisson arrivals
//! (10, 12.5 and 15 per virtual second), a base-rate warm-up, a 3x burst
//! through the middle and a recovery, and is generated from the seed and
//! its own index alone, so a run that gets through more segments replays
//! the same prefix. The service takes the trace as fast as it can: block
//! cadence is virtual, so the wall-clock results are capacity
//! (`wall_tps`) and per-call service times.
//!
//! 7.5 % of arrivals are adversarial, each with an expected typed
//! outcome: fee-overflow caps and underfunded transfers (rejected),
//! gas griefers provisioned at 20x a certified contract's worst case
//! (admitted, fee precheck clamped), starved certified calls (rejected as
//! over budget) and out-of-order nonce pairs (the first parks, the second
//! releases it). The honest rest depends on the workload:
//!
//! * `pol-mixed` — 80/20 location reports (one SSTORE) and verification
//!   queries (one SLOAD) against per-region raw-EVM contracts, on the
//!   in-memory backend;
//! * `state-write` — calls that each write [`WRITE_SLOTS`] slots picked
//!   across [`PRELOAD_KEYS`] slots preloaded into a `TrieBackend`;
//! * `state-read` — calls that each read [`READ_SLOTS`] such slots and
//!   write one.

use crate::backend::{BackendHandle, TimedBackend};
use crate::report::{check, mean, median, peak_rss_mb, Check, Host, Outcome, EXECUTOR_WORKERS};
use crate::trace::{traced, Tracer};
use crate::{
    chainsim_layers, exec_delta, listed, mix, repeat_setup, Budget, Plan, Workload, END_TO_END,
    PER_LAYER,
};
use pol_chainsim::{presets, ExecStats, ExecutionMode, GasQuery};
use pol_crypto::ed25519::Keypair;
use pol_evm::assembler::Asm;
use pol_evm::opcode::Op;
use pol_lang::backend::{AbiValue, CompiledContract};
use pol_ledger::{
    codec, Address, ContractId, LedgerError, StateKey, StateValue, Transaction, TxId,
};
use pol_node::metrics::percentile;
use pol_node::{Admission, AdmissionError, NodeConfig, NodeService, PoissonArrivals, TxTerminal};
use pol_store::{BatchEntry, MemoryBackend, StateBackend, TrieBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Virtual length of one trace segment.
pub const SEGMENT_MS: u64 = 20_000;
/// Traffic phases as (start fraction of a segment, rate multiplier).
const PHASES: [(f64, f64); 3] = [(0.0, 1.0), (0.2, 3.0), (0.5, 1.0)];
/// Regions and their base arrival rates (transactions per virtual
/// second).
const REGIONS: [(&str, f64); 3] = [("eu-west", 10.0), ("us-east", 12.5), ("ap-south", 15.0)];
const USERS_PER_REGION: usize = 8;
/// Storage slots preloaded into the trie of the state workloads (see
/// [`crate::Plan::preload_keys`]).
pub const PRELOAD_KEYS: u32 = 100_000;
/// Slots each `state-write` call writes.
pub const WRITE_SLOTS: usize = 32;
/// Slots each `state-read` call reads.
pub const READ_SLOTS: usize = 200;
const PRESET: &str = "devnet-evm";
/// `peak_rss_mb` is read once this many segments are done (or at the
/// end of a shorter run): memory then measures a fixed amount of work,
/// not however much a faster program gets through in the time.
pub const RSS_SEGMENTS: u64 = 4;

/// The certified contract the gas-griefing classes target (as in
/// `node_load`): its worst-case gas certificate is registered with the
/// chain, so admission prices and polices gas limits against it.
const SINK_CONTRACT: &str = r#"
contract gas_sink {
    participant Creator {
        slots: uint,
    }

    global open: uint = field(slots) view;
    global acc: uint = 0 view;
    map m0[32];

    phase live while open > 0 invariant open >= 0 {
        api bump(key: uint, val: uint) -> acc {
            acc = acc + val;
            m0[key] = [val];
        }
        api clear(key: uint) -> acc {
            delete m0[key];
        }
    }
}
"#;

/// What an arrival is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Fee cap that overflows the worst-case fee: typed `FeeOverflow`.
    FeeOverflow,
    /// Transfer beyond the balance: typed `InsufficientBalance`.
    Underfunded,
    /// Certified call at 20x its proven worst case: admitted, clamped.
    Griefer,
    /// Certified call below its certificate: typed `GasOverBudget`.
    Starved,
    /// Nonce+1 then nonce: parks, then releases.
    OutOfOrder,
    /// Honest call (a report on `pol-mixed`).
    Honest,
    /// Honest query (a verification read on `pol-mixed`; the state
    /// call elsewhere).
    Query,
}

/// One arrival of the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual arrival time relative to the segment start.
    pub at_ms: u64,
    /// Region index.
    pub region: usize,
    /// User index within the region.
    pub user: usize,
    /// What the arrival is.
    pub class: Class,
    /// Randomness for its payload (locations, slot picks, values).
    pub entropy: u64,
}

/// The arrivals of trace segment `segment`, in time order.
pub fn segment_events(seed: u64, segment: u64) -> Vec<Event> {
    let mut raw: Vec<(u64, usize)> = Vec::new();
    for (r, (_, rate)) in REGIONS.iter().enumerate() {
        let mut arrivals = PoissonArrivals::new(mix(seed, segment * 16 + r as u64), *rate);
        let mut phase = 0usize;
        loop {
            let at = arrivals.next_arrival_ms();
            if at >= SEGMENT_MS {
                break;
            }
            while phase + 1 < PHASES.len() && at >= (PHASES[phase + 1].0 * SEGMENT_MS as f64) as u64
            {
                phase += 1;
                arrivals.set_rate_multiplier(PHASES[phase].1);
            }
            raw.push((at, r));
        }
    }
    raw.sort_unstable();
    let mut rng = StdRng::seed_from_u64(mix(seed, segment * 16 + 15));
    raw.into_iter()
        .map(|(at_ms, region)| {
            let roll: f64 = rng.gen();
            let class = match roll {
                r if r < 0.010 => Class::FeeOverflow,
                r if r < 0.020 => Class::Underfunded,
                r if r < 0.035 => Class::Griefer,
                r if r < 0.045 => Class::Starved,
                r if r < 0.075 => Class::OutOfOrder,
                r if r < 0.81 => Class::Honest,
                _ => Class::Query,
            };
            Event {
                at_ms,
                region,
                user: rng.gen_range(0..USERS_PER_REGION),
                class,
                entropy: rng.gen(),
            }
        })
        .collect()
}

/// Location report sink: `storage[caller] = calldata[0..32]`.
fn report_runtime() -> Vec<u8> {
    Asm::new().push_u64(0).op(Op::CallDataLoad).op(Op::Caller).op(Op::SStore).op(Op::Stop).build()
}

/// Verification query: returns `storage[caller]`.
fn verify_runtime() -> Vec<u8> {
    Asm::new()
        .op(Op::Caller)
        .op(Op::SLoad)
        .push_u64(0)
        .op(Op::MStore)
        .push_u64(32)
        .push_u64(0)
        .op(Op::Return)
        .build()
}

/// Calldata of the state contracts: a 32-byte value word, then 4-byte
/// big-endian slot numbers.
fn slot_calldata(value: [u8; 32], slots: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut data = value.to_vec();
    for s in slots {
        data.extend_from_slice(&s.to_be_bytes());
    }
    data
}

/// Emits the loop over the calldata slot list: for each slot, the body
/// runs with `[.., off, slot]` on the stack and must leave `[.., off]`.
fn slot_loop(asm: Asm, body: impl FnOnce(Asm) -> Asm) -> Asm {
    let mut asm = asm;
    let (top, end) = (asm.new_label(), asm.new_label());
    let asm = asm
        .push_u64(32)
        .bind(top)
        .dup(1)
        .op(Op::CallDataSize)
        .op(Op::Gt)
        .op(Op::IsZero)
        .jump_if(end)
        .dup(1)
        .op(Op::CallDataLoad)
        .push_u64(224)
        .op(Op::Shr);
    body(asm).push_u64(4).op(Op::Add).jump(top).bind(end)
}

/// `state-write`: `storage[slot] = value` for every listed slot.
fn writer_runtime() -> Vec<u8> {
    // [off, slot] -> value, slot -> SSTORE.
    slot_loop(Asm::new(), |a| a.push_u64(0).op(Op::CallDataLoad).swap(1).op(Op::SStore))
        .op(Op::Stop)
        .build()
}

/// `state-read`: sums every listed slot and stores the sum under the
/// caller.
fn reader_runtime() -> Vec<u8> {
    // [acc, off, slot] -> [acc, off, v] -> [acc + v, off].
    let asm = slot_loop(Asm::new().push_u64(0), |a| {
        a.op(Op::SLoad).dup(3).op(Op::Add).swap(2).op(Op::Pop)
    });
    asm.op(Op::Pop).op(Op::Caller).op(Op::SStore).op(Op::Stop).build()
}

fn slot_word(slot: u32) -> [u8; 32] {
    let mut w = [0u8; 32];
    w[28..].copy_from_slice(&slot.to_be_bytes());
    w
}

fn nonzero_word(rng: &mut StdRng) -> [u8; 32] {
    let mut w: [u8; 32] = rng.gen();
    w[0] |= 1;
    w
}

/// One region's contracts and users. On the state workloads `report`
/// and `verify` are both the shared state contract.
struct Region {
    report: ContractId,
    verify: ContractId,
    sink: ContractId,
    users: Vec<(Keypair, Address)>,
}

/// A node ready to take the trace.
pub struct NodeBench {
    workload: Workload,
    service: NodeService,
    regions: Vec<Region>,
    sink: CompiledContract,
    griefer_gas: u64,
    starved_gas: u64,
    preload_keys: u32,
    handle: BackendHandle,
}

fn deployed(
    result: Result<pol_ledger::Receipt, LedgerError>,
    what: &str,
) -> Result<ContractId, String> {
    result
        .map_err(|e| format!("deploying {what}: {e}"))?
        .created
        .ok_or_else(|| format!("deploying {what}: no contract created"))
}

/// Builds the chain, preloads state, compiles and deploys the contracts,
/// funds the users and starts the service.
///
/// # Errors
///
/// A contract that fails to compile or deploy, or a state contract that
/// lands elsewhere than its preloaded storage.
pub fn setup(
    workload: Workload,
    seed: u64,
    preload_keys: u32,
    tracer: Option<&Arc<Tracer>>,
) -> Result<NodeBench, String> {
    let t = tracer.map(|t| &**t);
    let mut config = NodeConfig::default();
    config.preset = PRESET.to_string();
    config.seed = seed;
    let preset = presets::devnet_evm();
    let deployer_keys = Keypair::from_seed(&crate::seed_bytes(mix(seed, 0xDE)));
    let deployer = Address::from_public_key(&deployer_keys.public);
    // The state contract is the deployer's first creation, so its
    // address — and the storage preloaded under it — is known up front.
    let state_address = pol_ledger::address::contract_address(&deployer, 0);
    let inner: Box<dyn StateBackend> = match workload {
        Workload::PolMixed => Box::new(MemoryBackend::new()),
        _ => {
            let mut trie = TrieBackend::new();
            let mut rng = StdRng::seed_from_u64(mix(seed, 0x5107));
            let mut next = 0u32;
            while next < preload_keys {
                let end = (next + 4096).min(preload_keys);
                let batch: Vec<BatchEntry> = (next..end)
                    .map(|s| {
                        let key = StateKey::Storage(state_address, slot_word(s));
                        let value = StateValue::Word(nonzero_word(&mut rng));
                        (codec::encode_key(&key), Some(codec::encode_value(&value)))
                    })
                    .collect();
                trie.commit(&batch).map_err(|e| format!("preloading the trie: {e}"))?;
                next = end;
            }
            Box::new(trie)
        }
    };
    let (timed, handle) = TimedBackend::wrap(inner, tracer.cloned());
    let mut chain = preset.build_with_backend(seed, Box::new(timed));
    chain.set_execution_mode(ExecutionMode::Parallel { workers: EXECUTOR_WORKERS });
    chain.fund(deployer, 10u128.pow(26));

    let state_contract = match workload {
        Workload::PolMixed => None,
        w => {
            let runtime =
                if w == Workload::StateWrite { writer_runtime() } else { reader_runtime() };
            let id = deployed(
                chain.deploy_evm(&deployer_keys, Asm::deploy_wrapper(&runtime), 5_000_000),
                "state contract",
            )?;
            if id != ContractId::Evm(state_address) {
                return Err(format!(
                    "state contract deployed at {id}, preloaded at {state_address}"
                ));
            }
            Some(id)
        }
    };

    let program = traced(t, "lang.parse", None, || pol_lang::parse(SINK_CONTRACT))
        .map_err(|e| format!("sink contract: {e:?}"))?;
    let sink = traced(t, "lang.compile", None, || pol_lang::backend::compile(&program))
        .map_err(|e| format!("sink contract: {e:?}"))?;
    let bounds = Arc::new(
        traced(t, "lang.certify", None, || pol_lang::gas::certify(&program))
            .map_err(|e| format!("sink contract: {e:?}"))?,
    );
    let mut regions = Vec::new();
    for _ in REGIONS {
        let (report, verify) = if workload == Workload::PolMixed {
            (
                deployed(
                    chain.deploy_evm(
                        &deployer_keys,
                        Asm::deploy_wrapper(&report_runtime()),
                        5_000_000,
                    ),
                    "report contract",
                )?,
                deployed(
                    chain.deploy_evm(
                        &deployer_keys,
                        Asm::deploy_wrapper(&verify_runtime()),
                        5_000_000,
                    ),
                    "verify contract",
                )?,
            )
        } else {
            let id = state_contract.expect("state workloads deploy a state contract");
            (id, id)
        };
        let init = sink
            .evm
            .init_with_args(&[AbiValue::Word(1)])
            .map_err(|e| format!("sink init: {e:?}"))?;
        let sink_id = deployed(chain.deploy_evm(&deployer_keys, init, 5_000_000), "sink contract")?;
        let b = Arc::clone(&bounds);
        chain.register_gas_resolver(
            sink_id,
            Box::new(move |q: &GasQuery<'_>| b.resolve_evm_call(q.calldata)),
        );
        let users =
            (0..USERS_PER_REGION).map(|_| chain.create_funded_account(10u128.pow(24))).collect();
        regions.push(Region { report, verify, sink: sink_id, users });
    }
    // Griefing gas limits derived from the certificate itself: far above
    // the proven worst case, and safely below it (the 5 000 margin
    // covers the calldata-dependent intrinsic-gas spread).
    let sample = sink
        .evm
        .encode_call("bump", &[AbiValue::Word(0), AbiValue::Word(0)])
        .map_err(|e| format!("sink call: {e:?}"))?;
    let bound = bounds.resolve_evm_call(&sample).ok_or("bump is not certified")?;
    let service = NodeService::new(chain, &config);
    Ok(NodeBench {
        workload,
        service,
        regions,
        sink,
        griefer_gas: bound * 20,
        starved_gas: bound - 5_000,
        preload_keys,
        handle,
    })
}

/// The typed outcome a submission must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Queued,
    Parked,
    FeeOverflow,
    Underfunded,
    OverBudget,
}

fn meets(expect: Expect, result: &Result<Admission, AdmissionError>) -> bool {
    use AdmissionError::Rejected;
    matches!(
        (expect, result),
        (Expect::Queued, Ok(Admission::Queued(_)))
            | (Expect::Parked, Ok(Admission::Parked(_)))
            | (Expect::FeeOverflow, Err(Rejected(LedgerError::FeeOverflow { .. })))
            | (Expect::Underfunded, Err(Rejected(LedgerError::InsufficientBalance { .. })))
            | (Expect::OverBudget, Err(Rejected(LedgerError::GasOverBudget { .. })))
    )
}

impl NodeBench {
    /// The honest call of this workload for `event`.
    fn honest(&self, event: &Event, from: Address, nonce: u64, fees: (u128, u128)) -> Transaction {
        let region = &self.regions[event.region];
        let mut rng = StdRng::seed_from_u64(event.entropy);
        let (contract, data) = match (self.workload, event.class) {
            (Workload::PolMixed, Class::Query) => (region.verify, Vec::new()),
            (Workload::PolMixed, _) => (region.report, event.entropy.to_be_bytes().to_vec()),
            (Workload::StateWrite, _) => {
                let value = nonzero_word(&mut rng);
                let slots: Vec<u32> =
                    (0..WRITE_SLOTS).map(|_| rng.gen_range(0..self.preload_keys)).collect();
                (region.report, slot_calldata(value, slots.into_iter()))
            }
            _ => {
                let slots: Vec<u32> =
                    (0..READ_SLOTS).map(|_| rng.gen_range(0..self.preload_keys)).collect();
                (region.report, slot_calldata([0; 32], slots.into_iter()))
            }
        };
        let gas = match self.workload {
            Workload::PolMixed if event.class == Class::Query => 100_000,
            Workload::PolMixed => 200_000,
            _ => 1_000_000,
        };
        Transaction::call(from, contract, data, 0, nonce)
            .with_gas_limit(gas)
            .with_fees(fees.0, fees.1)
    }

    /// The unsigned transactions of `event` with their expected outcomes.
    fn build(&self, event: &Event) -> Vec<(Transaction, Expect)> {
        let region = &self.regions[event.region];
        let (_, from) = &region.users[event.user];
        let from = *from;
        let chain = self.service.chain();
        let fees = chain.suggested_fees();
        let nonce = chain.next_nonce(from);
        let bump = |key: u64| {
            let args = [AbiValue::Word(u128::from(key % 32)), AbiValue::Word(1)];
            self.sink.evm.encode_call("bump", &args).expect("bump encodes")
        };
        match event.class {
            Class::FeeOverflow => vec![(
                Transaction::transfer(from, Address::ZERO, 1, nonce).with_fees(u128::MAX, fees.1),
                Expect::FeeOverflow,
            )],
            Class::Underfunded => vec![(
                Transaction::transfer(from, Address::ZERO, u128::MAX / 4, nonce)
                    .with_fees(fees.0, fees.1),
                Expect::Underfunded,
            )],
            Class::Griefer => vec![(
                Transaction::call(from, region.sink, bump(event.entropy), 0, nonce)
                    .with_gas_limit(self.griefer_gas)
                    .with_fees(fees.0, fees.1),
                Expect::Queued,
            )],
            Class::Starved => vec![(
                Transaction::call(from, region.sink, bump(event.entropy), 0, nonce)
                    .with_gas_limit(self.starved_gas)
                    .with_fees(fees.0, fees.1),
                Expect::OverBudget,
            )],
            Class::OutOfOrder => vec![
                (self.honest(event, from, nonce + 1, fees), Expect::Parked),
                (self.honest(event, from, nonce, fees), Expect::Queued),
            ],
            Class::Honest | Class::Query => {
                vec![(self.honest(event, from, nonce, fees), Expect::Queued)]
            }
        }
    }
}

/// Samples and counters gathered while replaying.
#[derive(Default)]
struct Tally {
    admit_ns: Vec<u64>,
    tick_ns: Vec<u64>,
    shutdown_ns: u64,
    attempted: u64,
    failed: u64,
    sent: BTreeMap<&'static str, u64>,
    parked: u64,
    /// Admitted transactions: id and chain height at admission.
    awaiting: Vec<(TxId, u64)>,
    segments: u64,
    trace: Vec<u8>,
    /// `VmHWM` once [`RSS_SEGMENTS`] segments are done.
    rss_mb: Option<f64>,
    /// Admitted transactions without a terminal state after the drain.
    lost: usize,
    /// The executor counters just before the drain, so that tick self
    /// time subtracts only the execution done inside `node.tick` spans.
    exec_before_drain: ExecStats,
}

impl Tally {
    fn system_ns(&self) -> u64 {
        self.admit_ns.iter().sum::<u64>() + self.tick_ns.iter().sum::<u64>() + self.shutdown_ns
    }
}

fn tick(bench: &mut NodeBench, t: Option<&Tracer>, tally: &mut Tally) {
    let started = Instant::now();
    traced(t, "node.tick", None, || bench.service.tick());
    tally.tick_ns.push(started.elapsed().as_nanos() as u64);
}

fn replay(bench: &mut NodeBench, seed: u64, budget: Budget, t: Option<&Tracer>) -> Tally {
    let mut tally = Tally::default();
    let start_ms = bench.service.chain().now_ms();
    let wall = Instant::now();
    let keys: Vec<Vec<Keypair>> =
        bench.regions.iter().map(|r| r.users.iter().map(|(k, _)| k.clone()).collect()).collect();
    loop {
        let more = match budget {
            Budget::Seconds(s) => wall.elapsed().as_secs_f64() < s,
            Budget::Units(n) => tally.segments < n,
        };
        if !more {
            break;
        }
        let seg_start = start_ms + tally.segments * SEGMENT_MS;
        for event in segment_events(seed, tally.segments) {
            let at = seg_start + event.at_ms;
            tally.trace.extend_from_slice(&at.to_be_bytes());
            tally.trace.extend_from_slice(&[
                event.region as u8,
                event.user as u8,
                event.class as u8,
            ]);
            tally.trace.extend_from_slice(&event.entropy.to_be_bytes());
            while bench.service.chain().now_ms() < at {
                tick(bench, t, &mut tally);
            }
            let built = traced(t, "client.build", None, || bench.build(&event));
            let keypair = &keys[event.region][event.user];
            for (tx, expect) in built {
                let id = t.map(|_| tx.id());
                let tx = traced(t, "client.sign", id, || tx.signed(keypair));
                // The bench's own check of what the node is about to
                // verify: a signature that fails here is a failed
                // operation, not something to submit.
                if t.is_some() && !traced(t, "crypto.verify", id, || tx.verify_signature()) {
                    tally.attempted += 1;
                    tally.failed += 1;
                    continue;
                }
                *tally.sent.entry(class_name(expect)).or_default() += 1;
                if event.class == Class::Griefer {
                    *tally.sent.entry("griefer").or_default() += 1;
                }
                let height = bench.service.chain().height();
                let started = Instant::now();
                let result = traced(t, "node.admit", id, || bench.service.submit_at(at, tx));
                tally.admit_ns.push(started.elapsed().as_nanos() as u64);
                tally.attempted += 1;
                if !meets(expect, &result) {
                    tally.failed += 1;
                } else if let Ok(admission) = result {
                    tally.parked += u64::from(matches!(admission, Admission::Parked(_)));
                    tally.awaiting.push((admission.id(), height));
                }
            }
        }
        tally.segments += 1;
        if tally.segments == RSS_SEGMENTS {
            tally.rss_mb = peak_rss_mb().ok();
        }
    }
    let end_ms = start_ms + tally.segments * SEGMENT_MS;
    while bench.service.chain().now_ms() < end_ms {
        tick(bench, t, &mut tally);
    }
    tally.exec_before_drain = bench.service.chain().exec_stats();
    let started = Instant::now();
    let drain = traced(t, "node.shutdown", None, || bench.service.shutdown());
    tally.shutdown_ns = started.elapsed().as_nanos() as u64;
    tally.lost = drain.lost;
    tally
}

fn class_name(expect: Expect) -> &'static str {
    match expect {
        Expect::Queued => "queued",
        Expect::Parked => "parked",
        Expect::FeeOverflow => "fee_overflow",
        Expect::Underfunded => "underfunded",
        Expect::OverBudget => "over_budget",
    }
}

/// Runs a node workload. See [`crate::run`].
///
/// # Errors
///
/// Set-up failures and an unreadable peak-RSS figure.
pub fn run(
    workload: Workload,
    seed: u64,
    plan: Plan,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Outcome, String> {
    let t = tracer.map(|t| &**t);
    let (mut bench, setup_s) =
        repeat_setup(plan.setup_reps, || setup(workload, seed, plan.preload_keys, tracer))?;
    let mark = t.map_or(0, Tracer::mark);
    let keys_mark = t.map_or(0, |t| t.counter("store.commit_keys"));
    let exec_before = bench.service.chain().exec_stats();
    let clamps_before = bench.service.chain().gas_precheck_clamps();

    let tally = replay(&mut bench, seed, plan.budget, t);

    let service = &bench.service;
    let chain = service.chain();
    let exec = exec_delta(chain.exec_stats(), exec_before);
    let clamps = chain.gas_precheck_clamps() - clamps_before;
    let rejected = service.rejections();
    let sent = |k: &str| tally.sent.get(k).copied().unwrap_or(0);

    // Every admitted transaction must confirm successfully.
    let mut failed = tally.failed;
    let mut waits: Vec<u64> = Vec::with_capacity(tally.awaiting.len());
    for (id, height) in &tally.awaiting {
        match service.terminal(*id) {
            Some(TxTerminal::Confirmed(receipt)) if receipt.status.is_success() => {
                waits.push(receipt.block_number.saturating_sub(*height));
            }
            _ => failed += 1,
        }
    }
    waits.sort_unstable();

    let state_digest = chain.state_digest();
    let mut checks: Vec<Check> = vec![
        check(
            "drain",
            tally.lost == 0
                && service.admitted() == service.confirmed() + service.dropped()
                && service.dropped() == 0,
            format!(
                "lost {}, admitted {} = confirmed {} + dropped {}",
                tally.lost,
                service.admitted(),
                service.confirmed(),
                service.dropped()
            ),
        ),
        check(
            "rejections_by_class",
            rejected.fee_overflow == sent("fee_overflow")
                && rejected.underfunded == sent("underfunded")
                && rejected.over_budget == sent("over_budget")
                && rejected.total()
                    == sent("fee_overflow") + sent("underfunded") + sent("over_budget"),
            format!(
                "fee_overflow {}/{}, underfunded {}/{}, over_budget {}/{}, total {}",
                rejected.fee_overflow,
                sent("fee_overflow"),
                rejected.underfunded,
                sent("underfunded"),
                rejected.over_budget,
                sent("over_budget"),
                rejected.total()
            ),
        ),
        check(
            "gas_clamps",
            clamps == sent("griefer"),
            format!("{clamps} clamps for {} griefers", sent("griefer")),
        ),
        check("confirmed", service.confirmed() > 0, format!("{} confirmed", service.confirmed())),
    ];
    checks.push(bench.handle.root_check(state_digest));

    let system_ns = tally.system_ns();
    let mut admit = tally.admit_ns.clone();
    admit.sort_unstable();
    let mut ticks = tally.tick_ns.clone();
    ticks.sort_unstable();
    let mut e2e: BTreeMap<&str, f64> = BTreeMap::new();
    e2e.insert("wall_tps", service.confirmed() as f64 / (system_ns as f64 / 1e9));
    e2e.insert("call_us_mean", mean(&admit) / 1e3);
    e2e.insert("call_us_p95", percentile(&admit, 95) as f64 / 1e3);
    e2e.insert("batch_ms_mean", mean(&ticks) / 1e6);
    e2e.insert("batch_ms_p95", percentile(&ticks, 95) as f64 / 1e6);
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("peak_rss_mb", tally.rss_mb.map_or_else(peak_rss_mb, Ok)?);

    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    if let Some(t) = t {
        let stats = t.stats_from(mark);
        let setup_stats = t.stats();
        let span_mean = |name: &str| stats.get(name).map_or(0.0, |s| s.mean_ns());
        let count = |name: &str| stats.get(name).map_or(0, |s| s.count) as f64;
        for (metric, span) in [
            ("client.build_ns", "client.build"),
            ("client.sign_ns", "client.sign"),
            ("crypto.verify_ns", "crypto.verify"),
            ("node.admit_ns", "node.admit"),
            ("node.tick_ns", "node.tick"),
            ("node.shutdown_ns", "node.shutdown"),
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
            layers.insert(metric, setup_stats.get(span).map_or(0.0, |s| s.mean_ns()));
        }
        layers.insert("store.commits", count("store.commit"));
        layers.insert("store.gets", count("store.get"));
        layers.insert("store.commit_keys", (t.counter("store.commit_keys") - keys_mark) as f64);
        // Tick self time: what the tick spends outside the storage layer
        // and the executor's transaction runs (ledger apply, block
        // assembly, receipt harvest).
        let tick_stat = stats.get("node.tick").cloned().unwrap_or_default();
        let store_in_ticks: u64 = ["store.commit", "store.flush", "store.root", "store.get"]
            .iter()
            .map(|s| t.nested_total_ns_from(mark, s, "node.tick"))
            .sum();
        let exec_in_ticks = exec_delta(tally.exec_before_drain, exec_before).committed_exec_ns;
        let self_ns = tick_stat.total_ns as f64 - store_in_ticks as f64 - exec_in_ticks as f64;
        layers.insert("node.tick.self_ns", self_ns / tick_stat.count.max(1) as f64);
    }
    layers.insert("node.admitted", service.admitted() as f64);
    layers.insert("node.confirmed", service.confirmed() as f64);
    layers.insert("node.parked", tally.parked as f64);
    layers.insert("node.rejected.fee_overflow", rejected.fee_overflow as f64);
    layers.insert("node.rejected.underfunded", rejected.underfunded as f64);
    layers.insert("node.rejected.over_budget", rejected.over_budget as f64);
    layers.insert("node.rejected.queue_full", rejected.queue_full as f64);
    layers.insert(
        "node.rejected.other",
        (rejected.total()
            - rejected.fee_overflow
            - rejected.underfunded
            - rejected.over_budget
            - rejected.queue_full) as f64,
    );
    layers.insert("node.queue_wait_blocks_p99", percentile(&waits, 99) as f64);
    chainsim_layers(&mut layers, &exec, clamps);
    layers.insert("store.keys", bench.handle.len() as f64);

    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    counts.insert("segments", tally.segments);
    counts.insert("attempted", tally.attempted);
    counts.insert("admitted", service.admitted());
    counts.insert("confirmed", service.confirmed());
    counts.insert("parked", tally.parked);
    counts.insert("rejected.fee_overflow", rejected.fee_overflow);
    counts.insert("rejected.underfunded", rejected.underfunded);
    counts.insert("rejected.over_budget", rejected.over_budget);
    counts.insert("rejected.total", rejected.total());
    counts.insert("conflicts", exec.conflicts);
    counts.insert("committed_txs", exec.committed_txs);
    counts.insert("gas_clamps", clamps);

    let notes = vec![
        format!(
            "trace: {} segments of {} s virtual, {} submissions ({} honest queued, {} parked, {} fee_overflow, {} underfunded, {} over_budget, {} griefers)",
            tally.segments,
            SEGMENT_MS / 1000,
            tally.attempted,
            sent("queued"),
            sent("parked"),
            sent("fee_overflow"),
            sent("underfunded"),
            sent("over_budget"),
            sent("griefer"),
        ),
        format!(
            "samples: {} admissions, {} ticks; {} blocks, {} confirmed, {} conflicts; setup runs {:?} s",
            admit.len(),
            ticks.len(),
            chain.height(),
            service.confirmed(),
            exec.conflicts,
            setup_s
        ),
    ];
    let backend = if workload == Workload::PolMixed { "memory" } else { "trie" };
    Ok(Outcome {
        host: Host::new(PRESET, backend, seed),
        attempted: tally.attempted,
        failed,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_seeded_and_mixed() {
        let a = segment_events(5, 0);
        assert_eq!(a, segment_events(5, 0));
        assert_ne!(a, segment_events(6, 0));
        assert_ne!(a, segment_events(5, 1));
        assert!(a.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let burst = a.iter().filter(|e| e.at_ms >= 4_000 && e.at_ms < 10_000).count() as f64;
        let calm = a.iter().filter(|e| e.at_ms >= 10_000).count() as f64;
        // 3x the rate over 6 s against 1x over 10 s.
        assert!(burst / 6.0 > 2.0 * calm / 10.0, "burst {burst}, calm {calm}");
        assert!(a.iter().any(|e| e.class == Class::OutOfOrder));
    }
}
