//! Command-line entry point of the benchmark; see the library docs.
//!
//! ```text
//! wallbench --workload <pol-mixed|state-write|state-read|pol-protocol>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints host facts, sample counts, correctness checks and the metrics,
//! then, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when a check fails, 2 on bad usage
//! or a set-up failure.

use std::path::PathBuf;
use wallbench::report::{result_json, Metric, Outcome};
use wallbench::{Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: wallbench --workload <pol-mixed|state-write|state-read|pol-protocol> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return Err(format!("{} needs a value", pair[0])) };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn print_outcome(outcome: &Outcome, metrics: &[Metric]) {
    let h = &outcome.host;
    println!(
        "host: available_parallelism={} workers={} preset={} backend={} seed={}",
        h.available_parallelism, h.workers, h.preset, h.backend, h.seed
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for c in &outcome.checks {
        println!("check {:<20} {} ({})", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }
    println!(
        "fail_rate {:.6} ({} failed of {} attempted)",
        outcome.fail_rate(),
        outcome.failed,
        outcome.attempted
    );
    for m in metrics {
        println!("metric {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn measure(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let outcome = wallbench::run(args.workload, args.seed, Plan::measure(args.seconds), None)?;
    let metrics = outcome.end_to_end.clone();
    Ok((outcome, metrics))
}

/// The traced run, with its spans written to `out/` beside the manifest.
fn trace(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    let (mut outcome, tracer) = wallbench::traced_run(args.workload, args.seed, Plan::trace())?;
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "spans-{}-{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracer.write_tsv(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    outcome.notes.push(format!("spans written to {}", path.display()));
    let metrics = outcome.per_layer.clone();
    Ok((outcome, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.trace { trace(&args) } else { measure(&args) };
    let (outcome, metrics) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    print_outcome(&outcome, &metrics);
    println!("{}", result_json(&outcome, &metrics));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
