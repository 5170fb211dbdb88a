//! The benchmark's own checks, at the smallest size with the real shape:
//! one trace segment (or protocol round) and a 2 000-slot trie.

use std::collections::BTreeSet;
use wallbench::report::result_json;
use wallbench::{traced_run, Plan, Workload, END_TO_END, PER_LAYER};

#[test]
fn every_workload_reports_every_metric_with_a_unit() {
    for workload in Workload::ALL {
        let outcome = wallbench::run(workload, 7, Plan::tiny(), None).unwrap();
        let failed: Vec<_> = outcome.checks.iter().filter(|c| !c.ok).collect();
        assert!(outcome.correct(), "{}: {} failed, {failed:?}", workload.name(), outcome.failed);
        assert!(outcome.attempted > 0);
        let names: Vec<&str> = outcome.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{}", workload.name());
        for m in &outcome.end_to_end {
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let line = result_json(&outcome, &outcome.end_to_end);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing: {line}");
        }

        let (traced, tracer) = traced_run(workload, 7, Plan::tiny()).unwrap();
        assert!(traced.correct(), "{} traced: {:?}", workload.name(), traced.checks);
        let names: Vec<&str> = traced.per_layer.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _)| n));
        assert!(traced.per_layer.iter().all(|m| !m.unit.is_empty() && m.value.is_finite()));
        let spans = tracer.stats();
        let reached = match workload {
            Workload::PolProtocol => {
                ["core.deploy", "core.attach", "core.run_verifier", "store.commit"]
            }
            _ => ["node.admit", "node.tick", "client.sign", "store.commit"],
        };
        for name in reached {
            assert!(
                spans.get(name).is_some_and(|s| s.count > 0),
                "{}: no {name} spans",
                workload.name()
            );
        }
    }
}

#[test]
fn one_seed_gives_one_trace_and_the_same_counts() {
    for workload in Workload::ALL {
        let a = wallbench::run(workload, 11, Plan::tiny(), None).unwrap();
        let b = wallbench::run(workload, 11, Plan::tiny(), None).unwrap();
        assert_eq!(a.trace_digest, b.trace_digest, "{}", workload.name());
        assert_eq!(a.counts, b.counts, "{}", workload.name());
        assert_eq!(a.state_digest, b.state_digest, "{}", workload.name());
        assert_eq!(a.total_burned, b.total_burned, "{}", workload.name());
        let c = wallbench::run(workload, 12, Plan::tiny(), None).unwrap();
        assert_ne!(
            a.trace_digest,
            c.trace_digest,
            "{}: another seed, another trace",
            workload.name()
        );
    }
}

/// The metric lists in `BENCHMARK.json` are the ones the program prints.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let section = |key: &str, next: Option<&str>| -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).unwrap();
        let end = next.map_or(json.len(), |n| json.find(&format!("\"{n}\"")).unwrap());
        json[start..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let workloads = section("workloads", Some("end_to_end"));
    let listed: BTreeSet<&str> = workloads.iter().map(String::as_str).collect();
    assert_eq!(listed.len(), workloads.len(), "a workload is listed twice");
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()), "{workloads:?}");
    assert_eq!(section("end_to_end", Some("per_layer")), END_TO_END.map(|(n, _)| n.to_string()));
    assert_eq!(section("per_layer", None), PER_LAYER.map(|(n, _)| n.to_string()));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let at = json.find(&format!("\"name\": \"{name}\"")).unwrap();
        assert!(
            json[at..].starts_with(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
}
