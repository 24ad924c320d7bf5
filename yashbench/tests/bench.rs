//! The benchmark's own checks, at a tiny size: tracing measures the same
//! program, every printed metric is declared in `BENCHMARK.json`, and the
//! verdict gate catches a wrong ground truth.

use std::time::Instant;

use jaaru::EngineConfig;
use yashbench::probe::Probe;
use yashbench::run::{nproc, round, run, Options, Sinks};
use yashbench::workload::Workload;

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        tiny: true,
    }
}

#[test]
fn traced_and_untraced_runs_agree() {
    let engine = EngineConfig::with_workers(nproc());
    for workload in Workload::ALL {
        let mut checks = workload.checks(7, true);
        checks.truncate(3);
        let plain = round(&checks, &engine, &Sinks::Detector);
        let probe = Probe::new();
        let programs: Vec<_> = checks.iter().map(|c| probe.wrap(&c.program)).collect();
        let traced = round(
            &checks,
            &engine,
            &Sinks::Traced {
                probe: &probe,
                programs: &programs,
            },
        );
        let name = workload.name();
        assert_eq!(plain.logical(&checks), traced.logical(&checks), "{name}");
        assert_eq!(plain.engine_counts(), traced.engine_counts(), "{name}");
        assert_eq!(plain.errors + traced.errors, 0, "{name}");
        let sinks = probe.take_sinks();
        assert!(sinks.calls.iter().sum::<u64>() > 0, "{name}: no hook timed");
        assert!(
            traced.phases.iter().map(|p| p.calls).sum::<u64>() > 0,
            "{name}: no phase timed"
        );
        if workload == Workload::McSuite {
            // The timed sink forks, so the engine still resumes from
            // snapshots instead of falling back to full re-execution.
            assert!(sinks.fork_calls > 0);
            assert!(traced.reports.iter().any(|r| r.fork_stats().snapshots > 0));
        }
    }
}

/// `(end_to_end names, per_layer names)` from `BENCHMARK.json`.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let names = |section: &str| -> Vec<String> {
        let start = text.find(&format!("\"{section}\"")).expect(section);
        let body = &text[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name end")].to_owned())
            .collect()
    };
    (names("end_to_end"), names("per_layer"))
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn printed_metric_names_are_declared() {
    let (end_to_end, per_layer) = declared();
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = run(&tiny(workload, trace), Instant::now());
            assert!(outcome.correct(), "{}: {:?}", workload.name(), outcome);
            let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(&printed, want, "{} trace {trace}", workload.name());
            // Every report line but `#` comments and the final JSON names a
            // declared metric, and the JSON carries every one of them.
            let report = outcome.render("# header");
            let mut lines: Vec<&str> = report.lines().collect();
            let json = lines.pop().expect("result line");
            for line in lines.iter().filter(|l| !l.starts_with('#')) {
                let name = line.split_whitespace().next().expect("metric name");
                assert!(
                    want.iter().any(|w| w == name),
                    "undeclared metric line {line:?}"
                );
            }
            assert!(json.starts_with("{\"correct\": true, "), "{json}");
            for name in want {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} missing from {json}"
                );
            }
            for m in &outcome.metrics {
                assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
                assert!(unit_ok(m.unit), "bad unit {:?} of {}", m.unit, m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
    }
}

#[test]
fn wrong_ground_truth_counts_as_verdict_error() {
    let engine = EngineConfig::with_workers(nproc());
    let errors =
        |checks: &[yashbench::workload::Check]| round(checks, &engine, &Sinks::Detector).errors;
    for workload in Workload::ALL {
        let name = workload.name();
        let mut checks = workload.checks(3, true);
        assert_eq!(errors(&checks), 0, "{name}");
        let i = checks
            .iter()
            .position(|c| !c.expect.labels.is_empty())
            .expect("a racy program");
        let truth = checks[i].expect.clone();
        // A label the program does not report.
        checks[i].expect.labels.push("no.such.field");
        assert_eq!(errors(&checks), 1, "{name}: missing label");
        // A label the program reports but the truth does not list.
        checks[i].expect = truth.clone();
        checks[i].expect.labels.pop();
        assert_eq!(errors(&checks), 1, "{name}: unexpected label");
        // A panic that does not happen.
        checks[i].expect = truth;
        checks[i].expect.panics.push("never panics".into());
        assert_eq!(errors(&checks), 1, "{name}: missing panic");
    }
}

#[test]
fn kv_stream_verdict_holds_when_no_cas_race_shows() {
    // Seed 207's stream leaves no racing CAS store at the crash, so the
    // fourth Memcached label is missing; it is optional on kv-stream.
    let checks = Workload::KvStream.checks(207, false);
    let report = checks[0].run(&EngineConfig::with_workers(nproc()));
    assert!(!report.race_labels().contains(&"item.cas (items.c)"));
    assert!(checks[0].verdict_ok(&report));
}
