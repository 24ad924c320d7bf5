//! Measures checkpoint/fork crash-point exploration against full
//! re-execution on a crash-point-heavy workload, verifying the reports are
//! byte-identical, and writes the results to `BENCH_crashfork.json`.
//!
//! Full re-execution replays the whole pre-crash prefix once per crash
//! point, so total simulated events grow quadratically with the prefix
//! length; fork mode executes the prefix once and replays only each
//! post-crash suffix, so its event count grows linearly — a super-linear
//! win that widens with `--records`.
//!
//! Usage: `crashfork [--records N] [--smoke] [--workers N]
//! [--emit-reports DIR] [--out PATH]` plus the shared telemetry flags
//! (see `bench::cli`) — `--smoke` shrinks the workload for CI;
//! `--emit-reports DIR` additionally writes `fork.json` / `full.json`
//! (elapsed-free suite reports over the crashlog workload plus the
//! evaluation suite) so CI can `cmp` them byte for byte.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::workload::crashlog_workload;
use bench::{cli, evaluation_suite, SuiteMode, HARNESS_SEED};
use jaaru::obs::telemetry::Telemetry;
use jaaru::{EngineConfig, ExecMode, Program};
use yashme::json::{run_json, suite_json};
use yashme::{RunReport, YashmeConfig};

fn check(
    program: &Program,
    mode: ExecMode,
    engine: &EngineConfig,
    tel: &Arc<Telemetry>,
) -> (RunReport, Duration) {
    let start = Instant::now();
    let report = yashme::check_observed(program, mode, YashmeConfig::default(), engine, tel);
    (report, start.elapsed())
}

/// Simulated events this run physically executed: the logical event total
/// minus the prefix events resumed runs inherited from snapshots and minus
/// the suffix events attributed to skipped class members. Equals the
/// logical total when fork mode is off.
fn physical_events(report: &RunReport) -> u64 {
    report.stats().events()
        - report.fork_stats().prefix_events_skipped
        - report.prune_stats().events_attributed
}

/// Renders the elapsed-free suite document for one engine configuration:
/// the crashlog workload plus every evaluation-suite benchmark in its
/// paper mode. Byte-identical across fork modes and worker counts.
fn suite_reports(records: usize, smoke: bool, engine: &EngineConfig) -> String {
    let mut runs = Vec::new();
    let mut total_races = 0;
    let crashlog = crashlog_workload(records);
    let report = yashme::check_with(
        &crashlog,
        ExecMode::model_check(),
        YashmeConfig::default(),
        engine,
    );
    total_races += report.race_labels().len();
    runs.push(run_json("crashlog", &report, false));
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // The smoke suite trims random mode's execution budget; the
            // comparison only needs both configurations to agree.
            SuiteMode::Random(n) => ExecMode::random(if smoke { 5 } else { n }, HARNESS_SEED),
        };
        let program = (entry.program)();
        let report = yashme::check_with(&program, mode, YashmeConfig::default(), engine);
        total_races += report.race_labels().len();
        runs.push(run_json(entry.name, &report, false));
    }
    suite_json(runs, total_races).render()
}

fn main() {
    let c = cli::common_args();
    let mut records = 160usize;
    let mut smoke = false;
    let mut emit: Option<String> = None;
    let mut rest = c.rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--records" => records = rest.next().and_then(|v| v.parse().ok()).unwrap_or(records),
            "--smoke" => {
                smoke = true;
                records = 24;
            }
            "--emit-reports" => emit = rest.next().cloned(),
            _ => {}
        }
    }
    let workers = if c.workers_given { c.engine.workers } else { 1 };
    let out = c.out_or("BENCH_crashfork.json");
    let fork_cfg = EngineConfig::with_workers(workers);
    let full_cfg = EngineConfig::with_workers(workers).with_fork(false);
    let (tel, reporter) = c.telemetry.start("crashfork");

    let program = crashlog_workload(records);
    let (fork_report, fork_time) = check(&program, ExecMode::model_check(), &fork_cfg, &tel);
    let (full_report, full_time) = check(&program, ExecMode::model_check(), &full_cfg, &tel);
    drop(reporter);
    c.telemetry.finish(&tel);

    let identical = run_json("crashlog", &fork_report, false).render()
        == run_json("crashlog", &full_report, false).render();
    let fork_events = physical_events(&fork_report);
    let full_events = physical_events(&full_report);
    let f = fork_report.fork_stats();

    println!("Checkpoint/fork benchmark: {records} records, {workers} worker(s)");
    println!();
    println!(
        "  full : {} events in {full_time:.3?} ({} executions)",
        full_events,
        full_report.executions()
    );
    println!(
        "  fork : {} events in {fork_time:.3?} ({} snapshots, {} resumed, {} prefix events skipped)",
        fork_events, f.snapshots, f.resumed_runs, f.prefix_events_skipped
    );
    println!(
        "  event ratio {:.2}x, wall {:.2}x, reports identical: {identical}",
        full_events as f64 / fork_events.max(1) as f64,
        full_time.as_secs_f64() / fork_time.as_secs_f64().max(1e-9),
    );

    // serde is stubbed out in this offline build, so render the JSON by
    // hand; every field is a number or bool.
    let mut json = String::from("{\n");
    json.push_str(&cli::meta_header(
        "crashfork",
        "crashlog workload (fork vs full re-execution)",
        Some(&fork_cfg),
    ));
    let _ = writeln!(json, "  \"records\": {records},");
    let _ = writeln!(json, "  \"crash_points\": {},", full_report.crash_points());
    let _ = writeln!(json, "  \"executions\": {},", full_report.executions());
    let _ = writeln!(json, "  \"reports_identical\": {identical},");
    let _ = writeln!(json, "  \"full_events\": {full_events},");
    let _ = writeln!(json, "  \"fork_events\": {fork_events},");
    let _ = writeln!(
        json,
        "  \"event_ratio\": {:.3},",
        full_events as f64 / fork_events.max(1) as f64
    );
    let _ = writeln!(json, "  \"full_wall_s\": {:.6},", full_time.as_secs_f64());
    let _ = writeln!(json, "  \"fork_wall_s\": {:.6},", fork_time.as_secs_f64());
    let _ = writeln!(
        json,
        "  \"wall_speedup\": {:.3},",
        full_time.as_secs_f64() / fork_time.as_secs_f64().max(1e-9)
    );
    let _ = writeln!(json, "  \"snapshots\": {},", f.snapshots);
    let _ = writeln!(json, "  \"resumed_runs\": {},", f.resumed_runs);
    let _ = writeln!(json, "  \"cow_clones\": {},", f.cow_clones);
    let _ = writeln!(json, "  \"cow_bytes\": {},", f.cow_bytes);
    let _ = writeln!(
        json,
        "  \"prefix_events_skipped\": {},",
        f.prefix_events_skipped
    );
    let _ = writeln!(json, "  \"suffix_events\": {}", f.suffix_events);
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write benchmark json");
    println!("wrote {out}");

    if let Some(dir) = emit {
        std::fs::create_dir_all(&dir).expect("create report dir");
        for (engine, file) in [(&fork_cfg, "fork.json"), (&full_cfg, "full.json")] {
            let path = format!("{dir}/{file}");
            std::fs::write(&path, suite_reports(records, smoke, engine)).expect("write reports");
            println!("wrote {path}");
        }
    }
    if !identical {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fork_executes_strictly_fewer_events_with_identical_report() {
        let program = crashlog_workload(32);
        let tel = Arc::clone(Telemetry::off());
        let (fork_report, _) = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential(),
            &tel,
        );
        let (full_report, _) = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential().with_fork(false),
            &tel,
        );
        assert_eq!(
            run_json("crashlog", &fork_report, false).render(),
            run_json("crashlog", &full_report, false).render(),
            "fork and full reports must be byte-identical"
        );
        assert!(fork_report.fork_stats().snapshots > 0, "fork mode engaged");
        assert!(
            physical_events(&fork_report) < physical_events(&full_report),
            "fork {} events vs full {}",
            physical_events(&fork_report),
            physical_events(&full_report)
        );
    }

    #[test]
    #[ignore = "wall-clock comparison; run explicitly with -- --ignored on an idle host"]
    fn fork_is_faster_in_wall_clock() {
        let program = crashlog_workload(192);
        let tel = Arc::clone(Telemetry::off());
        let (_, fork_time) = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential(),
            &tel,
        );
        let (_, full_time) = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential().with_fork(false),
            &tel,
        );
        assert!(
            fork_time < full_time,
            "fork {fork_time:?} should beat full {full_time:?}"
        );
    }
}
