//! Measures crash-state equivalence pruning against full re-execution on
//! a redundancy-heavy workload, verifying the two reports are
//! byte-identical, and writes the results to `BENCH_crashprune.json`.
//!
//! Crash points separated only by effect-free events (here: redundant
//! re-flush "scrub" passes over already-persisted lines) share one
//! crash-state fingerprint, so fork mode resumes one representative
//! suffix per equivalence class and attributes its outcome to the rest.
//! On a workload with `scrub` redundant passes per record that is a
//! `(1 + scrub)`-fold cut in resumed suffix runs against one run per crash
//! point.
//!
//! Usage: `crashprune [--records N[,N...]] [--scrub N] [--smoke]
//! [--workers N] [--emit-reports DIR] [--out PATH]` plus the shared
//! telemetry flags (see `bench::cli`) — `--smoke` shrinks the sweep for
//! CI; `--emit-reports DIR` additionally writes `pruned.json` /
//! `exhaustive.json` (elapsed-free suite reports over the crashprune
//! workload plus the evaluation suite) so CI can `cmp` them byte for
//! byte.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::workload::crashprune_workload;
use bench::{cli, evaluation_suite, SuiteMode, HARNESS_SEED};
use jaaru::obs::telemetry::Telemetry;
use jaaru::{EngineConfig, ExecMode, Program};
use yashme::json::{run_json, suite_json};
use yashme::{RunReport, YashmeConfig};

fn check(program: &Program, engine: &EngineConfig, tel: &Arc<Telemetry>) -> (RunReport, Duration) {
    let start = Instant::now();
    let report = yashme::check_observed(
        program,
        ExecMode::model_check(),
        YashmeConfig::default(),
        engine,
        tel,
    );
    (report, start.elapsed())
}

/// Simulated events this run physically executed: the logical event total
/// minus prefix events inherited from snapshots and minus suffix events
/// attributed to skipped class members rather than executed. Equals the
/// logical total when both fork mode and pruning are off.
fn physical_events(report: &RunReport) -> u64 {
    report.stats().events()
        - report.fork_stats().prefix_events_skipped
        - report.prune_stats().events_attributed
}

/// One measured configuration at one sweep size.
struct Row {
    config: &'static str,
    records: usize,
    report: RunReport,
    wall: Duration,
}

impl Row {
    fn resumed(&self) -> u64 {
        self.report.fork_stats().resumed_runs - self.report.prune_stats().suffixes_skipped
    }

    fn json(&self) -> String {
        let p = self.report.prune_stats();
        format!(
            "{{\"config\": \"{}\", \"records\": {}, \"crash_points\": {}, \
             \"classes\": {}, \"representatives\": {}, \"resumed_suffixes\": {}, \
             \"suffixes_skipped\": {}, \"events_attributed\": {}, \
             \"physical_events\": {}, \"wall_s\": {:.6}}}",
            self.config,
            self.records,
            self.report.crash_points(),
            p.classes,
            p.representatives,
            self.resumed(),
            p.suffixes_skipped,
            p.events_attributed,
            physical_events(&self.report),
            self.wall.as_secs_f64(),
        )
    }
}

/// Renders the elapsed-free suite document for one engine configuration:
/// the crashprune workload plus every evaluation-suite benchmark in its
/// paper mode. Byte-identical across fork modes and worker counts.
fn suite_reports(records: usize, scrub: usize, smoke: bool, engine: &EngineConfig) -> String {
    let mut runs = Vec::new();
    let mut total_races = 0;
    let workload = crashprune_workload(records, scrub);
    let report = yashme::check_with(
        &workload,
        ExecMode::model_check(),
        YashmeConfig::default(),
        engine,
    );
    total_races += report.race_labels().len();
    runs.push(run_json("crashprune", &report, false));
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
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
    let mut sweep = vec![40usize, 80, 160];
    let mut scrub = 5usize;
    let mut smoke = false;
    let mut emit: Option<String> = None;
    let mut rest = c.rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--records" => {
                if let Some(v) = rest.next() {
                    let parsed: Vec<usize> = v.split(',').filter_map(|n| n.parse().ok()).collect();
                    if !parsed.is_empty() {
                        sweep = parsed;
                    }
                }
            }
            "--scrub" => scrub = rest.next().and_then(|v| v.parse().ok()).unwrap_or(scrub),
            "--smoke" => {
                smoke = true;
                sweep = vec![12, 24];
            }
            "--emit-reports" => emit = rest.next().cloned(),
            _ => {}
        }
    }
    let workers = if c.workers_given { c.engine.workers } else { 1 };
    let out = c.out_or("BENCH_crashprune.json");
    let pruned_cfg = EngineConfig::with_workers(workers);
    let nofork_cfg = EngineConfig::with_workers(workers).with_fork(false);
    let (tel, reporter) = c.telemetry.start("crashprune");

    println!(
        "Equivalence-pruning benchmark: records {:?}, {scrub} scrub round(s), {workers} worker(s)",
        sweep
    );
    println!();
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>10} {:>12} {:>10}",
        "records", "config", "points", "classes", "resumed", "events", "wall"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut identical = true;
    for &records in &sweep {
        let program = crashprune_workload(records, scrub);
        let mut rendered: Option<String> = None;
        for (config, name) in [(&pruned_cfg, "prune"), (&nofork_cfg, "no-fork")] {
            let (report, wall) = check(&program, config, &tel);
            let json = run_json("crashprune", &report, false).render();
            match &rendered {
                Some(first) => identical &= *first == json,
                None => rendered = Some(json),
            }
            let row = Row {
                config: name,
                records,
                report,
                wall,
            };
            println!(
                "{:>8} {:>10} {:>8} {:>8} {:>10} {:>12} {:>9.3?}",
                row.records,
                row.config,
                row.report.crash_points(),
                row.report.prune_stats().classes,
                row.resumed(),
                physical_events(&row.report),
                row.wall,
            );
            rows.push(row);
        }
    }
    drop(reporter);
    c.telemetry.finish(&tel);
    // The headline ratio at the largest sweep size: crash points (one run
    // each without pruning) per resumed representative.
    let last = *sweep.last().expect("non-empty sweep");
    let pruned = rows
        .iter()
        .find(|r| r.records == last && r.config == "prune")
        .expect("pruned row at the largest size");
    let crash_points = pruned.report.crash_points();
    let representatives = pruned.report.prune_stats().representatives;
    let resumed_ratio = crash_points as f64 / representatives.max(1) as f64;
    println!();
    println!(
        "  {last} records: {crash_points} crash points vs {representatives} \
         representatives resumed ({resumed_ratio:.2}x fewer), reports identical: {identical}"
    );

    // serde is stubbed out in this offline build, so render the JSON by
    // hand; every field is a number, bool, or fixed string.
    let mut json = String::from("{\n");
    json.push_str(&cli::meta_header(
        "crashprune",
        "crashprune workload sweep (prune vs no-fork)",
        Some(&pruned_cfg),
    ));
    let _ = writeln!(json, "  \"scrub_rounds\": {scrub},");
    let _ = writeln!(json, "  \"reports_identical\": {identical},");
    let _ = writeln!(json, "  \"records\": {last},");
    let _ = writeln!(json, "  \"crash_points\": {crash_points},");
    let _ = writeln!(json, "  \"representatives\": {representatives},");
    let _ = writeln!(json, "  \"resumed_ratio\": {resumed_ratio:.3},");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", row.json());
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write benchmark json");
    println!("wrote {out}");

    if let Some(dir) = emit {
        std::fs::create_dir_all(&dir).expect("create report dir");
        for (engine, file) in [
            (&pruned_cfg, "pruned.json"),
            (&nofork_cfg, "exhaustive.json"),
        ] {
            let path = format!("{dir}/{file}");
            std::fs::write(&path, suite_reports(last, scrub, smoke, engine))
                .expect("write reports");
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
    fn pruning_resumes_strictly_fewer_suffixes_with_identical_report() {
        let program = crashprune_workload(16, 4);
        let tel = Arc::clone(Telemetry::off());
        let (pruned, _) = check(&program, &EngineConfig::sequential(), &tel);
        let (full, _) = check(&program, &EngineConfig::sequential().with_fork(false), &tel);
        assert_eq!(
            run_json("crashprune", &pruned, false).render(),
            run_json("crashprune", &full, false).render(),
            "pruned and full reports must be byte-identical"
        );
        let representatives = pruned.prune_stats().representatives;
        let crash_points = pruned.crash_points() as u64;
        assert!(pruned.prune_stats().suffixes_skipped > 0, "pruning engaged");
        assert!(
            representatives * 4 <= crash_points,
            "{representatives} representatives resumed vs {crash_points} crash points"
        );
        assert!(
            physical_events(&pruned) < physical_events(&full),
            "pruned {} events vs full {}",
            physical_events(&pruned),
            physical_events(&full)
        );
    }
}
