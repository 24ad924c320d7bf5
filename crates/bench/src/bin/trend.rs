//! Perf-regression gate: compares a fresh soak/memperf/parallel/vclock
//! run against the checked-in `BENCH_*.json` baselines and flags drops
//! outside generous thresholds. Two absolute floors ride along with the
//! baseline-relative checks: no benchmark in `BENCH_parallel.json` may
//! fall below 0.95x of its own sequential run (the fan-out's parity
//! guarantee for small benchmarks), and
//! `BENCH_vclock.json` must keep small-clock clone/join at 1.5x the
//! legacy layout (the representation overhaul's reason to exist). Also hosts the coverage gate: a fresh table3
//! `COVERAGE_baseline.json` is compared against the checked-in one, and
//! the gate flags coverage *shrinking* (fewer sites, lower attribution,
//! fewer persisted lines touched) or race exposure *growing* (more raced
//! or unexercised sites). Coverage numbers are deterministic — measured
//! on the virtual clock, byte-identical across workers × fork/prune/GC —
//! so unlike the wall-clock checks these comparisons are exact.
//!
//! Wall-clock numbers move with the host, so the gate is deliberately
//! loose: throughput may fall to a third of the baseline before it
//! complains. Only the *logical* invariants (`bounded`,
//! `reports_identical`, `overlap_identical`, `outcomes_identical`) are hard
//! requirements: a violated or missing invariant always exits nonzero,
//! because no amount of host noise makes a report diverge. Every other
//! failure is a warning and leaves the exit code at 0 so a noisy CI runner
//! can't block a merge; `--strict` turns those into a nonzero exit too.
//!
//! Usage: `trend [--baseline DIR] [--current DIR] [--strict] [--out PATH]`
//! — `--baseline` defaults to the repository checkout (`.`), `--current`
//! to the directory where CI just wrote fresh `BENCH_soak.json` /
//! `BENCH_memperf.json` files. Missing files skip their checks with a
//! warning. Writes a `BENCH_trend.json` summary to `--out`.

use std::fmt::Write as _;

use bench::cli;

/// Throughput may drop to this fraction of the baseline before the gate
/// complains — generous on purpose; see the module docs.
const MIN_THROUGHPUT_RATIO: f64 = 0.33;

/// Pulls the numeric value following `"key":` out of a hand-rendered
/// `BENCH_*.json` document. The documents are flat enough (no repeated
/// keys, numbers and bools only) that a string split is reliable and
/// keeps the gate free of a JSON-parser dependency.
fn field_f64(text: &str, key: &str) -> Option<f64> {
    let tail = text.split(&format!("\"{key}\":")).nth(1)?;
    tail.split([',', '}', '\n']).next()?.trim().parse().ok()
}

fn field_bool(text: &str, key: &str) -> Option<bool> {
    let tail = text.split(&format!("\"{key}\":")).nth(1)?;
    match tail.split([',', '}', '\n']).next()?.trim() {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// One comparison the gate ran, for the report and the JSON summary.
struct Check {
    name: String,
    baseline: Option<f64>,
    current: Option<f64>,
    pass: bool,
    /// A failure fails the gate even without `--strict`.
    fatal: bool,
    detail: String,
}

impl Check {
    fn json(&self) -> String {
        let opt = |v: Option<f64>| v.map_or_else(|| "null".to_owned(), |v| format!("{v:.3}"));
        format!(
            "{{\"name\": \"{}\", \"baseline\": {}, \"current\": {}, \"pass\": {}, \"detail\": \"{}\"}}",
            self.name,
            opt(self.baseline),
            opt(self.current),
            self.pass,
            self.detail,
        )
    }
}

/// A `true`-valued flag the current run must reproduce.
fn invariant(checks: &mut Vec<Check>, text: &str, file: &str, key: &str) {
    let value = field_bool(text, key);
    checks.push(Check {
        name: format!("{file}:{key}"),
        baseline: None,
        current: value.map(f64::from),
        pass: value == Some(true),
        fatal: true,
        detail: match value {
            Some(true) => "holds".to_owned(),
            Some(false) => "violated".to_owned(),
            None => "missing field".to_owned(),
        },
    });
}

/// A throughput field that may not fall below [`MIN_THROUGHPUT_RATIO`]
/// times the baseline.
fn throughput(checks: &mut Vec<Check>, baseline: &str, current: &str, file: &str, key: &str) {
    let b = field_f64(baseline, key);
    let c = field_f64(current, key);
    let (pass, detail) = match (b, c) {
        (Some(b), Some(c)) if b > 0.0 => {
            let ratio = c / b;
            (
                ratio >= MIN_THROUGHPUT_RATIO,
                format!("ratio {ratio:.2} (floor {MIN_THROUGHPUT_RATIO})"),
            )
        }
        _ => (false, "missing field".to_owned()),
    };
    checks.push(Check {
        name: format!("{file}:{key}"),
        baseline: b,
        current: c,
        pass,
        fatal: false,
        detail,
    });
}

/// A deterministic coverage counter the fresh run must keep at or above
/// the checked-in baseline (sites, attribution, lines touched: coverage
/// may grow, never silently shrink).
fn floor(checks: &mut Vec<Check>, baseline: &str, current: &str, file: &str, key: &str) {
    bound(checks, baseline, current, file, key, true);
}

/// A deterministic coverage counter the fresh run must keep at or below
/// the baseline (raced / unexercised sites: exposure may shrink, never
/// silently grow).
fn ceiling(checks: &mut Vec<Check>, baseline: &str, current: &str, file: &str, key: &str) {
    bound(checks, baseline, current, file, key, false);
}

fn bound(
    checks: &mut Vec<Check>,
    baseline: &str,
    current: &str,
    file: &str,
    key: &str,
    at_least: bool,
) {
    let b = field_f64(baseline, key);
    let c = field_f64(current, key);
    let (pass, detail) = match (b, c) {
        (Some(b), Some(c)) => {
            let pass = if at_least { c >= b } else { c <= b };
            let dir = if at_least { "floor" } else { "ceiling" };
            (
                pass,
                if pass {
                    format!("within {dir} {b:.0}")
                } else {
                    format!("crossed {dir} {b:.0} — refresh the baseline if intended")
                },
            )
        }
        _ => (false, "missing field".to_owned()),
    };
    checks.push(Check {
        name: format!("{file}:{key}"),
        baseline: b,
        current: c,
        pass,
        fatal: false,
        detail,
    });
}

/// An absolute floor on a field of the *current* document — used for the
/// ratios the benchmarks themselves compute (per-benchmark speedup,
/// new/legacy throughput), which are already normalized against a
/// same-run baseline and so carry a hard threshold instead of a
/// baseline-relative one.
fn abs_floor(checks: &mut Vec<Check>, current: &str, file: &str, key: &str, floor: f64) {
    let c = field_f64(current, key);
    let (pass, detail) = match c {
        Some(c) => (
            c >= floor,
            if c >= floor {
                format!("at or above floor {floor}")
            } else {
                format!("below floor {floor}")
            },
        ),
        None => (false, "missing field".to_owned()),
    };
    checks.push(Check {
        name: format!("{file}:{key}"),
        baseline: Some(floor),
        current: c,
        pass,
        fatal: false,
        detail,
    });
}

/// Both documents must carry the same schema version; a mismatch means
/// the comparison itself is meaningless, so it fails the gate.
fn schema(checks: &mut Vec<Check>, baseline: &str, current: &str, file: &str) {
    let b = field_f64(baseline, "schema_version");
    let c = field_f64(current, "schema_version");
    checks.push(Check {
        name: format!("{file}:schema_version"),
        baseline: b,
        current: c,
        // A baseline predating the schema field (None) is tolerated; a
        // mismatch between two stamped documents is not.
        pass: b.is_none() || b == c,
        fatal: false,
        detail: if b.is_none() || b == c {
            "compatible".to_owned()
        } else {
            "mismatch".to_owned()
        },
    });
}

/// Whether the gate exits nonzero: on any failed invariant, and on any
/// failed check at all under `--strict`.
fn gate_fails(checks: &[Check], strict: bool) -> bool {
    checks.iter().any(|c| !c.pass && (c.fatal || strict))
}

fn main() {
    let c = cli::common_args();
    let mut baseline_dir = String::from(".");
    let mut current_dir = String::from(".");
    let strict = c.has_flag("--strict");
    let out = c.out_or("BENCH_trend.json");
    let mut rest = c.rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--baseline" => baseline_dir = rest.next().cloned().unwrap_or(baseline_dir),
            "--current" => current_dir = rest.next().cloned().unwrap_or(current_dir),
            _ => {}
        }
    }

    println!("Perf trend gate: baseline {baseline_dir}, current {current_dir}");
    println!();
    let mut checks: Vec<Check> = Vec::new();
    let mut skipped: Vec<&str> = Vec::new();
    for file in [
        "BENCH_soak.json",
        "BENCH_memperf.json",
        "BENCH_parallel.json",
        "BENCH_vclock.json",
        "COVERAGE_baseline.json",
    ] {
        let baseline = std::fs::read_to_string(format!("{baseline_dir}/{file}"));
        let current = std::fs::read_to_string(format!("{current_dir}/{file}"));
        let (Ok(baseline), Ok(current)) = (baseline, current) else {
            eprintln!("trend: skipping {file} (missing on one side)");
            skipped.push(file);
            continue;
        };
        schema(&mut checks, &baseline, &current, file);
        match file {
            "BENCH_soak.json" => {
                invariant(&mut checks, &current, file, "bounded");
                invariant(&mut checks, &current, file, "reports_identical");
                throughput(
                    &mut checks,
                    &baseline,
                    &current,
                    file,
                    "sustained_events_per_s",
                );
            }
            "BENCH_parallel.json" => {
                invariant(&mut checks, &current, file, "reports_identical");
                invariant(&mut checks, &current, file, "overlap_identical");
                abs_floor(&mut checks, &current, file, "min_benchmark_speedup", 0.95);
            }
            "BENCH_vclock.json" => {
                invariant(&mut checks, &current, file, "outcomes_identical");
                abs_floor(&mut checks, &current, file, "min_small_ratio", 1.5);
            }
            "COVERAGE_baseline.json" => {
                // The aggregate summary leads the document, so the first
                // occurrence of each key is the suite-wide total.
                floor(&mut checks, &baseline, &current, file, "sites");
                ceiling(&mut checks, &baseline, &current, file, "raced_sites");
                ceiling(&mut checks, &baseline, &current, file, "unexercised_sites");
                floor(
                    &mut checks,
                    &baseline,
                    &current,
                    file,
                    "attributed_permille",
                );
                floor(&mut checks, &baseline, &current, file, "lines_touched");
            }
            _ => {
                invariant(&mut checks, &current, file, "outcomes_identical");
                throughput(
                    &mut checks,
                    &baseline,
                    &current,
                    file,
                    "optimized_events_per_s",
                );
            }
        }
    }

    let mut failures = 0usize;
    for check in &checks {
        let status = if check.pass { "ok  " } else { "FAIL" };
        let shown = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |v| format!("{v:.0}"));
        println!(
            "  {status} {:<44} baseline {:>12} current {:>12}  {}",
            check.name,
            shown(check.baseline),
            shown(check.current),
            check.detail
        );
        failures += usize::from(!check.pass);
    }
    println!();
    let fails = gate_fails(&checks, strict);
    let verdict = if failures == 0 {
        "no regressions"
    } else if fails {
        "regressions (failing)"
    } else {
        "regressions (warn-only; pass --strict to fail the build)"
    };
    println!(
        "trend: {} check(s), {failures} failure(s) — {verdict}",
        checks.len()
    );

    let mut json = String::from("{\n");
    json.push_str(&cli::meta_header(
        "trend",
        "perf-regression gate over soak/memperf/parallel/vclock baselines, coverage gate over table3",
        None,
    ));
    let _ = writeln!(json, "  \"strict\": {strict},");
    let _ = writeln!(json, "  \"failures\": {failures},");
    let _ = writeln!(json, "  \"skipped\": {},", skipped.len());
    let _ = writeln!(json, "  \"checks\": [");
    for (i, check) in checks.iter().enumerate() {
        let comma = if i + 1 < checks.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", check.json());
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write trend json");
    println!("wrote {out}");
    if fails {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "{\n  \"schema_version\": 1,\n  \"bounded\": true,\n  \"sustained_events_per_s\": 250000,\n}\n";

    #[test]
    fn extractors_read_hand_rendered_documents() {
        assert_eq!(field_f64(DOC, "schema_version"), Some(1.0));
        assert_eq!(field_f64(DOC, "sustained_events_per_s"), Some(250000.0));
        assert_eq!(field_bool(DOC, "bounded"), Some(true));
        assert_eq!(field_f64(DOC, "missing"), None);
        // No space after the colon, as `yashme --json` renders it.
        assert_eq!(field_f64("{\"x\":7}", "x"), Some(7.0));
    }

    #[test]
    fn throughput_floor_is_generous() {
        let mut checks = Vec::new();
        let base = "{\"sustained_events_per_s\": 300000,}";
        let ok = "{\"sustained_events_per_s\": 100000,}";
        let bad = "{\"sustained_events_per_s\": 90000,}";
        throughput(&mut checks, base, ok, "f", "sustained_events_per_s");
        throughput(&mut checks, base, bad, "f", "sustained_events_per_s");
        assert!(checks[0].pass, "{}", checks[0].detail);
        assert!(!checks[1].pass, "{}", checks[1].detail);
    }

    #[test]
    fn coverage_bounds_are_directional_and_exact() {
        let base = "{\"sites\":18,\"raced_sites\":3,\"attributed_permille\":1000}";
        let same = base;
        let grew = "{\"sites\":21,\"raced_sites\":2,\"attributed_permille\":1000}";
        let shrank = "{\"sites\":17,\"raced_sites\":4,\"attributed_permille\":999}";
        let mut checks = Vec::new();
        for current in [same, grew, shrank] {
            floor(&mut checks, base, current, "f", "sites");
            ceiling(&mut checks, base, current, "f", "raced_sites");
            floor(&mut checks, base, current, "f", "attributed_permille");
        }
        assert!(checks[..6].iter().all(|c| c.pass), "same/grew must pass");
        assert!(checks[6..].iter().all(|c| !c.pass), "shrank must fail");
        floor(&mut checks, base, "{}", "f", "sites");
        assert!(!checks.last().unwrap().pass, "missing field fails");
    }

    #[test]
    fn absolute_floors_gate_the_current_document_only() {
        let mut checks = Vec::new();
        abs_floor(
            &mut checks,
            "{\"min_benchmark_speedup\": 0.993,}",
            "f",
            "min_benchmark_speedup",
            0.95,
        );
        abs_floor(
            &mut checks,
            "{\"min_benchmark_speedup\": 0.874,}",
            "f",
            "min_benchmark_speedup",
            0.95,
        );
        abs_floor(&mut checks, "{}", "f", "min_small_ratio", 1.5);
        assert!(checks[0].pass, "{}", checks[0].detail);
        assert!(!checks[1].pass, "{}", checks[1].detail);
        assert!(!checks[2].pass, "missing field fails");
        assert_eq!(checks[0].baseline, Some(0.95), "floor shown as baseline");
    }

    #[test]
    fn only_invariants_fail_the_gate_without_strict() {
        let mut checks = Vec::new();
        throughput(&mut checks, "{\"x\": 300,}", "{\"x\": 10,}", "f", "x");
        assert!(!checks[0].pass);
        assert!(!gate_fails(&checks, false), "throughput is warn-only");
        assert!(gate_fails(&checks, true), "--strict fails on anything");
        invariant(
            &mut checks,
            "{\"reports_identical\": true,}",
            "f",
            "reports_identical",
        );
        assert!(!gate_fails(&checks, false), "a holding invariant passes");
        for doc in ["{\"overlap_identical\": false,}", "{}"] {
            let mut broken = Vec::new();
            invariant(&mut broken, doc, "f", "overlap_identical");
            assert!(gate_fails(&broken, false), "violated or missing: {doc}");
        }
    }

    #[test]
    fn schema_mismatch_fails_but_missing_baseline_version_passes() {
        let mut checks = Vec::new();
        schema(
            &mut checks,
            "{\"schema_version\": 1,}",
            "{\"schema_version\": 1,}",
            "f",
        );
        schema(
            &mut checks,
            "{\"schema_version\": 1,}",
            "{\"schema_version\": 2,}",
            "f",
        );
        schema(&mut checks, "{}", "{\"schema_version\": 1,}", "f");
        assert!(checks[0].pass);
        assert!(!checks[1].pass);
        assert!(checks[2].pass, "legacy baseline tolerated");
    }
}
