//! One benchmark invocation: set-up, timed rounds, verdict and determinism
//! gates, and the metrics they yield.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jaaru::{EngineConfig, ExecStats, NullSink, Program, RunReport};

use crate::probe::{PhaseTally, Probe, HOOKS};
use crate::replay;
use crate::stats::{median, quantile};
use crate::sys::{peak_rss_kib, reset_peak_rss, Usage};
use crate::workload::{detector, Check, Workload};

/// Set-ups per untraced invocation; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed the workload's inputs are drawn from.
    pub seed: u64,
    /// Measuring time; at least one round runs whatever its value.
    pub seconds: f64,
    /// Per-layer trace run instead of the end-to-end run.
    pub trace: bool,
    /// Shrunk kv-stream, for the benchmark's own tests.
    pub tiny: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
    /// Sample count, or what the metric is expected to move.
    pub note: String,
}

/// Everything an invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Program checks whose verdict was compared with the ground truth.
    pub attempted: u64,
    /// Checks whose verdict differed from it (`verdict_errors`).
    pub failed: u64,
    /// Failed determinism gates, one line each.
    pub gate_errors: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Traced runs: each program's median `Engine::run_with` wall in ms.
    /// Printed as a table, not as metrics: a program belongs to one
    /// workload, and every workload reports the same metric names.
    pub programs: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Whether every verdict matched and every gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_errors.is_empty()
    }

    /// Share of checks with a wrong verdict.
    pub fn verdict_errors(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The report: `header`, one line per metric (name, value, unit,
    /// note), `#` lines for the verdicts, the per-program rows and any
    /// failed gate, and last the result as one JSON object.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>18.6} {:<12} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let _ = writeln!(
            out,
            "# verdict_errors {} ({} of {} checks)",
            self.verdict_errors(),
            self.failed,
            self.attempted
        );
        for (program, ms) in &self.programs {
            let _ = writeln!(
                out,
                "# run_ms {program:<26} {ms:>12.6} ms  median Engine::run_with wall"
            );
        }
        for gate in &self.gate_errors {
            let _ = writeln!(out, "# GATE FAILED: {gate}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not a finite number", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    fn tally(&mut self, round: &Round) {
        self.attempted += round.reports.len() as u64;
        self.failed += round.errors;
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let line = what();
            if !self.gate_errors.contains(&line) {
                self.gate_errors.push(line);
            }
        }
    }
}

/// Which sinks a round's engine runs use.
pub enum Sinks<'a> {
    /// A fresh Yashme detector per execution.
    Detector,
    /// `NullSink`: plain Jaaru, the Table 5 baseline. Verdicts unchecked.
    Null,
    /// Timed detectors over phase-wrapped copies of the programs.
    Traced {
        /// Collector of spans and counts.
        probe: &'a Arc<Probe>,
        /// `probe.wrap` of each check's program, in check order.
        programs: &'a [Program],
    },
}

/// One pass over a workload's checks.
pub struct Round {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Each check's report, in check order.
    pub reports: Vec<RunReport>,
    /// Each check's `Engine::run_with` wall time.
    pub run_walls: Vec<Duration>,
    /// Each check's phase totals (traced rounds only).
    pub phases: Vec<PhaseTally>,
    /// Checks whose verdict missed the ground truth.
    pub errors: u64,
}

impl Round {
    /// Simulated events over the pass (`ExecStats::events`).
    pub fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.stats().events()).sum()
    }

    /// Executions over the pass.
    pub fn executions(&self) -> u64 {
        self.reports.iter().map(|r| r.executions() as u64).sum()
    }

    /// Each check's elapsed-free logical report, as `yashme --json` renders it.
    pub fn logical(&self, checks: &[Check]) -> Vec<String> {
        checks
            .iter()
            .zip(&self.reports)
            .map(|(c, r)| yashme::json::run_json(c.name, r, false).render())
            .collect()
    }

    /// Each check's exploration counts, COW traffic excepted (which side of
    /// a shared slab clones first depends on thread timing).
    pub fn engine_counts(&self) -> Vec<[u64; 10]> {
        self.reports
            .iter()
            .map(|r| {
                let (f, p) = (r.fork_stats(), r.prune_stats());
                [
                    r.executions() as u64,
                    r.crash_points() as u64,
                    f.snapshots,
                    f.resumed_runs,
                    f.suffix_events,
                    f.prefix_events_skipped,
                    p.classes,
                    p.representatives,
                    p.suffixes_skipped,
                    p.events_attributed,
                ]
            })
            .collect()
    }
}

/// Runs every check once under `engine` with `sinks`.
pub fn round(checks: &[Check], engine: &EngineConfig, sinks: &Sinks<'_>) -> Round {
    let start = Instant::now();
    let mut out = Round {
        wall: Duration::ZERO,
        reports: Vec::with_capacity(checks.len()),
        run_walls: Vec::with_capacity(checks.len()),
        phases: Vec::new(),
        errors: 0,
    };
    for (i, check) in checks.iter().enumerate() {
        let t = Instant::now();
        let report = match sinks {
            Sinks::Detector => check.run(engine),
            Sinks::Null => check.run_with(&check.program, &|| Box::new(NullSink), engine),
            Sinks::Traced { probe, programs } => {
                check.run_with(&programs[i], &|| probe.sink(detector()), engine)
            }
        };
        out.run_walls.push(t.elapsed());
        if let Sinks::Traced { probe, .. } = sinks {
            out.phases.push(probe.take_phases());
        }
        if !matches!(sinks, Sinks::Null) && !check.verdict_ok(&report) {
            out.errors += 1;
        }
        out.reports.push(report);
    }
    out.wall = start.elapsed();
    out
}

/// The worker count every workload runs at: one per available CPU.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one invocation. `process_start` is when the process started, the
/// origin of the first set-up's time.
pub fn run(opts: &Options, process_start: Instant) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        end_to_end(opts, process_start)
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end run: tracing off.
fn end_to_end(opts: &Options, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let engine = EngineConfig::with_workers(nproc());
    let mut setups = Vec::with_capacity(SETUPS);
    let mut checks = Vec::new();
    for k in 0..SETUPS {
        let start = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        checks = opts.workload.checks(opts.seed, opts.tiny);
        let warm = round(&checks, &engine, &Sinks::Detector);
        out.tally(&warm);
        setups.push(secs(start.elapsed()));
    }

    let before = Usage::now();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut walls = Vec::new();
    let mut peaks = Vec::new();
    let mut events = 0u64;
    let last = loop {
        reset_peak_rss();
        let r = round(&checks, &engine, &Sinks::Detector);
        peaks.push(peak_rss_kib() as f64 / 1024.0);
        out.tally(&r);
        walls.push(secs(r.wall));
        events += r.events();
        if Instant::now() >= deadline {
            break r;
        }
    };
    let usage = Usage::now().since(&before);

    let sequential = round(&checks, &EngineConfig::with_workers(1), &Sinks::Detector);
    out.tally(&sequential);
    out.gate(sequential.logical(&checks) == last.logical(&checks), || {
        format!(
            "logical report at workers 1 differs from workers {}",
            nproc()
        )
    });

    let n = walls.len();
    let total: f64 = walls.iter().sum();
    out.push(
        "setup_s",
        median(&setups),
        "s",
        format!("median of {SETUPS} set-ups"),
    );
    out.push("round_s.p50", median(&walls), "s", format!("{n} rounds"));
    out.push(
        "round_s.p90",
        quantile(&walls, 0.9),
        "s",
        format!("{n} rounds"),
    );
    out.push(
        "events_per_s",
        ratio(events as f64, total),
        "1/s",
        format!("{events} events in {total:.3} s"),
    );
    out.push(
        "cpu_s_per_round",
        secs(usage.cpu()) / n as f64,
        "s",
        format!("{n} rounds"),
    );
    out.push(
        "peak_rss_mb",
        median(&peaks),
        "MB",
        format!(
            "median of {n} per-round peaks (max {:.3})",
            quantile(&peaks, 1.0)
        ),
    );
    out
}

/// What a per-layer metric is expected to move, keyed by name prefix.
fn moves(name: &str) -> &'static str {
    const MOVES: &[(&str, &str)] = &[
        ("engine.", "round_s.p50, events_per_s on mc-suite; none on random-suite, kv-stream"),
        ("pool.", "round_s.p50 on mc-suite, random-suite; none on kv-stream"),
        ("phase.", "round_s.p50, cpu_s_per_round on random-suite; events_per_s on kv-stream"),
        ("sched.", "cpu_s_per_round, round_s.p50 on random-suite; events_per_s on kv-stream; less on mc-suite"),
        ("detector.fork_", "round_s.p50 on mc-suite"),
        ("detector.overhead_ratio", "round_s.p50 on every workload (Table 5)"),
        ("detector.", "events_per_s on kv-stream, random-suite"),
        ("mem.", "events_per_s on kv-stream, then random-suite"),
        ("gc.", "peak_rss_mb on kv-stream"),
        ("vclock.", "events_per_s on kv-stream, random-suite"),
        ("trace_overhead", "none: cost of this trace"),
    ];
    MOVES
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("", |&(_, m)| m)
}

/// The traced run: per-layer metrics, with the gates that it measured the
/// same program as the untraced run.
fn traced(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let workers = nproc();
    let engine = EngineConfig::with_workers(workers);
    let sequential = EngineConfig::with_workers(1);
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();

    let checks = opts.workload.checks(opts.seed, opts.tiny);
    let reference = round(&checks, &engine, &Sinks::Detector);
    out.tally(&reference);
    let ref_logical = reference.logical(&checks);
    let ref_counts = reference.engine_counts();

    let probe = Probe::new();
    let programs: Vec<Program> = checks.iter().map(|c| probe.wrap(&c.program)).collect();
    let traced_sinks = Sinks::Traced {
        probe: &probe,
        programs: &programs,
    };

    // Interleave the four kinds of round so drift hits them alike.
    let mut traced_walls = Vec::new();
    let mut plain_walls = Vec::new();
    let mut null_walls = Vec::new();
    let mut seq_walls = Vec::new();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); checks.len()];
    let mut engine_self_ns = 0u64;
    let mut phase = PhaseTally::default();
    let mut plain_usage = Usage::default();
    let mut plain_execs = 0u64;
    let deadline = start + budget.mul_f64(0.8);
    loop {
        let r = round(&checks, &engine, &traced_sinks);
        out.tally(&r);
        out.gate(r.logical(&checks) == ref_logical, || {
            "traced logical report differs from the untraced one".into()
        });
        out.gate(r.engine_counts() == ref_counts, || {
            "traced engine counts differ from the untraced ones".into()
        });
        traced_walls.push(secs(r.wall));
        for (i, (wall, p)) in r.run_walls.iter().zip(&r.phases).enumerate() {
            run_ms[i].push(secs(*wall) * 1e3);
            engine_self_ns += (wall.as_nanos() as u64).saturating_sub(p.covered_ns);
            phase.calls += p.calls;
            phase.busy_ns += p.busy_ns;
        }

        let before = Usage::now();
        let r = round(&checks, &engine, &Sinks::Detector);
        plain_usage.add(&Usage::now().since(&before));
        out.tally(&r);
        plain_walls.push(secs(r.wall));
        plain_execs += r.executions();

        null_walls.push(secs(round(&checks, &engine, &Sinks::Null).wall));

        let r = round(&checks, &sequential, &Sinks::Detector);
        out.tally(&r);
        out.gate(r.logical(&checks) == ref_logical, || {
            format!("logical report at workers 1 differs from workers {workers}")
        });
        seq_walls.push(secs(r.wall));

        if Instant::now() >= deadline {
            break;
        }
    }
    let sinks = probe.take_sinks();
    let rounds = traced_walls.len() as f64;
    let per_round = |v: u64| v as f64 / rounds;

    let mut mix = ExecStats::default();
    let mut fork = jaaru::ForkStats::default();
    let mut prune = jaaru::PruneStats::default();
    let mut gc = jaaru::GcStats::default();
    let mut crash_points = 0u64;
    for r in &reference.reports {
        mix.absorb(r.stats());
        fork.absorb(r.fork_stats());
        prune.absorb(r.prune_stats());
        gc.absorb(r.gc_stats());
        crash_points += r.crash_points() as u64;
    }
    let mem_ns = replay::mem_ns_per_event(&mix, opts.seed, budget.mul_f64(0.1));
    let [join_ns, leq_ns, clone_ns] = replay::vclock_ns(&sinks.clocks, budget.mul_f64(0.05));

    let count = "count/round";
    let mut push = |name: &str, value: f64, unit: &'static str| {
        out.push(name, value, unit, moves(name).to_owned());
    };

    let program_ms: Vec<f64> = run_ms.iter().map(|walls| median(walls)).collect();
    push("engine.run_ms.sum", program_ms.iter().sum(), "ms/round");
    push(
        "engine.run_ms.max",
        program_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    push("engine.self_ms", ms(per_round(engine_self_ns)), "ms/round");
    // `ForkStats` credits pruned class members as resumed runs with their
    // representative's suffix events; count only the suffixes that ran.
    let resumed = fork.resumed_runs - prune.suffixes_skipped;
    push("engine.executions", reference.executions() as f64, count);
    push("engine.crash_points", crash_points as f64, count);
    push("engine.suffixes_resumed", resumed as f64, count);
    push(
        "engine.suffixes_pruned",
        prune.suffixes_skipped as f64,
        count,
    );
    push("engine.snapshots", fork.snapshots as f64, count);
    push(
        "engine.suffix_events",
        (fork.suffix_events - prune.events_attributed) as f64,
        count,
    );
    push(
        "engine.prefix_events_skipped",
        fork.prefix_events_skipped as f64,
        count,
    );
    push(
        "engine.useful_ratio",
        ratio(resumed as f64, crash_points as f64),
        "ratio",
    );

    let plain_p50 = median(&plain_walls);
    push(
        "pool.speedup",
        ratio(median(&seq_walls), plain_p50),
        "ratio",
    );
    push(
        "pool.lane_busy_share",
        ratio(
            phase.busy_ns as f64,
            workers as f64 * traced_walls.iter().sum::<f64>() * 1e9,
        ),
        "ratio",
    );

    let detector_ns = sinks.busy_ns();
    push("phase.calls", per_round(phase.calls), count);
    push("phase.busy_ms", ms(per_round(phase.busy_ns)), "ms/round");
    push(
        "phase.self_ms",
        ms(per_round(phase.busy_ns.saturating_sub(detector_ns))),
        "ms/round",
    );

    push(
        "sched.vcsw_per_exec",
        ratio(plain_usage.vcsw as f64, plain_execs as f64),
        "count/exec",
    );
    push(
        "sched.ivcsw_per_exec",
        ratio(plain_usage.ivcsw as f64, plain_execs as f64),
        "count/exec",
    );
    push(
        "sched.sys_share",
        ratio(secs(plain_usage.sys), secs(plain_usage.cpu())),
        "ratio",
    );

    for (hook, calls) in HOOKS.iter().zip(sinks.calls) {
        push(&format!("detector.calls.{hook}"), per_round(calls), count);
    }
    push("detector.busy_ms", ms(per_round(detector_ns)), "ms/round");
    push(
        "detector.share",
        ratio(detector_ns as f64, phase.busy_ns as f64),
        "ratio",
    );
    push("detector.fork_calls", per_round(sinks.fork_calls), count);
    push("detector.fork_ms", ms(per_round(sinks.fork_ns)), "ms/round");
    push(
        "detector.overhead_ratio",
        ratio(plain_p50, median(&null_walls)),
        "ratio",
    );

    push("mem.stores", mix.stores_executed as f64, count);
    push("mem.loads", mix.loads as f64, count);
    push("mem.flushes", mix.flushes as f64, count);
    push("mem.fences", mix.fences as f64, count);
    push("mem.cas", mix.cas_ops as f64, count);
    push(
        "mem.bytes_bypass",
        mix.bytes_from_bypass as f64,
        "bytes/round",
    );
    push(
        "mem.bytes_cache",
        mix.bytes_from_cache as f64,
        "bytes/round",
    );
    push(
        "mem.bytes_image",
        mix.bytes_from_image as f64,
        "bytes/round",
    );
    push(
        "mem.candidates_scanned",
        mix.candidate_stores_scanned as f64,
        count,
    );
    push("mem.replay_ns_per_event", mem_ns, "ns");

    push("gc.passes", gc.passes as f64, count);
    push("gc.events_retired", gc.events_retired as f64, count);
    push("gc.peak_live_slots", gc.peak_live_events as f64, "count");

    push("vclock.join_ns", join_ns, "ns");
    push("vclock.leq_ns", leq_ns, "ns");
    push("vclock.clone_ns", clone_ns, "ns");
    push("vclock.width_max", sinks.width_max as f64, "count");

    push(
        "trace_overhead",
        ratio(median(&traced_walls), plain_p50),
        "ratio",
    );
    let n = traced_walls.len();
    for m in &mut out.metrics {
        m.note = format!("{} [{n} rounds of each kind]", m.note);
    }
    out.programs = checks.iter().map(|c| c.name).zip(program_ms).collect();
    out
}
