//! Differential tests for model-check exploration: the `RunReport` —
//! races, stats, metrics, `--json` rendering, and span traces — must be
//! byte-identical between fork mode (one representative suffix resumed
//! per crash-state equivalence class) and full re-execution of every
//! crash target, at every worker count, on the real benchmark suite and
//! on randomized programs.

mod common;

use bench::workload::crashprune_workload;
use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use common::{apply, check, fingerprint, random_program, Kind, Mix, Op, WORKER_COUNTS};
use jaaru::{Atomicity, Ctx, Engine, EngineConfig, ExecMode, ModelCheckConfig, Program};

/// The baseline op mix: stores, flushes, and fences in roughly equal
/// measure.
fn base_mix(roll: u32, slot: u64) -> Kind {
    match roll {
        0..=2 => Kind::Store,
        3 => Kind::Load,
        4..=5 => Kind::Clflush,
        6 => Kind::Clwb,
        7 => Kind::Sfence,
        8 => Kind::Mfence,
        9 if slot.is_multiple_of(2) => Kind::Cas,
        _ => Kind::FetchAdd,
    }
}

/// A flush-heavy mix: the redundant re-flushes are what produce
/// multi-member classes for pruning to collapse.
fn flush_heavy_mix(roll: u32, slot: u64) -> Kind {
    match roll {
        0..=2 => Kind::Store,
        3 => Kind::Load,
        4..=6 => Kind::Clflush,
        7 => Kind::Clwb,
        8 => Kind::Sfence,
        9 if slot.is_multiple_of(3) => Kind::Mfence,
        9 if slot % 3 == 1 => Kind::Cas,
        _ => Kind::FetchAdd,
    }
}

const MIXES: [(&str, Mix); 2] = [("base", base_mix), ("flush-heavy", flush_heavy_mix)];

/// The oracle: every crash target re-executed in full.
fn full() -> EngineConfig {
    EngineConfig::sequential().with_fork(false)
}

#[test]
fn fork_matches_full_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let want = fingerprint(entry.name, &check(&program, mode, &full()));
        for workers in WORKER_COUNTS {
            let fork = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint(entry.name, &fork),
                want,
                "{}: fork/workers={workers} diverged from full/sequential",
                entry.name
            );
            if matches!(entry.mode, SuiteMode::ModelCheck) {
                assert!(
                    fork.fork_stats().snapshots > 0,
                    "{}: fork mode should actually engage",
                    entry.name
                );
                // The attribution contract: skipped members still count as
                // resumed runs, so the fork accounting is prune-invariant.
                assert_eq!(
                    fork.fork_stats().resumed_runs,
                    fork.executions() as u64 - 1,
                    "{}: every non-profile run resumed or attributed",
                    entry.name
                );
            }
            let full = check(
                &program,
                mode,
                &EngineConfig::with_workers(workers).with_fork(false),
            );
            assert_eq!(
                fingerprint(entry.name, &full),
                want,
                "{}: full/workers={workers} diverged from full/sequential",
                entry.name
            );
        }
    }
}

#[test]
fn fork_matches_full_on_the_crashprune_workload() {
    // The workload built to exercise pruning: redundant scrub passes give
    // guaranteed multi-member classes.
    let program = crashprune_workload(24, 4);
    let want = fingerprint(
        "crashprune",
        &check(&program, ExecMode::model_check(), &full()),
    );
    for workers in WORKER_COUNTS {
        let pruned = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::with_workers(workers),
        );
        assert_eq!(
            fingerprint("crashprune", &pruned),
            want,
            "workers {workers}"
        );
        let p = pruned.prune_stats();
        assert!(p.suffixes_skipped > 0, "pruning should actually engage");
        assert!(
            (p.representatives as usize) < pruned.crash_points(),
            "fewer representatives ({}) than crash points ({})",
            p.representatives,
            pruned.crash_points()
        );
    }
}

#[test]
fn fork_matches_full_on_randomized_programs() {
    for (mix_name, mix) in MIXES {
        for seed in 0..6u64 {
            let program = random_program(seed, mix);
            let want = fingerprint(
                "randomized",
                &check(&program, ExecMode::model_check(), &full()),
            );
            for workers in WORKER_COUNTS {
                let fork = check(
                    &program,
                    ExecMode::model_check(),
                    &EngineConfig::with_workers(workers),
                );
                assert_eq!(
                    fingerprint("randomized", &fork),
                    want,
                    "{mix_name} seed {seed} workers {workers}"
                );
            }
        }
    }
}

#[test]
fn fork_matches_full_with_crash_in_recovery() {
    let mode = ExecMode::ModelCheck(ModelCheckConfig {
        crash_in_recovery: true,
    });
    for (mix_name, mix) in MIXES {
        for seed in [1u64, 4] {
            let program = random_program(seed, mix);
            let want = fingerprint("randomized", &check(&program, mode, &full()));
            for workers in [1usize, 8] {
                let fork = check(&program, mode, &EngineConfig::with_workers(workers));
                assert_eq!(
                    fingerprint("randomized", &fork),
                    want,
                    "{mix_name} seed {seed} workers {workers}"
                );
                assert!(fork.fork_stats().snapshots > 0);
            }
        }
    }
}

#[test]
fn fork_matches_full_with_tracing() {
    // The tracing sink folds its virtual span clock into the crash-state
    // fingerprint, so two crash points only share a class when no span
    // landed between them — in which case the representative's suffix
    // spans are the member's suffix spans verbatim and the merged trace
    // stays byte-identical.
    let trace_cfg = |workers: usize, fork: bool| {
        EngineConfig::with_workers(workers)
            .with_trace(true)
            .with_fork(fork)
    };
    for (mix_name, mix) in MIXES {
        let program = random_program(2, mix);
        let baseline = check(&program, ExecMode::model_check(), &trace_cfg(1, false));
        let want_trace = obs::to_chrome_json(baseline.trace().expect("trace"));
        let want = fingerprint("randomized", &baseline);
        for workers in [1usize, 8] {
            let fork = check(&program, ExecMode::model_check(), &trace_cfg(workers, true));
            assert_eq!(
                fingerprint("randomized", &fork),
                want,
                "{mix_name} workers {workers}"
            );
            assert_eq!(
                obs::to_chrome_json(fork.trace().expect("trace")),
                want_trace,
                "span trace must be byte-identical in fork mode ({mix_name} workers {workers})"
            );
        }
    }
}

#[test]
fn unforkable_sink_falls_back_to_full_replay() {
    // A sink that keeps the default `fork_sink` (None): the engine must
    // quietly fall back to one full re-execution per crash point and still
    // produce the exact no-fork report.
    struct PlainSink;
    impl jaaru::EventSink for PlainSink {}

    let program = random_program(3, base_mix);
    let run = |config: &EngineConfig| {
        Engine::run_with(
            &program,
            ExecMode::model_check(),
            &|| Box::new(PlainSink),
            config,
        )
    };
    let fork = run(&EngineConfig::sequential());
    let full = run(&full());
    assert_eq!(
        fork.metrics().to_json().render(),
        full.metrics().to_json().render()
    );
    assert_eq!(format!("{:?}", fork.stats()), format!("{:?}", full.stats()));
    assert_eq!(fork.fork_stats().snapshots, 0, "no snapshot could be kept");
    assert_eq!(fork.fork_stats().resumed_runs, 0);
}

#[test]
fn paranoid_mode_verifies_every_attribution() {
    // Paranoid mode executes every skipped member's suffix anyway and
    // panics if its outcome diverges from the attributed one — so merely
    // completing these runs proves the attribution rule on programs with
    // guaranteed multi-member classes.
    let heavy = crashprune_workload(12, 3);
    let paranoid = EngineConfig::sequential().with_prune_paranoid(true);
    let report = check(&heavy, ExecMode::model_check(), &paranoid);
    assert!(report.prune_stats().suffixes_skipped > 0);
    assert_eq!(
        fingerprint("crashprune", &report),
        fingerprint(
            "crashprune",
            &check(&heavy, ExecMode::model_check(), &EngineConfig::sequential())
        ),
        "paranoid mode must not change the report"
    );
    for seed in [0u64, 3] {
        let program = random_program(seed, flush_heavy_mix);
        let _ = check(&program, ExecMode::model_check(), &paranoid);
    }
}

/// Builds a single-phase program from `ops` with a post-crash scan.
fn straightline(ops: Vec<Op>) -> Program {
    Program::new("straightline")
        .pre_crash(move |ctx: &mut Ctx| apply(ctx, &ops))
        .post_crash(|ctx: &mut Ctx| {
            let base = ctx.root();
            for slot in 0..2u64 {
                let _ = ctx.load_u64(base + slot * 8, Atomicity::Plain);
            }
        })
}

fn classes_and_points(program: &Program) -> (u64, usize) {
    let report = check(
        program,
        ExecMode::model_check(),
        &EngineConfig::sequential(),
    );
    (report.prune_stats().classes, report.crash_points())
}

#[test]
fn state_changing_events_split_classes() {
    let store = |slot| Op::Store {
        slot,
        val: 7,
        release: false,
    };
    // A committed store between two crash points always splits them:
    // store; clflush (pt); sfence (pt); store; clflush (pt); sfence (pt)
    // — every point sees a distinct crash state.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clflush { slot: 0 },
        Op::Sfence,
        store(1),
        Op::Clflush { slot: 1 },
        Op::Sfence,
    ]));
    assert_eq!(points, 4);
    assert_eq!(
        classes, 4,
        "a store between points must split their classes"
    );

    // An effective (floor-raising) flush between two points splits them;
    // the redundant re-flush that follows does not.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clflush { slot: 0 },
        Op::Clflush { slot: 0 },
        Op::Clflush { slot: 0 },
    ]));
    assert_eq!(points, 3);
    assert_eq!(
        classes, 2,
        "the first flush splits; redundant re-flushes collapse"
    );

    // An effective fence (draining a pending clwb) splits the points
    // before and after it; the clwb itself — invisible at a crash until
    // fenced — does not.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clwb { slot: 0 },
        Op::Sfence,
        Op::Clflush { slot: 0 },
    ]));
    assert_eq!(points, 3);
    assert_eq!(
        classes, 2,
        "clwb leaves the crash state unchanged until the fence commits it"
    );
}
