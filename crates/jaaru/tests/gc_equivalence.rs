//! Differential tests for streaming epoch GC: the `RunReport` — races,
//! stats, metrics, `--json` rendering, and span traces — must be
//! byte-identical between GC-on and GC-off runs, at every worker count, on
//! the real benchmark suite and on randomized programs. Mirrors
//! `exploration_equivalence.rs`, which pins the same contract for fork
//! mode.
//!
//! GC is aggressive here (`gc_every(1)`: a mark-sweep pass after every
//! committed store) so retirement happens constantly even on small
//! programs — the maximally hostile schedule for any "GC changed a
//! report" bug. The complementary unit tests live in `jaaru::mem`
//! (`gc_never_retires_an_unpersisted_store` et al.); these tests pin the
//! end-to-end contract.

mod common;

use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use common::{check, fingerprint, Kind, WORKER_COUNTS};
use jaaru::{Engine, EngineConfig, ExecMode, GcParanoidSink};
use yashme::{YashmeConfig, YashmeDetector};

/// GC at its most aggressive: a pass after every commit.
fn gc_hot(workers: usize) -> EngineConfig {
    EngineConfig::with_workers(workers).with_gc_every(1)
}

#[test]
fn gc_matches_unbounded_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let unbounded = check(&program, mode, &EngineConfig::sequential().with_gc(false));
        let want = fingerprint(entry.name, &unbounded);
        for workers in WORKER_COUNTS {
            let streamed = check(&program, mode, &gc_hot(workers));
            assert_eq!(
                fingerprint(entry.name, &streamed),
                want,
                "{}: gc/workers={workers} diverged from unbounded/sequential",
                entry.name
            );
        }
    }
}

/// Store-and-flush heavy: overwrites of already-persisted slots are
/// exactly what retirement feeds on, and loads of retired-then-reused
/// addresses are the readback hazard. The final phase's scans force
/// post-crash loads of addresses whose history GC may have retired.
fn gc_mix(roll: u32, slot: u64) -> Kind {
    match roll {
        0..=3 => Kind::Store,
        4 => Kind::Load,
        5..=6 => Kind::Clflush,
        7 => Kind::Clwb,
        8 => Kind::Sfence,
        9 if slot.is_multiple_of(3) => Kind::Mfence,
        9 if slot % 3 == 1 => Kind::Cas,
        _ => Kind::FetchAdd,
    }
}

fn random_program(seed: u64) -> jaaru::Program {
    common::random_program(seed, gc_mix)
}

#[test]
fn gc_matches_unbounded_on_randomized_programs() {
    for seed in 0..6u64 {
        let program = random_program(seed);
        let unbounded = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential().with_gc(false),
        );
        let want = fingerprint("randomized", &unbounded);
        for workers in WORKER_COUNTS {
            let streamed = check(&program, ExecMode::model_check(), &gc_hot(workers));
            assert_eq!(
                fingerprint("randomized", &streamed),
                want,
                "seed {seed} workers {workers}"
            );
        }
    }
}

#[test]
fn gc_actually_retires_state_on_these_programs() {
    // Guard against the equivalence suite passing vacuously: with a pass
    // per commit, the randomized programs must see real retirement work.
    let mut retired = 0;
    for seed in 0..6u64 {
        let report = check(&random_program(seed), ExecMode::model_check(), &gc_hot(1));
        let g = report.gc_stats();
        assert!(g.passes > 0, "seed {seed}: no GC pass ran");
        retired += g.events_retired + g.flushes_retired + g.line_entries_retired;
    }
    assert!(retired > 0, "no program retired anything — vacuous suite");
}

#[test]
fn gc_matches_unbounded_with_tracing() {
    // The span trace rides the same event stream; retirement must neither
    // tick the virtual span clock nor reorder spans.
    let program = random_program(2);
    let cfg = |workers: usize, gc: bool| {
        let c = EngineConfig::with_workers(workers).with_trace(true);
        if gc {
            c.with_gc_every(1)
        } else {
            c.with_gc(false)
        }
    };
    let unbounded = check(&program, ExecMode::model_check(), &cfg(1, false));
    let want_trace = obs::to_chrome_json(unbounded.trace().expect("trace"));
    let want = fingerprint("randomized", &unbounded);
    for workers in [1usize, 8] {
        let streamed = check(&program, ExecMode::model_check(), &cfg(workers, true));
        assert_eq!(
            fingerprint("randomized", &streamed),
            want,
            "workers {workers}"
        );
        assert_eq!(
            obs::to_chrome_json(streamed.trace().expect("trace")),
            want_trace,
            "span trace must be byte-identical under GC (workers {workers})"
        );
    }
}

#[test]
fn paranoid_mode_runs_an_ungc_shadow_in_lockstep() {
    // A `GcParanoidSink` pair drives an un-GC'd shadow detector from the
    // same event stream and panics at drain time if the reports differ —
    // so merely completing these runs proves the retired state never fed
    // a report.
    let det =
        || -> Box<dyn jaaru::EventSink> { Box::new(YashmeDetector::new(YashmeConfig::default())) };
    let hot = EngineConfig::sequential().with_gc_every(1);
    for seed in [0u64, 2, 5] {
        let report = Engine::run_with(
            &random_program(seed),
            ExecMode::model_check(),
            &|| Box::new(GcParanoidSink::new(det(), det())),
            &hot,
        );
        assert_eq!(
            fingerprint("randomized", &report),
            fingerprint(
                "randomized",
                &check(
                    &random_program(seed),
                    ExecMode::model_check(),
                    &EngineConfig::sequential().with_gc(false),
                )
            ),
            "seed {seed}: paranoid mode must not change the report"
        );
    }
}

#[test]
fn gc_matches_unbounded_on_the_soak_traffic() {
    // The workload the streaming mode exists for: zipfian multi-client
    // traffic over the memcached port, shrunk to test scale.
    let cfg = apps::traffic::TrafficConfig {
        clients: 2,
        ops_per_client: 400,
        keys: 32,
        batch: 16,
        ..apps::traffic::TrafficConfig::default()
    };
    let program = apps::traffic::soak_program(cfg);
    let mode = ExecMode::random(3, HARNESS_SEED);
    let unbounded = check(&program, mode, &EngineConfig::sequential().with_gc(false));
    let want = fingerprint("soak", &unbounded);
    for workers in [1usize, 8] {
        let streamed = check(&program, mode, &gc_hot(workers));
        assert_eq!(fingerprint("soak", &streamed), want, "workers {workers}");
    }
}
