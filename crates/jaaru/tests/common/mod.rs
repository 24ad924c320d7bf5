//! Helpers shared by the differential equivalence suites: the comparison
//! surface of a run, the detector-backed `check`, and a randomized-program
//! generator whose op mix each suite picks for itself.

use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, Program, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yashme::json::run_json;
use yashme::YashmeConfig;

/// Worker counts every comparison runs at: sequential, a small pool, and
/// one-per-CPU.
pub const WORKER_COUNTS: [usize; 3] = [1, 8, 0];

/// The full comparison surface of one run: the elapsed-free `--json`
/// document (races with provenance, labels, executions, crash points,
/// panics, dedup hits, metrics) plus the raw stats and race debug
/// renderings.
pub fn fingerprint(name: &str, report: &RunReport) -> String {
    format!(
        "{}\n{:?}\n{:?}",
        run_json(name, report, false).render(),
        report.stats(),
        report.races(),
    )
}

pub fn check(program: &Program, mode: ExecMode, engine: &EngineConfig) -> RunReport {
    yashme::check_with(program, mode, YashmeConfig::default(), engine)
}

/// One operation of the randomized-program language. Offsets are 8-byte
/// slots inside the root region.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Store { slot: u64, val: u64, release: bool },
    Load { slot: u64, acquire: bool },
    Clflush { slot: u64 },
    Clwb { slot: u64 },
    Sfence,
    Mfence,
    Cas { slot: u64, expected: u64, new: u64 },
    FetchAdd { slot: u64, delta: u64 },
}

/// The kind of an [`Op`], before its operands are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Store,
    Load,
    Clflush,
    Clwb,
    Sfence,
    Mfence,
    Cas,
    FetchAdd,
}

/// An op mix: picks the kind of an op from a roll in `0..10` and its slot.
pub type Mix = fn(u32, u64) -> Kind;

pub const SLOTS: u64 = 24;

/// `n` random ops drawn from `mix`. Per op the generator draws the slot,
/// the roll, then the kind's operands, so a mix fixes the program for a
/// seed.
pub fn random_ops(rng: &mut StdRng, n: usize, mix: Mix) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let slot = rng.gen_range(0..SLOTS);
            match mix(rng.gen_range(0..10u32), slot) {
                Kind::Store => Op::Store {
                    slot,
                    val: rng.gen_range(1..1000),
                    release: rng.gen_range(0..2) == 0,
                },
                Kind::Load => Op::Load {
                    slot,
                    acquire: rng.gen_range(0..2) == 0,
                },
                Kind::Clflush => Op::Clflush { slot },
                Kind::Clwb => Op::Clwb { slot },
                Kind::Sfence => Op::Sfence,
                Kind::Mfence => Op::Mfence,
                Kind::Cas => Op::Cas {
                    slot,
                    expected: 0,
                    new: rng.gen_range(1..100),
                },
                Kind::FetchAdd => Op::FetchAdd {
                    slot,
                    delta: rng.gen_range(1..5),
                },
            }
        })
        .collect()
}

pub fn apply(ctx: &mut Ctx, ops: &[Op]) {
    let base = ctx.root();
    for op in ops {
        match *op {
            Op::Store { slot, val, release } => {
                let atom = if release {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                ctx.store_u64(base + slot * 8, val, atom, "rand.slot");
            }
            Op::Load { slot, acquire } => {
                let atom = if acquire {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                let _ = ctx.load_u64(base + slot * 8, atom);
            }
            Op::Clflush { slot } => ctx.clflush(base + slot * 8),
            Op::Clwb { slot } => ctx.clwb(base + slot * 8),
            Op::Sfence => ctx.sfence(),
            Op::Mfence => ctx.mfence(),
            Op::Cas {
                slot,
                expected,
                new,
            } => {
                let _ = ctx.cas_u64(base + slot * 8, expected, new, "rand.cas");
            }
            Op::FetchAdd { slot, delta } => {
                let _ = ctx.fetch_add_u64(base + slot * 8, delta, "rand.faa");
            }
        }
    }
}

/// A randomized program in the style of the `mem_ref_model` op language:
/// a pre-crash phase of random store/flush/fence/CAS traffic (plus one
/// spawned thread for scheduler coverage), a recovery phase that also
/// mutates and flushes, and a final phase that scans every slot.
pub fn random_program(seed: u64, mix: Mix) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = random_ops(&mut rng, 28, mix);
    let spawned = random_ops(&mut rng, 6, mix);
    let recovery = random_ops(&mut rng, 10, mix);
    Program::new("randomized")
        .pre_crash(move |ctx: &mut Ctx| {
            let child_ops = spawned.clone();
            let h = ctx.spawn(move |ctx2: &mut Ctx| apply(ctx2, &child_ops));
            apply(ctx, &pre);
            ctx.join(h);
        })
        .phase(move |ctx: &mut Ctx| apply(ctx, &recovery))
        .phase(|ctx: &mut Ctx| {
            let base = ctx.root();
            for slot in 0..SLOTS {
                let _ = ctx.load_u64(base + slot * 8, Atomicity::Plain);
            }
        })
}
