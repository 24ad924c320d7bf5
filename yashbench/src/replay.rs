//! Layer replays with no scheduler and no program code: a synthetic op
//! stream through `MemState`'s public `exec_*` functions, and vclock
//! operations over store clocks captured from the detector hooks.

use std::hint::black_box;
use std::time::{Duration, Instant};

use compiler_model::CompilerConfig;
use jaaru::{Atomicity, ExecStats, MemState, NullSink};
use pmem::Addr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vclock::VectorClock;

/// Operations in one replayed stream.
const STREAM_OPS: usize = 20_000;

/// Simulated threads issuing the stream.
const THREADS: usize = 2;

/// Bytes of the root region the stream touches: 64 cache lines.
const WINDOW: u64 = 64 * 64;

/// A thread's store buffer is evicted down to this depth after each store,
/// as the engine's eviction keeps real buffers short.
const SB_DEPTH: usize = 4;

#[derive(Debug, Clone, Copy)]
enum Op {
    Store { t: usize, off: u64 },
    Load { t: usize, off: u64 },
    Clflush { t: usize, off: u64 },
    Clwb { t: usize, off: u64 },
    Fence { t: usize },
    Cas { t: usize, off: u64 },
}

/// A stream drawn from `seed` whose store/load/flush/fence/CAS shares
/// match `mix`, a workload's measured counters.
fn stream(mix: &ExecStats, seed: u64) -> Vec<Op> {
    let weights = [
        mix.stores_executed,
        mix.loads,
        mix.flushes,
        mix.fences,
        mix.cas_ops,
    ];
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let word = |rng: &mut StdRng| rng.gen_range(0..WINDOW / 8) * 8;
    (0..STREAM_OPS)
        .map(|n| {
            let t = n % THREADS;
            let mut roll = rng.gen_range(0..total);
            let mut kind = 0;
            while roll >= weights[kind] {
                roll -= weights[kind];
                kind += 1;
            }
            match kind {
                0 => Op::Store {
                    t,
                    off: word(&mut rng),
                },
                1 => Op::Load {
                    t,
                    off: word(&mut rng),
                },
                2 if rng.gen_bool(0.5) => Op::Clflush {
                    t,
                    off: word(&mut rng),
                },
                2 => Op::Clwb {
                    t,
                    off: word(&mut rng),
                },
                3 => Op::Fence { t },
                _ => Op::Cas {
                    t,
                    off: word(&mut rng),
                },
            }
        })
        .collect()
}

fn replay_once(ops: &[Op]) -> Duration {
    let mut sink = NullSink;
    let mut mem = MemState::new(CompilerConfig::default(), 1 << 20);
    let main = mem.register_thread(None);
    let tids: Vec<_> = std::iter::once(main)
        .chain((1..THREADS).map(|_| mem.register_thread(Some(main))))
        .collect();
    let base = Addr::BASE;
    let start = Instant::now();
    for (n, op) in ops.iter().enumerate() {
        match *op {
            Op::Store { t, off } => {
                let bytes = (n as u64).to_le_bytes();
                mem.exec_store(
                    &mut sink,
                    tids[t],
                    base + off,
                    &bytes,
                    Atomicity::Plain,
                    "s",
                );
                while mem.sb_len(tids[t]) > SB_DEPTH {
                    mem.evict_one(&mut sink, tids[t], 0);
                }
            }
            Op::Load { t, off } => {
                black_box(mem.exec_load(tids[t], base + off, 8, Atomicity::Plain, "l"));
            }
            Op::Clflush { t, off } => mem.exec_clflush(tids[t], base + off, "f"),
            Op::Clwb { t, off } => mem.exec_clwb(tids[t], base + off, "f"),
            Op::Fence { t } => mem.exec_mfence(&mut sink, tids[t], "m"),
            Op::Cas { t, off } => {
                black_box(mem.exec_cas(&mut sink, tids[t], base + off, 0, n as u64, "c"));
            }
        }
    }
    start.elapsed()
}

/// Nanoseconds per operation of `MemState` alone, replaying streams with
/// `mix`'s op shares for at least `budget` (and at least one stream).
pub fn mem_ns_per_event(mix: &ExecStats, seed: u64, budget: Duration) -> f64 {
    let ops = stream(mix, seed);
    let deadline = Instant::now() + budget;
    let mut spent = Duration::ZERO;
    let mut replayed = 0usize;
    loop {
        spent += replay_once(&ops);
        replayed += ops.len();
        if Instant::now() >= deadline {
            break;
        }
    }
    spent.as_nanos() as f64 / replayed as f64
}

/// Nanoseconds per `join`, `leq` and `clone` over pairs of `clocks`,
/// repeated for at least `budget`. All zero when there are no clocks.
pub fn vclock_ns(clocks: &[VectorClock], budget: Duration) -> [f64; 3] {
    if clocks.is_empty() {
        return [0.0; 3];
    }
    let n = clocks.len();
    let deadline = Instant::now() + budget;
    let mut spent = [Duration::ZERO; 3];
    let mut ops = 0usize;
    loop {
        let mut work = clocks.to_vec();
        let start = Instant::now();
        for (i, w) in work.iter_mut().enumerate() {
            w.join(&clocks[(i * 7 + 1) % n]);
        }
        spent[0] += start.elapsed();
        black_box(&work);

        let start = Instant::now();
        let mut below = 0usize;
        for (i, c) in clocks.iter().enumerate() {
            below += usize::from(c.leq(&clocks[(i * 7 + 1) % n]));
        }
        spent[1] += start.elapsed();
        black_box(below);

        let start = Instant::now();
        for c in clocks {
            black_box(c.clone());
        }
        spent[2] += start.elapsed();

        ops += n;
        if Instant::now() >= deadline {
            break;
        }
    }
    spent.map(|d| d.as_nanos() as f64 / ops as f64)
}
