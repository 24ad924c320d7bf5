//! The three workloads, their programs, and the ground truth each program's
//! verdict is checked against.

use apps::traffic::{soak_program, TrafficConfig};
use extras::Variant;
use jaaru::{EngineConfig, EventSink, ExecMode, Program, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yashme::{YashmeConfig, YashmeDetector};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RECIPE indexes plus the lock-free extras, model-checked with
    /// fork, prune and GC on.
    McSuite,
    /// The seven Table 4 programs in random mode: full re-executions only.
    RandomSuite,
    /// One long zipfian Memcached stream with streaming GC.
    KvStream,
}

/// Executions per random-mode check (the Table 4 setting).
pub const RANDOM_EXECUTIONS: usize = 20;

/// Operations each kv-stream client sends in one round at full size.
pub const KV_OPS_PER_CLIENT: u64 = 4_000;

/// kv-stream client threads (the soak default is 4).
pub const KV_CLIENTS: usize = 2;

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::McSuite, Workload::RandomSuite, Workload::KvStream];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::McSuite => "mc-suite",
            Workload::RandomSuite => "random-suite",
            Workload::KvStream => "kv-stream",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's checks from `seed`. `tiny` shrinks kv-stream's
    /// stream for the benchmark's own tests; the suites have one size.
    ///
    /// The model-check programs are fixed, so for mc-suite the seed
    /// only fixes the order the programs run in; random-suite derives every
    /// check's schedule seed from it, and kv-stream its command streams.
    pub fn checks(self, seed: u64, tiny: bool) -> Vec<Check> {
        let mut rng = StdRng::seed_from_u64(seed);
        match self {
            Workload::McSuite => {
                let mut checks: Vec<Check> = MC_TRUTH
                    .iter()
                    .map(|&(name, build, labels)| Check {
                        name,
                        program: build(),
                        mode: ExecMode::model_check(),
                        sample_every: 0,
                        expect: Expect::labels(labels),
                    })
                    .collect();
                // Fisher-Yates from the seed.
                for i in (1..checks.len()).rev() {
                    checks.swap(i, rng.gen_range(0..=i));
                }
                checks
            }
            Workload::RandomSuite => RANDOM_TRUTH
                .iter()
                .map(|&(name, build, labels)| Check {
                    name,
                    program: build(),
                    mode: ExecMode::random(RANDOM_EXECUTIONS, rng.gen_range(0..u64::MAX)),
                    sample_every: 0,
                    expect: Expect::labels(labels),
                })
                .collect(),
            Workload::KvStream => {
                let cfg = TrafficConfig {
                    clients: KV_CLIENTS,
                    ops_per_client: if tiny { 300 } else { KV_OPS_PER_CLIENT },
                    seed: rng.gen_range(0..u64::MAX),
                    ..TrafficConfig::default()
                };
                vec![Check {
                    name: KV_NAME,
                    program: soak_program(cfg),
                    // The profiling run streams every command under the
                    // deterministic schedule with full-cache persistence, so
                    // the verdict is the same for every seed. Sampling keeps
                    // a single crash point (the first, a 3-event suffix):
                    // no crash exploration and no fan-out to speak of.
                    mode: ExecMode::model_check(),
                    sample_every: u32::MAX,
                    expect: Expect {
                        optional: vec![ITEM_CAS],
                        ..Expect::labels(KV_LABELS)
                    },
                }]
            }
        }
    }
}

/// One program checked under one mode, with its expected verdict.
#[derive(Clone)]
pub struct Check {
    /// Program name, as the logical report and the per-program rows show it.
    pub name: &'static str,
    /// The program under test.
    pub program: Program,
    /// Engine mode the check runs in.
    pub mode: ExecMode,
    /// Crash-point sampling period (`EngineConfig::sample_every`).
    pub sample_every: u32,
    /// Ground truth for the verdict.
    pub expect: Expect,
}

impl Check {
    /// Runs the check with a fresh Yashme detector per execution.
    pub fn run(&self, engine: &EngineConfig) -> RunReport {
        yashme::check_with(
            &self.program,
            self.mode,
            YashmeConfig::default(),
            &engine.with_sample_every(self.sample_every),
        )
    }

    /// Runs the check's program (possibly a re-wrapped copy) with sinks
    /// from `factory`.
    pub fn run_with(
        &self,
        program: &Program,
        factory: &(dyn Fn() -> Box<dyn EventSink> + Sync),
        engine: &EngineConfig,
    ) -> RunReport {
        let engine = engine.with_sample_every(self.sample_every);
        jaaru::Engine::run_with(program, self.mode, factory, &engine)
    }

    /// Whether `report`'s race-label set and post-crash-panic list match
    /// the ground truth: every expected label reported, nothing reported
    /// beyond the expected and optional labels, the same panics.
    pub fn verdict_ok(&self, report: &RunReport) -> bool {
        let labels = report.race_labels();
        let e = &self.expect;
        e.labels.iter().all(|l| labels.contains(l))
            && labels
                .iter()
                .all(|l| e.labels.contains(l) || e.optional.contains(l))
            && report.post_crash_panics() == e.panics.as_slice()
    }
}

/// A fresh Yashme detector: the sink every verdict is taken from.
pub fn detector() -> Box<dyn EventSink> {
    Box::new(YashmeDetector::new(YashmeConfig::default()))
}

/// Expected verdict of one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// Race labels that must be reported, any order.
    pub labels: Vec<&'static str>,
    /// Race labels that may be reported, depending on the input.
    pub optional: Vec<&'static str>,
    /// Post-crash panic messages, in report order.
    pub panics: Vec<String>,
}

impl Expect {
    fn labels(labels: &[&'static str]) -> Expect {
        Expect {
            labels: labels.to_vec(),
            optional: Vec::new(),
            panics: Vec::new(),
        }
    }
}

type Truth = (&'static str, fn() -> Program, &'static [&'static str]);

/// Table 3's 19 labels, the racy extras' labels, and none for the fixed
/// variants. Written out here rather than read from the crates, so a change
/// to a program's labels shows as a verdict error.
const MC_TRUTH: [Truth; 13] = [
    (
        "CCEH",
        recipe::cceh::program,
        &["Pair.key (pair.h)", "Pair.value (pair.h)"],
    ),
    (
        "Fast_Fair",
        recipe::fastfair::program,
        &[
            "btree.root (btree.h)",
            "entry.key (btree.h)",
            "entry.ptr (btree.h)",
            "header.last_index (btree.h)",
            "header.sibling_ptr (btree.h)",
            "header.switch_counter (btree.h)",
        ],
    ),
    (
        "P-ART",
        recipe::part::program,
        &[
            "DeletionList.added (Epoche.h)",
            "DeletionList.deletitionListCount (Epoche.h)",
            "DeletionList.headDeletionList (Epoche.h)",
            "DeletionList.thresholdCounter (Epoche.h)",
            "LabelDelete.nodesCount (Epoche.h)",
            "N.compactCount (N.h)",
            "N.count (N.h)",
        ],
    ),
    (
        "P-BwTree",
        recipe::pbwtree::program,
        &["BwTreeBase.epoch (bwtree.h)"],
    ),
    ("P-CLHT", recipe::pclht::program, &[]),
    (
        "P-Masstree",
        recipe::pmasstree::program,
        &[
            "leafnode.next (masstree.h)",
            "leafnode.permutation (masstree.h)",
            "masstree.root_ (masstree.h)",
        ],
    ),
    ("x-skiplist", skiplist_racy, &["skiplist.node.next"]),
    ("x-skiplist-fixed", skiplist_fixed, &[]),
    ("x-queue", queue_racy, &["pqueue.head", "pqueue.tail"]),
    ("x-queue-fixed", queue_fixed, &[]),
    (
        "x-stack",
        stack_racy,
        &["pstack.node.next", "pstack.node.value"],
    ),
    ("x-stack-fixed", stack_fixed, &[]),
    (
        "x-pmemlog",
        pmdk::plog::program,
        &["plog.write_offset (log.c)"],
    ),
];

const ULOG: &[&str] = &["ulog_entry ptr (ulog.c)"];

/// Table 4's labels at 20 random executions.
const RANDOM_TRUTH: [Truth; 7] = [
    ("Btree", pmdk::btree::program, ULOG),
    ("Ctree", pmdk::ctree::program, ULOG),
    ("RBtree", pmdk::rbtree::program, ULOG),
    ("hashmap-atomic", pmdk::hashmap_atomic::program, ULOG),
    ("hashmap-tx", pmdk::hashmap_tx::program, ULOG),
    ("Redis", apps::redis::program, ULOG),
    (
        "Memcached",
        apps::memcached::program,
        &[
            ITEM_CAS,
            "item.it_flags (memcached.h)",
            "pslab.id (pslab.c)",
            "pslab_pool.valid (pslab.c)",
        ],
    ),
];

/// The kv-stream program's name.
const KV_NAME: &str = "soak-memcached";

const ITEM_CAS: &str = "item.cas (items.c)";

/// The Memcached labels every kv-stream reports: recovery reads the pool
/// flag, every slab id and every item's flags unconditionally. It reads
/// `item.cas` only for linked items, and for about 0.7% of seeds (207, for
/// one) no linked item's CAS store races at the crash, so that fourth
/// Table 4 label is optional on kv-stream.
const KV_LABELS: &[&str] = &[
    "item.it_flags (memcached.h)",
    "pslab.id (pslab.c)",
    "pslab_pool.valid (pslab.c)",
];

fn skiplist_racy() -> Program {
    extras::pskiplist::program(Variant::Racy)
}
fn skiplist_fixed() -> Program {
    extras::pskiplist::program(Variant::Fixed)
}
fn queue_racy() -> Program {
    extras::pqueue::program(Variant::Racy)
}
fn queue_fixed() -> Program {
    extras::pqueue::program(Variant::Fixed)
}
fn stack_racy() -> Program {
    extras::pstack::program(Variant::Racy)
}
fn stack_fixed() -> Program {
    extras::pstack::program(Variant::Fixed)
}
