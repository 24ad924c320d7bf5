//! Token-passing cooperative scheduler over OS threads.
//!
//! The engine serializes simulated threads: exactly one holds the *token*
//! and runs benchmark code; everyone else blocks. Every memory operation is
//! a scheduling point, so the scheduler fully controls the interleaving —
//! deterministic round-robin in model-checking mode ("Yashme controls
//! multithreaded scheduling to regenerate the same execution", §6) and
//! seeded-random in random mode. Crash injection simply marks the run
//! crashed; every task unwinds with [`CrashUnwind`] at its next scheduling
//! point.

use std::collections::HashMap;

use parking_lot::{Condvar, Mutex};
use pmem::Forkable;
use rand::rngs::StdRng;
use rand::Rng;
use vclock::ThreadId;

use crate::mem::{ExecStats, MemState};
use crate::sink::EventSink;

/// Panic payload used to unwind simulated threads at a crash.
pub(crate) struct CrashUnwind;

/// Scheduling policy for picking the next runnable task and for store-buffer
/// eviction timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Deterministic: round-robin task choice, full store-buffer drain at
    /// every scheduling point.
    Deterministic,
    /// Seeded-random task choice and partial, randomized buffer eviction.
    RandomChoice,
    /// Scripted: task choices replayed from an explicit script (exhaustive
    /// schedule exploration); full store-buffer drain at every scheduling
    /// point so schedules are the only branch points. Off-script choices
    /// default to the first candidate and every choice is logged.
    Scripted,
}

/// State of one simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Runnable,
    Finished,
}

/// Scheduler bookkeeping (token, liveness).
pub(crate) struct Sched {
    token: ThreadId,
    tasks: HashMap<ThreadId, TaskState>,
    active: usize,
    pub crashed: bool,
    pub policy: SchedPolicy,
    /// Scripted mode: the candidate index to pick at each branch point.
    pub script: Vec<usize>,
    /// Scripted mode: cursor into `script`.
    pub cursor: usize,
    /// Scripted mode: `(chosen index, candidate count)` per branch point.
    pub choice_log: Vec<(usize, usize)>,
}

impl Sched {
    fn new(policy: SchedPolicy) -> Self {
        Sched {
            token: ThreadId::MAIN,
            tasks: HashMap::new(),
            active: 0,
            crashed: false,
            policy,
            script: Vec::new(),
            cursor: 0,
            choice_log: Vec::new(),
        }
    }

    pub fn register(&mut self, tid: ThreadId) {
        self.tasks.insert(tid, TaskState::Runnable);
        self.active += 1;
        if self.active == 1 {
            self.token = tid;
        }
    }

    pub fn is_finished(&self, tid: ThreadId) -> bool {
        self.tasks.get(&tid) == Some(&TaskState::Finished)
    }

    fn runnable_after(&self, from: ThreadId) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = self
            .tasks
            .iter()
            .filter(|(_, s)| **s == TaskState::Runnable)
            .map(|(t, _)| *t)
            .collect();
        ids.sort();
        // Rotate so the scan starts just after `from`.
        let pivot = ids.iter().position(|&t| t > from).unwrap_or(0);
        ids.rotate_left(pivot);
        ids
    }

    fn pick_next(&mut self, from: ThreadId, rng: &mut StdRng) -> Option<ThreadId> {
        let candidates = self.runnable_after(from);
        if candidates.is_empty() {
            return None;
        }
        Some(match self.policy {
            SchedPolicy::Deterministic => candidates[0],
            SchedPolicy::RandomChoice => candidates[rng.gen_range(0..candidates.len())],
            SchedPolicy::Scripted => {
                // Branch points with a single candidate are not logged: they
                // carry no exploration choice.
                if candidates.len() == 1 {
                    candidates[0]
                } else {
                    let idx = self
                        .script
                        .get(self.cursor)
                        .copied()
                        .unwrap_or(0)
                        .min(candidates.len() - 1);
                    self.cursor += 1;
                    self.choice_log.push((idx, candidates.len()));
                    candidates[idx]
                }
            }
        })
    }
}

impl Forkable for Sched {
    /// Captures the scheduler as seen by a post-crash resumption.
    ///
    /// A snapshot is taken *at* a crash point, and a resumed run starts where
    /// the corresponding full run stands after its injected crash: every
    /// prefix task has unwound (`Finished`, `active == 0`) and the run is
    /// marked crashed. The token is deliberately not carried over — with no
    /// active task it is unobservable, and the next phase's `register` resets
    /// it when `active` goes 0 → 1.
    fn fork(&self) -> Self {
        Sched {
            token: self.token,
            tasks: self
                .tasks
                .keys()
                .map(|&t| (t, TaskState::Finished))
                .collect(),
            active: 0,
            crashed: true,
            policy: self.policy,
            script: self.script.clone(),
            cursor: self.cursor,
            choice_log: self.choice_log.clone(),
        }
    }
}

/// Crash-injection control: counts crash points and triggers at the target.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrashCtl {
    /// Crash points seen so far in the current phase.
    pub seen: usize,
    /// Inject a crash when `seen` reaches this index (phase-local).
    pub target: Option<usize>,
}

impl CrashCtl {
    /// Registers one crash point; returns `true` if the crash fires here.
    fn hit(&mut self) -> bool {
        let fire = self.target == Some(self.seen);
        self.seen += 1;
        fire
    }
}

/// A captured resume point: the full simulator state at one crash point of
/// the profiling run, from which the engine replays only the post-crash
/// continuation.
pub(crate) struct Snapshot {
    /// Phase index the crash point lies in.
    pub phase: usize,
    /// Phase-local crash-point index (`CrashCtl::seen` at capture).
    pub point: usize,
    pub mem: MemState,
    pub sink: Box<dyn EventSink>,
    pub sched: Sched,
    pub rng: StdRng,
    pub panics: Vec<String>,
}

/// Per-crash-point observation from the profiling run, recorded whether or
/// not a [`Snapshot`] was captured for the point.
///
/// `fingerprint` identifies the point's *crash-state equivalence class*: it
/// folds together the memory system's rolling crash-state hash, the sink's
/// fingerprint token (detector state that feeds reports), accumulated panic
/// count, and the phase. Two consecutive points with equal fingerprints
/// produce byte-identical post-crash results, so the engine resumes only
/// one of them. `stats` is the operation-counter prefix at the point,
/// needed to attribute a representative's suffix work to skipped members;
/// `cov` is the coverage-plane prefix snapshot, attributed the same way.
#[derive(Debug, Clone)]
pub(crate) struct PointRecord {
    pub phase: usize,
    pub point: usize,
    pub fingerprint: u64,
    pub stats: ExecStats,
    pub cov: obs::SiteTable,
}

impl PointRecord {
    /// Estimated cost of resuming from this crash point, in events: the
    /// profiling run executed `profile_total` events end-to-end and this
    /// point's prefix covered `stats.events()` of them, so the suffix run
    /// replays roughly the difference (plus the post-crash phases, a
    /// per-point constant that cancels out of relative weights). Clamped to
    /// at least 1 so the scheduler's cost buckets never see a zero-weight
    /// job. Late crash points are cheap, early ones expensive.
    pub fn suffix_cost(&self, profile_total: u64) -> u64 {
        profile_total.saturating_sub(self.stats.events()).max(1)
    }
}

/// Snapshot collection plugged into the profiling run's [`Core`].
///
/// Capture happens inside [`Shared::crash_point`], *before* the point is
/// counted — exactly the state a full run with `crash_target == point`
/// would have reached, since the deterministic pre-crash schedule is
/// bit-reproducible.
pub(crate) struct SnapshotLog {
    /// Snapshots are taken only in phases `0..capture_phases` (the phases
    /// crash targets are injected into).
    pub capture_phases: usize,
    /// When `false`, the log runs in records-only mode: every point still
    /// gets a [`PointRecord`] (the coverage plane's crash-space cartography
    /// is derived from the record stream, whatever the resume strategy),
    /// but no [`Snapshot`] is captured — fork is off.
    pub capture_snaps: bool,
    /// Current phase index, maintained by the engine's phase prologue.
    pub phase: usize,
    pub snaps: Vec<Snapshot>,
    /// One record per crash point in the capture phases, snapshot or not.
    pub records: Vec<PointRecord>,
    /// Paranoid verification: capture every point, not only each class's
    /// representative, so the engine can execute skipped members and
    /// cross-check attribution.
    pub paranoid: bool,
    /// Periodic crash-point sampling (`--sample-every N`): observe only
    /// points whose phase-local index is a multiple of `sample`. `0` and `1`
    /// both mean "every point". Sampled-out points get neither a
    /// [`PointRecord`] nor a [`Snapshot`], so the engine's target list (also
    /// restricted to multiples of `sample`) stays aligned with `records`.
    pub sample: usize,
    /// `(phase, fingerprint)` of the most recent point, for the skip check.
    last: Option<(usize, u64)>,
    /// Set when the sink cannot fork; the engine then falls back to full
    /// re-execution.
    pub unsupported: bool,
}

impl SnapshotLog {
    pub fn new(capture_phases: usize, capture_snaps: bool, paranoid: bool, sample: usize) -> Self {
        SnapshotLog {
            capture_phases,
            capture_snaps,
            phase: 0,
            snaps: Vec::new(),
            records: Vec::new(),
            paranoid,
            sample,
            last: None,
            unsupported: false,
        }
    }
}

/// Everything shared between simulated tasks and the engine host.
pub(crate) struct Core {
    pub mem: MemState,
    pub sink: Box<dyn EventSink>,
    pub sched: Sched,
    pub crash: CrashCtl,
    pub rng: StdRng,
    /// Panic messages from simulated-task code (post-crash symptoms).
    pub panics: Vec<String>,
    /// Snapshot collection, installed only for a profiling run in fork mode.
    pub snaplog: Option<SnapshotLog>,
}

/// The shared handle: a mutex-protected [`Core`] plus its condvar.
pub(crate) struct Shared {
    pub core: Mutex<Core>,
    pub cond: Condvar,
}

impl Shared {
    pub fn new(mem: MemState, sink: Box<dyn EventSink>, policy: SchedPolicy, rng: StdRng) -> Self {
        Shared {
            core: Mutex::new(Core {
                mem,
                sink,
                sched: Sched::new(policy),
                crash: CrashCtl::default(),
                rng,
                panics: Vec::new(),
                snaplog: None,
            }),
            cond: Condvar::new(),
        }
    }

    /// Rebuilds a shared handle around an already-populated core (resuming
    /// from a [`Snapshot`]).
    pub fn from_parts(core: Core) -> Self {
        Shared {
            core: Mutex::new(core),
            cond: Condvar::new(),
        }
    }

    /// Runs `f` with the core locked. The caller must hold the token.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        let mut core = self.core.lock();
        f(&mut core)
    }

    /// Blocks until `tid` holds the token (a freshly spawned task's first
    /// action).
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashUnwind`] if a crash is injected while waiting.
    pub fn wait_for_token(&self, tid: ThreadId) {
        let mut guard = self.core.lock();
        while guard.sched.token != tid && !guard.sched.crashed {
            self.cond.wait(&mut guard);
        }
        if guard.sched.crashed {
            drop(guard);
            std::panic::panic_any(CrashUnwind);
        }
    }

    /// A scheduling point for task `tid`: performs buffer evictions per
    /// policy, hands the token to the next task, and blocks until the token
    /// returns.
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashUnwind`] if a crash has been injected.
    pub fn yield_now(&self, tid: ThreadId) {
        let mut guard = self.core.lock();
        if guard.sched.crashed {
            drop(guard);
            std::panic::panic_any(CrashUnwind);
        }
        Self::do_evictions(&mut guard);
        {
            let core = &mut *guard;
            if let Some(next) = core.sched.pick_next(tid, &mut core.rng) {
                core.sched.token = next;
            }
        }
        self.cond.notify_all();
        while guard.sched.token != tid && !guard.sched.crashed {
            self.cond.wait(&mut guard);
        }
        if guard.sched.crashed {
            drop(guard);
            std::panic::panic_any(CrashUnwind);
        }
    }

    /// Buffer evictions at a scheduling point.
    fn do_evictions(core: &mut Core) {
        let Core {
            mem,
            sink,
            sched,
            rng,
            ..
        } = core;
        match sched.policy {
            SchedPolicy::Deterministic | SchedPolicy::Scripted => mem.drain_all_sbs(sink.as_mut()),
            SchedPolicy::RandomChoice => {
                for t in mem.threads_with_buffered_stores() {
                    // Evict a random number of entries, choosing among the
                    // legally evictable positions each step (this is where
                    // clwb-overtaking-store reordering is explored).
                    let n = rng.gen_range(0..=mem.sb_len(t));
                    for _ in 0..n {
                        let positions = mem.evictable(t);
                        if positions.is_empty() {
                            break;
                        }
                        let pos = positions[rng.gen_range(0..positions.len())];
                        mem.evict_one(sink.as_mut(), t, pos);
                    }
                }
            }
        }
    }

    /// Registers a crash point at task `tid`'s current position; if the
    /// injection target is here, marks the run crashed and unwinds.
    pub fn crash_point(&self, _tid: ThreadId) {
        let mut core = self.core.lock();
        if core.sched.crashed {
            drop(core);
            std::panic::panic_any(CrashUnwind);
        }
        Self::maybe_snapshot(&mut core);
        if core.crash.hit() {
            if core.sched.policy == SchedPolicy::Deterministic {
                // Commit recently executed stores so the crash lands in the
                // store→flush window rather than losing the stores outright.
                let Core { mem, sink, .. } = &mut *core;
                mem.drain_all_sbs(sink.as_mut());
            }
            core.sched.crashed = true;
            let exec = core.mem.cur.id;
            core.sink.on_crash(exec);
            self.cond.notify_all();
            drop(core);
            std::panic::panic_any(CrashUnwind);
        }
    }

    /// Captures a [`Snapshot`] at the current crash point, if the core's
    /// snapshot log wants one.
    ///
    /// Must run before [`CrashCtl::hit`] counts the point: the captured
    /// state is then exactly what a full run targeting this point sees when
    /// its injected crash fires.
    fn maybe_snapshot(core: &mut Core) {
        let Core {
            mem,
            sink,
            sched,
            crash,
            rng,
            panics,
            snaplog,
        } = core;
        let Some(log) = snaplog else { return };
        if log.unsupported || log.phase >= log.capture_phases {
            return;
        }
        if log.sample > 1 && crash.seen % log.sample != 0 {
            return; // sampled out: not a target, so record nothing
        }
        // The point's class fingerprint: everything that determines the
        // observable result of resuming from here. Both components are O(1)
        // reads of rolling hashes, so this costs nothing per point.
        let fp = {
            let mut f = pmem::Fp64::new();
            f.absorb(log.phase as u64);
            f.absorb(mem.fingerprint());
            f.absorb(sink.fingerprint_token());
            f.absorb(panics.len() as u64);
            f.value()
        };
        log.records.push(PointRecord {
            phase: log.phase,
            point: crash.seen,
            fingerprint: fp,
            stats: mem.stats,
            cov: mem.cov.clone(),
        });
        let fresh = log.last != Some((log.phase, fp));
        log.last = Some((log.phase, fp));
        if !log.capture_snaps {
            // Records-only mode: cartography wants the point stream, but no
            // resume strategy will consume snapshots.
            return;
        }
        if !log.paranoid && !fresh {
            // Same class as the previous point: its representative snapshot
            // is already captured. Skipping `mem.fork()` here is the
            // profiling-run half of the pruning win.
            return;
        }
        // Telemetry (wall-clock plane): time the capture itself — the
        // copy-on-write forks below are the snapshot cost the profile
        // attributes to `snapshot-capture`.
        let tel = mem.telemetry().filter(|t| t.enabled());
        let t0 = tel.as_ref().map(|_| std::time::Instant::now());
        match sink.fork_sink() {
            Some(fsink) => log.snaps.push(Snapshot {
                phase: log.phase,
                point: crash.seen,
                mem: mem.fork(),
                sink: fsink,
                sched: sched.fork(),
                rng: rng.clone(),
                panics: panics.clone(),
            }),
            None => log.unsupported = true,
        }
        if let (Some(tel), Some(t0)) = (tel, t0) {
            tel.add_phase(obs::WallPhase::SnapshotCapture, t0.elapsed());
        }
    }

    /// Marks task `tid` finished and hands the token onward. Called by the
    /// task wrapper as its last action (also after a crash unwind).
    pub fn finish_task(&self, tid: ThreadId) {
        let mut guard = self.core.lock();
        let core = &mut *guard;
        if let Some(state) = core.sched.tasks.get_mut(&tid) {
            *state = TaskState::Finished;
        }
        core.sched.active -= 1;
        if core.sched.token == tid {
            if let Some(next) = core.sched.pick_next(tid, &mut core.rng) {
                core.sched.token = next;
            }
        }
        self.cond.notify_all();
    }

    /// Blocks the host thread until every task has finished or unwound.
    pub fn wait_all_tasks(&self) {
        let mut core = self.core.lock();
        while core.sched.active > 0 {
            self.cond.wait(&mut core);
        }
    }
}
