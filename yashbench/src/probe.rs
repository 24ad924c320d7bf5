//! Outside-in tracing: spans and counts taken around calls into the
//! library's public interfaces, never inside the program.
//!
//! Two boundaries are wrapped:
//!
//! * every `Program::phases()` closure, by rebuilding the program with each
//!   phase body inside a timing guard ([`Probe::wrap`]);
//! * the detector, by wrapping each factory-built sink in a [`TimedSink`]
//!   that forwards every `EventSink` method and times the event hooks.
//!
//! A sink keeps its counters in plain fields and merges them into the
//! shared [`Probe`] once, when the engine drops it; phase spans go into a
//! fixed array through one atomic cursor. No lock is taken per event.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use jaaru::{EventId, EventSink, ExecId, FlushEvent, LoadInfo, Program, RaceReport, StoreEvent};
use vclock::VectorClock;

/// The detector hooks the trace counts, in metric-name order.
pub const HOOKS: [&str; 7] = [
    "store_executed",
    "store_committed",
    "clflush_committed",
    "clwb_fenced",
    "pre_exec_read",
    "crash",
    "stores_retired",
];

const STORE_EXECUTED: usize = 0;
const STORE_COMMITTED: usize = 1;
const CLFLUSH_COMMITTED: usize = 2;
const CLWB_FENCED: usize = 3;
const PRE_EXEC_READ: usize = 4;
const CRASH: usize = 5;
const STORES_RETIRED: usize = 6;

/// Every `CLOCK_EVERY`th executed store's clock is kept for the vclock
/// replay, up to `CLOCKS_PER_SINK` per sink and `CLOCKS_MAX` in all.
const CLOCK_EVERY: u64 = 16;
const CLOCKS_PER_SINK: usize = 16;
const CLOCKS_MAX: usize = 4096;

/// Phase spans one program run may record before the log overflows.
const SPAN_SLOTS: usize = 1 << 16;

/// Counters of one sink, or of every sink merged.
#[derive(Debug, Default, Clone)]
pub struct SinkTally {
    /// Calls per hook, indexed like [`HOOKS`].
    pub calls: [u64; 7],
    /// Nanoseconds inside the wrapped detector per hook.
    pub ns: [u64; 7],
    /// `fork_sink` calls.
    pub fork_calls: u64,
    /// Nanoseconds inside the wrapped detector's `fork_sink`.
    pub fork_ns: u64,
    /// Widest store clock seen.
    pub width_max: usize,
    /// Sampled store clocks, as the detector received them.
    pub clocks: Vec<VectorClock>,
}

impl SinkTally {
    fn absorb(&mut self, other: SinkTally) {
        for i in 0..HOOKS.len() {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.fork_calls += other.fork_calls;
        self.fork_ns += other.fork_ns;
        self.width_max = self.width_max.max(other.width_max);
        let room = CLOCKS_MAX.saturating_sub(self.clocks.len());
        self.clocks.extend(other.clocks.into_iter().take(room));
    }

    /// Nanoseconds inside the detector over all hooks.
    pub fn busy_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Phase-span totals since the last [`Probe::take_phases`].
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTally {
    /// Phase closures run (one engine task thread each).
    pub calls: u64,
    /// Summed phase-span time in nanoseconds.
    pub busy_ns: u64,
    /// Time covered by the union of the spans, in nanoseconds.
    pub covered_ns: u64,
}

/// Shared collector of one traced run.
pub struct Probe {
    epoch: Instant,
    phase_calls: AtomicU64,
    phase_ns: AtomicU64,
    next_span: AtomicUsize,
    spans: Box<[[AtomicU64; 2]]>,
    sinks: Mutex<SinkTally>,
}

impl Probe {
    /// A fresh collector.
    pub fn new() -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            phase_calls: AtomicU64::new(0),
            phase_ns: AtomicU64::new(0),
            next_span: AtomicUsize::new(0),
            spans: (0..SPAN_SLOTS).map(|_| Default::default()).collect(),
            sinks: Mutex::new(SinkTally::default()),
        })
    }

    /// A copy of `program` whose phase bodies run inside a timing span.
    pub fn wrap(self: &Arc<Probe>, program: &Program) -> Program {
        let mut out = Program::new(program.name())
            .with_compiler(program.compiler())
            .with_heap_bytes(program.heap_bytes());
        for body in program.phases() {
            let body = body.clone();
            let probe = Arc::clone(self);
            out = out.phase(move |ctx| {
                // A guard, so a phase cut short by an injected crash (an
                // unwind) still closes its span.
                let _span = PhaseSpan {
                    probe: &probe,
                    start: Instant::now(),
                };
                body(ctx);
            });
        }
        out
    }

    /// A detector sink wrapped for timing, for use in a sink factory.
    pub fn sink(self: &Arc<Probe>, inner: Box<dyn EventSink>) -> Box<dyn EventSink> {
        Box::new(TimedSink {
            inner,
            tally: SinkTally::default(),
            forks: Cell::new((0, 0)),
            stores_seen: 0,
            probe: Arc::clone(self),
        })
    }

    /// Takes the phase totals recorded since the last call. Call only while
    /// no engine run is in flight: the engine has then finished every task,
    /// which orders the span writes before these reads.
    pub fn take_phases(&self) -> PhaseTally {
        let recorded = self.next_span.swap(0, Ordering::Relaxed);
        assert!(
            recorded <= SPAN_SLOTS,
            "{recorded} phase spans in one run overflow the {SPAN_SLOTS}-slot log"
        );
        let mut spans: Vec<(u64, u64)> = self.spans[..recorded]
            .iter()
            .map(|s| (s[0].load(Ordering::Relaxed), s[1].load(Ordering::Relaxed)))
            .collect();
        spans.sort_unstable();
        let mut covered = 0;
        let mut open: Option<(u64, u64)> = None;
        for (start, end) in spans {
            match open {
                Some((s, e)) if start <= e => open = Some((s, e.max(end))),
                _ => {
                    if let Some((s, e)) = open {
                        covered += e - s;
                    }
                    open = Some((start, end));
                }
            }
        }
        if let Some((s, e)) = open {
            covered += e - s;
        }
        PhaseTally {
            calls: self.phase_calls.swap(0, Ordering::Relaxed),
            busy_ns: self.phase_ns.swap(0, Ordering::Relaxed),
            covered_ns: covered,
        }
    }

    /// Takes the merged counters of every sink dropped since the last call.
    pub fn take_sinks(&self) -> SinkTally {
        std::mem::take(&mut *self.sinks.lock().expect("sink tally poisoned"))
    }

    fn nanos_since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

struct PhaseSpan<'a> {
    probe: &'a Probe,
    start: Instant,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        let p = self.probe;
        p.phase_calls.fetch_add(1, Ordering::Relaxed);
        p.phase_ns
            .fetch_add((end - self.start).as_nanos() as u64, Ordering::Relaxed);
        let slot = p.next_span.fetch_add(1, Ordering::Relaxed);
        if let Some(s) = p.spans.get(slot) {
            s[0].store(p.nanos_since_epoch(self.start), Ordering::Relaxed);
            s[1].store(p.nanos_since_epoch(end), Ordering::Relaxed);
        }
    }
}

/// Forwards every [`EventSink`] method to the wrapped detector, timing the
/// event hooks and `fork_sink`. Forks are timed sinks too, so the engine
/// keeps forking exactly as it does for the bare detector.
struct TimedSink {
    inner: Box<dyn EventSink>,
    tally: SinkTally,
    /// `(calls, ns)` of `fork_sink`, which takes `&self`.
    forks: Cell<(u64, u64)>,
    stores_seen: u64,
    probe: Arc<Probe>,
}

impl TimedSink {
    fn timed<R>(&mut self, hook: usize, call: impl FnOnce(&mut dyn EventSink) -> R) -> R {
        let start = Instant::now();
        let out = call(&mut *self.inner);
        self.tally.ns[hook] += start.elapsed().as_nanos() as u64;
        self.tally.calls[hook] += 1;
        out
    }
}

impl Drop for TimedSink {
    fn drop(&mut self) {
        let mut tally = std::mem::take(&mut self.tally);
        (tally.fork_calls, tally.fork_ns) = self.forks.get();
        // Never panic in drop: a poisoned tally only loses this sink's
        // counts, and the panic that poisoned it is reported elsewhere.
        if let Ok(mut merged) = self.probe.sinks.lock() {
            merged.absorb(tally);
        }
    }
}

impl EventSink for TimedSink {
    fn on_execution_start(&mut self, exec: ExecId) {
        self.inner.on_execution_start(exec);
    }

    fn on_store_executed(&mut self, store: &StoreEvent) {
        self.timed(STORE_EXECUTED, |s| s.on_store_executed(store));
        let t = &mut self.tally;
        t.width_max = t.width_max.max(store.cv.len());
        self.stores_seen += 1;
        if self.stores_seen.is_multiple_of(CLOCK_EVERY) && t.clocks.len() < CLOCKS_PER_SINK {
            t.clocks.push(store.cv.clone());
        }
    }

    fn on_store_committed(&mut self, store: &StoreEvent) {
        self.timed(STORE_COMMITTED, |s| s.on_store_committed(store));
    }

    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        self.timed(CLFLUSH_COMMITTED, |s| {
            s.on_clflush_committed(flush, line_stores)
        });
    }

    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        self.timed(CLWB_FENCED, |s| {
            s.on_clwb_fenced(clwb, fence_cv, line_stores)
        });
    }

    fn on_crash(&mut self, exec: ExecId) {
        self.timed(CRASH, |s| s.on_crash(exec));
    }

    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        self.timed(PRE_EXEC_READ, |s| {
            s.on_pre_exec_read(load, chosen, candidates)
        });
    }

    fn on_stores_retired(&mut self, retired: &[EventId]) {
        self.timed(STORES_RETIRED, |s| s.on_stores_retired(retired));
    }

    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        self.inner.live_gauges()
    }

    fn drain_reports(&mut self) -> Vec<RaceReport> {
        self.inner.drain_reports()
    }

    fn drain_trace(&mut self) -> Option<jaaru::obs::TraceBuf> {
        self.inner.drain_trace()
    }

    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        let start = Instant::now();
        let inner = self.inner.fork_sink();
        let (calls, ns) = self.forks.get();
        self.forks
            .set((calls + 1, ns + start.elapsed().as_nanos() as u64));
        Some(self.probe.sink(inner?))
    }

    fn fingerprint_token(&self) -> u64 {
        self.inner.fingerprint_token()
    }
}
