//! Differential property tests: the inline/copy-on-write [`VectorClock`]
//! against the legacy `Vec`-backed layout ([`vclock::legacy::VectorClock`]).
//!
//! Both implementations are driven through identical randomly generated
//! operation sequences; after every step each observable surface — `get`,
//! `len`, `is_empty`, `leq` in both directions, `happens_before`,
//! `concurrent_with`, `contains`, `iter`, `Display`, `Debug`, equality of
//! independently evolved pairs — must agree exactly. The legacy layout is
//! the semantic specification; any divergence is a bug in the new
//! representation, not a judgment call.

use proptest::prelude::*;
use vclock::{legacy, ThreadId, VectorClock};

/// One mutation step applied to both implementations in lockstep. Thread
/// indices straddle the inline capacity (4) so sequences routinely cross
/// the inline→heap spill boundary; clones force the copy-on-write path.
#[derive(Debug, Clone)]
enum Op {
    Set(u32, u64),
    Tick(u32),
    JoinOther,
    JoinSnapshot,
    CloneFromSnapshot,
    SnapshotSelf,
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..10, 0u64..50).prop_map(|(t, c)| Op::Set(t, c)),
        (0u32..10).prop_map(Op::Tick),
        Just(Op::JoinOther),
        Just(Op::JoinSnapshot),
        Just(Op::CloneFromSnapshot),
        Just(Op::SnapshotSelf),
        Just(Op::Clear),
    ]
}

/// A pair of clocks evolved in lockstep across both implementations.
struct Pair {
    new: VectorClock,
    old: legacy::VectorClock,
}

impl Pair {
    fn empty() -> Self {
        Pair {
            new: VectorClock::new(),
            old: legacy::VectorClock::new(),
        }
    }

    fn assert_same(&self) {
        assert_eq!(self.new.len(), self.old.len(), "len diverged");
        assert_eq!(
            self.new.is_empty(),
            self.old.is_empty(),
            "is_empty diverged"
        );
        for i in 0..12u32 {
            let t = ThreadId::new(i);
            assert_eq!(self.new.get(t), self.old.get(t), "get({t}) diverged");
        }
        assert_eq!(
            self.new.iter().collect::<Vec<_>>(),
            self.old.iter().collect::<Vec<_>>(),
            "iter diverged"
        );
        assert_eq!(format!("{}", self.new), format!("{}", self.old));
        assert_eq!(format!("{:?}", self.new), format!("{:?}", self.old));
        assert_eq!(
            self.new.max_component(),
            self.new.iter().map(|(_, c)| c).max().unwrap_or(0),
            "cached max went stale"
        );
    }
}

/// Runs `ops` against a (subject, other-clock, snapshot) triple in both
/// implementations, checking every observable after every step.
fn run_lockstep(ops: &[Op], seed_other: &[(u32, u64)]) {
    let mut subject = Pair::empty();
    let mut other = Pair::empty();
    for &(t, c) in seed_other {
        other.new.set(ThreadId::new(t), c);
        other.old.set(ThreadId::new(t), c);
    }
    let mut snap_new = subject.new.clone();
    let mut snap_old = subject.old.clone();
    for op in ops {
        match op {
            Op::Set(t, c) => {
                subject.new.set(ThreadId::new(*t), *c);
                subject.old.set(ThreadId::new(*t), *c);
            }
            Op::Tick(t) => {
                assert_eq!(
                    subject.new.tick(ThreadId::new(*t)),
                    subject.old.tick(ThreadId::new(*t)),
                    "tick return diverged"
                );
            }
            Op::JoinOther => {
                subject.new.join(&other.new);
                subject.old.join(&other.old);
            }
            Op::JoinSnapshot => {
                subject.new.join(&snap_new);
                subject.old.join(&snap_old);
            }
            Op::CloneFromSnapshot => {
                subject.new = snap_new.clone();
                subject.old = snap_old.clone();
            }
            Op::SnapshotSelf => {
                snap_new = subject.new.clone();
                snap_old = subject.old.clone();
            }
            Op::Clear => {
                subject.new.clear();
                subject.old.clear();
            }
        }
        subject.assert_same();
        // Relational observables against the independently held clocks.
        for (n, o) in [(&other.new, &other.old), (&snap_new, &snap_old)] {
            assert_eq!(subject.new.leq(n), subject.old.leq(o), "leq diverged");
            assert_eq!(
                n.leq(&subject.new),
                o.leq(&subject.old),
                "leq (flipped) diverged"
            );
            assert_eq!(
                subject.new.happens_before(n),
                subject.old.happens_before(o),
                "happens_before diverged"
            );
            assert_eq!(
                subject.new.concurrent_with(n),
                subject.old.concurrent_with(o),
                "concurrent_with diverged"
            );
            assert_eq!(
                subject.new.joined(n).iter().collect::<Vec<_>>(),
                subject.old.joined(o).iter().collect::<Vec<_>>(),
                "joined diverged"
            );
        }
        for t in 0..6u32 {
            for c in [0u64, 1, 3, 40] {
                assert_eq!(
                    subject.new.contains(ThreadId::new(t), c),
                    subject.old.contains(ThreadId::new(t), c),
                    "contains diverged"
                );
            }
        }
    }
    // Equality semantics: rebuild a second subject via the same ops and
    // assert the two implementations agree on whether the pairs are equal.
    let rebuilt_new: VectorClock = subject.new.iter().collect();
    let rebuilt_old: legacy::VectorClock = subject.old.iter().collect();
    assert_eq!(
        subject.new == rebuilt_new,
        subject.old == rebuilt_old,
        "equality (trailing-zero identity) diverged"
    );
}

proptest! {
    #[test]
    fn lockstep_sequences_agree(
        ops in proptest::collection::vec(arb_op(), 1..40),
        seed in proptest::collection::vec((0u32..10, 0u64..50), 0..8),
    ) {
        run_lockstep(&ops, &seed);
    }
}

#[test]
fn spill_boundary_sequence_agrees() {
    // A deterministic walk straight across the inline→heap boundary with
    // aliased clones in play.
    let ops = [
        Op::Set(3, 7),
        Op::SnapshotSelf,
        Op::Set(4, 1), // first heap spill
        Op::CloneFromSnapshot,
        Op::Tick(9),
        Op::JoinOther,
        Op::SnapshotSelf,
        Op::JoinSnapshot, // self-join through shared storage
        Op::Set(9, 0),
        Op::Clear,
        Op::Tick(0),
    ];
    run_lockstep(&ops, &[(0, 2), (7, 5)]);
}

#[test]
fn trailing_zero_equality_matches_legacy() {
    let mut a_new = VectorClock::singleton(ThreadId::new(0), 1);
    let mut a_old = legacy::VectorClock::singleton(ThreadId::new(0), 1);
    let b_new = a_new.clone();
    let b_old = a_old.clone();
    a_new.set(ThreadId::new(5), 0);
    a_old.set(ThreadId::new(5), 0);
    assert_eq!(a_new == b_new, a_old == b_old);
    assert_eq!(a_new.len(), a_old.len());
}
