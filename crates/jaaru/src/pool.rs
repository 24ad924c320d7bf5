//! Parallel fan-out of the engine's independent jobs (crash-point
//! suffixes, run specs, scripted schedules).
//!
//! [`run`] groups the items into consecutive chunks of roughly equal
//! estimated cost and runs them on `min(workers, chunks)` lanes inside one
//! `std::thread::scope`: the caller is lane 0, the rest are scoped helper
//! threads, and every lane claims chunk indices from one atomic cursor.
//! With one lane nothing is spawned. Lanes decide only where and when a
//! chunk runs: chunk boundaries are a pure function of (costs, worker
//! bound) and results come back in item order, so every deterministic
//! surface is the same at every worker count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use obs::telemetry::{Telemetry, WorkerStat};

/// Splits `n` items into chunks of roughly equal estimated cost.
///
/// `costs` (when present) holds one non-negative estimate per item —
/// the engine passes suffix-length estimates derived from the profiling
/// run — and items are grouped *consecutively*, so chunk boundaries are
/// a deterministic function of the estimates and the worker bound.
/// Aiming for several chunks per executor lets a lane that drew short
/// chunks take more instead of idling behind a long one.
fn chunk_ranges(costs: Option<&[u64]>, n: usize, executors: usize) -> Vec<(usize, usize)> {
    const CHUNKS_PER_EXECUTOR: u64 = 4;
    let total: u64 = match costs {
        Some(c) => c.iter().map(|&x| x.max(1)).sum(),
        None => n as u64,
    };
    let target = (total / (executors as u64 * CHUNKS_PER_EXECUTOR).max(1)).max(1);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for i in 0..n {
        acc += costs.map_or(1, |c| c[i].max(1));
        if acc >= target {
            ranges.push((start, i + 1 - start));
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        ranges.push((start, n - start));
    }
    ranges
}

/// Runs `job` over every item on up to `workers` lanes and returns the
/// results in item order; `costs` (one estimate per item) only shapes the
/// chunks. Each lane's busy time and chunk count go to `tel`, and the
/// caller's idle time is its wait for the helpers. A job panic stops its
/// lane and is re-raised here once every lane has been joined.
pub fn run<T: Send, R: Send>(
    items: Vec<T>,
    costs: Option<&[u64]>,
    workers: usize,
    tel: &Telemetry,
    job: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    debug_assert!(costs.is_none_or(|c| c.len() == n));
    let ranges = chunk_ranges(costs, n, workers.clamp(1, n.max(1)));
    let mut items = items.into_iter();
    let chunks: Vec<Mutex<Vec<T>>> = ranges
        .iter()
        .map(|&(_, len)| Mutex::new(items.by_ref().take(len).collect()))
        .collect();
    // Relaxed suffices: the cursor only hands out indices; each chunk's
    // items are handed over by its mutex and results by the scope's join.
    let cursor = AtomicUsize::new(0);
    let lane = || {
        let (mut done, mut busy) = (Vec::new(), Duration::ZERO);
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(k) else { break };
            let t0 = Instant::now();
            let chunk = std::mem::take(&mut *chunk.lock().expect("chunk slot"));
            done.push((k, chunk.into_iter().map(&job).collect::<Vec<R>>()));
            busy += t0.elapsed();
        }
        (done, busy)
    };
    let lanes = workers.clamp(1, ranges.len().max(1));
    let (outcomes, join_wait) = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..lanes)
            .map(|_| s.spawn(|| catch_unwind(AssertUnwindSafe(&lane))))
            .collect();
        let mut outcomes = vec![catch_unwind(AssertUnwindSafe(&lane))];
        let t0 = Instant::now();
        outcomes.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("lanes catch their panics")),
        );
        (outcomes, t0.elapsed())
    });
    let mut done = Vec::with_capacity(ranges.len());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let (chunks, busy) = outcome.unwrap_or_else(|payload| resume_unwind(payload));
        let idle = if i == 0 { join_wait } else { Duration::ZERO };
        let jobs = chunks.len() as u64;
        tel.record_worker(i, WorkerStat { busy, idle, jobs });
        done.extend(chunks);
    }
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().flat_map(|(_, results)| results).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_all_items() {
        for (costs, n, execs) in [
            (None, 0usize, 4usize),
            (None, 1, 4),
            (None, 100, 4),
            (Some(vec![1u64; 7]), 7, 2),
            (Some(vec![1000, 1, 1, 1, 1, 1000, 3]), 7, 3),
            (Some(vec![0, 0, 0]), 3, 8),
        ] {
            let ranges = chunk_ranges(costs.as_deref(), n, execs);
            let mut next = 0usize;
            for &(start, len) in &ranges {
                assert_eq!(start, next, "ranges must be consecutive");
                assert!(len > 0, "no empty chunks");
                next = start + len;
            }
            assert_eq!(next, n, "every item covered exactly once");
        }
    }

    #[test]
    fn chunking_is_a_pure_function_of_costs() {
        let costs = vec![5u64, 9, 2, 2, 2, 40, 1, 1];
        let a = chunk_ranges(Some(&costs), costs.len(), 3);
        let b = chunk_ranges(Some(&costs), costs.len(), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_items_get_their_own_chunks() {
        // One dominant item must not drag its neighbours into one chunk.
        let costs = vec![1u64, 1, 1_000_000, 1, 1];
        let ranges = chunk_ranges(Some(&costs), costs.len(), 2);
        assert!(
            ranges.len() >= 2,
            "cost bucketing should split around the heavy item: {ranges:?}"
        );
    }

    fn times(m: u64, workers: usize) -> Vec<u64> {
        run((0..257).collect(), None, workers, Telemetry::off(), |x| {
            x * m
        })
    }

    #[test]
    fn run_returns_results_in_item_order() {
        for workers in [1, 4] {
            assert_eq!(
                times(3, workers),
                (0..257).map(|x| x * 3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn results_keep_item_order_when_later_chunks_finish_first() {
        // Item 0 blocks until item 31 has run, so the first chunk finishes
        // after the last one. Four lanes over 16 chunks: the others go on.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let out = run((0..32u64).collect(), None, 4, Telemetry::off(), |x| {
            match x {
                0 => rx.lock().unwrap().recv().expect("item 31 ran"),
                31 => tx.send(()).expect("item 0 waits"),
                _ => {}
            }
            x + 100
        });
        assert_eq!(out, (100..132).collect::<Vec<_>>());
    }

    #[test]
    fn worker_stats_are_aggregated_per_lane() {
        // Two batches, one stat per lane: never one per (batch, lane).
        for workers in [2, 1] {
            let tel = Telemetry::new();
            let costs: Vec<u64> = (0..64).map(|i| 1 + i % 5).collect();
            for _ in 0..2 {
                run((0..64).collect(), Some(&costs), workers, &tel, |x: u64| x);
            }
            let stats = tel.worker_stats();
            assert!(!stats.is_empty() && stats.len() <= workers, "{stats:?}");
            let chunks = chunk_ranges(Some(&costs), 64, workers).len() as u64;
            assert_eq!(stats.iter().map(|w| w.jobs).sum::<u64>(), 2 * chunks);
        }
    }

    #[test]
    fn run_propagates_job_panics() {
        let result = std::panic::catch_unwind(|| {
            run((0..16u64).collect(), None, 4, Telemetry::off(), |x| {
                assert!(x != 11, "boom at {x}");
            })
        });
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload.downcast::<String>().map(|m| *m).unwrap_or_default();
        assert!(msg.contains("boom at 11"), "got: {msg}");
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        // Two callers at once — the overlapped-suite shape — each with its
        // own helper lanes.
        std::thread::scope(|s| {
            let a = s.spawn(|| times(2, 4));
            let b = s.spawn(|| times(5, 4));
            assert_eq!(a.join().unwrap(), times(2, 1));
            assert_eq!(b.join().unwrap(), times(5, 1));
        });
    }
}
