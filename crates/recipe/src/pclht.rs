//! P-CLHT: the persistent Cache-Line Hash Table from the RECIPE suite.
//!
//! P-CLHT is the one benchmark in which Yashme found **no** persistency
//! races (Table 5): its lock-free design declares the critical store
//! operations `volatile`, which prevents the compiler from tearing or
//! inventing stores (§3.2: "critical store operations are defined as
//! volatile and the compiler did not optimize them with memory
//! operations"). The port models `volatile` as relaxed-atomic stores.

use compiler_model::{SourceProfile, SourceUnit};
use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::util::{as_ptr, flush_range, hash64, open_pool, seal_pool};

/// Buckets in the table.
pub const NUM_BUCKETS: u64 = 4;
/// Key/value entries per bucket (one cache line holds the bucket).
pub const ENTRIES_PER_BUCKET: u64 = 3;

// Bucket layout: { lock u64, keys[3] u64, values[3] u64 } = 56 bytes, one
// cache line.
const OFF_LOCK: u64 = 0;
const OFF_KEYS: u64 = 8;
const OFF_VALUES: u64 = 32;
/// Byte size of one bucket.
pub const BUCKET_BYTES: u64 = 56;

const TABLE_SLOT: u64 = 0;

/// A P-CLHT handle.
#[derive(Debug, Clone, Copy)]
pub struct Pclht {
    buckets: Addr,
}

impl Pclht {
    /// Creates an empty table.
    pub fn create(ctx: &mut Ctx) -> Pclht {
        let buckets = ctx.alloc_line_aligned(NUM_BUCKETS * 64);
        // Bucket initialization writes each entry with volatile stores —
        // which is exactly why clang cannot convert them into a memset.
        for b in 0..NUM_BUCKETS {
            let bucket = buckets + b * 64;
            ctx.store_u64(bucket + OFF_LOCK, 0, Atomicity::Relaxed, "bucket.lock");
            for e in 0..ENTRIES_PER_BUCKET {
                ctx.store_u64(
                    bucket + OFF_KEYS + e * 8,
                    0,
                    Atomicity::Relaxed,
                    "bucket.key",
                );
                ctx.store_u64(
                    bucket + OFF_VALUES + e * 8,
                    0,
                    Atomicity::Relaxed,
                    "bucket.val",
                );
            }
            flush_range(
                ctx,
                bucket,
                BUCKET_BYTES,
                "bucket::ctor flush (clht_lb_res.h)",
            );
        }
        ctx.sfence_labeled("bucket::ctor fence (clht_lb_res.h)");
        ctx.store_u64(
            ctx.root_slot(TABLE_SLOT),
            buckets.raw(),
            Atomicity::ReleaseAcquire,
            "clht.table",
        );
        ctx.clflush_labeled(
            ctx.root_slot(TABLE_SLOT),
            "clht.table flush (clht_lb_res.h)",
        );
        ctx.sfence_labeled("clht.table fence (clht_lb_res.h)");
        Pclht { buckets }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx) -> Option<Pclht> {
        let buckets = as_ptr(ctx.load_acquire_u64(ctx.root_slot(TABLE_SLOT)))?;
        Some(Pclht { buckets })
    }

    /// The bucket index `key` hashes to (exposed so capacity-aware tests
    /// can mirror the table's placement).
    pub fn bucket_index(key: u64) -> u64 {
        hash64(key) % NUM_BUCKETS
    }

    fn bucket_of(&self, key: u64) -> Addr {
        self.buckets + Self::bucket_index(key) * 64
    }

    /// Inserts `key → value` with volatile (relaxed-atomic) stores: value
    /// first, then the key that publishes the entry, then flush.
    pub fn put(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        assert!(key != 0, "key 0 is the empty marker");
        let bucket = self.bucket_of(key);
        for e in 0..ENTRIES_PER_BUCKET {
            let k = ctx.load_u64(bucket + OFF_KEYS + e * 8, Atomicity::Relaxed);
            if k == 0 || k == key {
                ctx.store_u64(
                    bucket + OFF_VALUES + e * 8,
                    value,
                    Atomicity::Relaxed,
                    "bucket.val",
                );
                ctx.store_u64(
                    bucket + OFF_KEYS + e * 8,
                    key,
                    Atomicity::ReleaseAcquire,
                    "bucket.key",
                );
                flush_range(ctx, bucket, BUCKET_BYTES, "clht_put flush (clht_lb_res.h)");
                ctx.sfence_labeled("clht_put fence (clht_lb_res.h)");
                return true;
            }
        }
        false
    }

    /// Removes `key` by storing the empty marker over its key slot with a
    /// volatile (release-atomic) store, then flushing — the same
    /// tear-proof discipline as [`Pclht::put`]. The value slot is left
    /// stale; an unpublished key makes it unreachable, and a later insert
    /// into the slot overwrites the value before re-publishing the key.
    pub fn remove(&self, ctx: &mut Ctx, key: u64) -> bool {
        assert!(key != 0, "key 0 is the empty marker");
        let bucket = self.bucket_of(key);
        for e in 0..ENTRIES_PER_BUCKET {
            let k = ctx.load_u64(bucket + OFF_KEYS + e * 8, Atomicity::Relaxed);
            if k == key {
                ctx.store_u64(
                    bucket + OFF_KEYS + e * 8,
                    0,
                    Atomicity::ReleaseAcquire,
                    "bucket.key",
                );
                flush_range(
                    ctx,
                    bucket,
                    BUCKET_BYTES,
                    "clht_remove flush (clht_lb_res.h)",
                );
                ctx.sfence_labeled("clht_remove fence (clht_lb_res.h)");
                return true;
            }
        }
        false
    }

    /// Looks up `key` with volatile loads.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let bucket = self.bucket_of(key);
        for e in 0..ENTRIES_PER_BUCKET {
            let k = ctx.load_acquire_u64(bucket + OFF_KEYS + e * 8);
            if k == key {
                return Some(ctx.load_u64(bucket + OFF_VALUES + e * 8, Atomicity::Relaxed));
            }
        }
        None
    }
}

/// Keys used by the example driver.
pub const DRIVER_KEYS: [u64; 5] = [3, 14, 15, 92, 65];

/// The example test application.
pub fn program() -> Program {
    Program::new("P-CLHT")
        .pre_crash(|ctx: &mut Ctx| {
            let table = Pclht::create(ctx);
            seal_pool(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                table.put(ctx, k, (i as u64 + 1) * 11);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if !open_pool(ctx) {
                return;
            }
            if let Some(table) = Pclht::open(ctx) {
                for &k in &DRIVER_KEYS {
                    let _ = table.get(ctx, k);
                }
            }
        })
}

/// P-CLHT has no persistency races (Table 3/Table 5).
pub const EXPECTED_RACES: &[&str] = &[];

/// Table 2b profile (paper: 0 → 0): every critical store is volatile, so
/// clang neither finds explicit mem-ops nor introduces any.
pub fn source_profile() -> SourceProfile {
    use SourceUnit::*;
    SourceProfile::new(
        "P-CLHT",
        vec![
            vec![AtomicStores { count: 28 }],
            vec![AtomicStores { count: 12 }],
            vec![ScatteredStores { count: 6 }],
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::Engine;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = Pclht::create(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(t.put(ctx, k, (i as u64 + 1) * 11));
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += t.get(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        Engine::run_plain(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), 11 + 22 + 33 + 44 + 55);
    }

    #[test]
    fn remove_unpublishes_and_frees_slot() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = Pclht::create(ctx);
            assert!(t.put(ctx, 3, 1));
            assert!(t.remove(ctx, 3));
            assert_eq!(t.get(ctx, 3), None);
            assert!(!t.remove(ctx, 3), "second remove finds nothing");
            // The freed slot is reusable and serves fresh values.
            assert!(t.put(ctx, 3, 9));
            assert_eq!(t.get(ctx, 3), Some(9));
        });
        Engine::run_plain(&program, 2);
    }

    #[test]
    fn update_overwrites() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = Pclht::create(ctx);
            t.put(ctx, 3, 1);
            t.put(ctx, 3, 2);
            assert_eq!(t.get(ctx, 3), Some(2));
        });
        Engine::run_plain(&program, 2);
    }

    #[test]
    fn bucket_fits_one_cache_line() {
        const { assert!(BUCKET_BYTES <= 64) };
    }

    #[test]
    fn profile_matches_table2b_row() {
        let p = source_profile();
        assert_eq!(p.source_counts().total(), 0);
        assert_eq!(
            p.asm_counts(&compiler_model::CompilerConfig::clang_o3_x86())
                .total(),
            0
        );
    }

    #[test]
    fn model_check_finds_no_races() {
        // The headline property of P-CLHT: volatile critical stores mean no
        // persistency races even under full model checking.
        let report = yashme::model_check(&program());
        assert!(report.race_labels().is_empty(), "{report}");
    }
}
