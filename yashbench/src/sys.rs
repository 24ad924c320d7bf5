//! Process resource usage: CPU time and context switches from
//! `getrusage(2)`, peak RSS from `/proc/self/status`.

use std::time::Duration;

/// The fields of `struct rusage` the benchmark reads, plus the layout
/// around them (Linux, 64-bit `long` and `time_t`).
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Caps glibc's malloc arenas at `arenas`. Call before any thread starts.
///
/// By default glibc opens up to eight arenas per core as threads contend,
/// and the engine starts an OS thread per simulated task, so how many
/// arenas a run ends up holding — and so its resident memory — depends on
/// thread timing: the same kv-stream run peaked anywhere from 7.5 to
/// 13.6 MB. With one arena per worker the peak repeats to within a few
/// percent, and round times are unchanged.
pub fn cap_malloc_arenas(arenas: usize) {
    let arenas = i32::try_from(arenas).unwrap_or(i32::MAX);
    // SAFETY: `mallopt` takes two ints and only adjusts allocator tuning;
    // it is called before the benchmark starts any thread.
    let ok = unsafe { mallopt(M_ARENA_MAX, arenas) };
    assert_eq!(ok, 1, "mallopt(M_ARENA_MAX, {arenas}) failed");
}

const RUSAGE_SELF: i32 = 0;

/// Resource usage of the whole process, every thread included (also the
/// engine's task threads that have already exited).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub ivcsw: u64,
}

impl Usage {
    /// Reads the process's usage now.
    pub fn now() -> Usage {
        let mut raw = RawUsage::default();
        // SAFETY: `raw` is a writable, properly aligned `repr(C)` struct
        // with the size and field order of Linux's 64-bit `struct rusage`,
        // which is all `getrusage` writes to.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let time = |tv: [i64; 2]| Duration::new(tv[0] as u64, tv[1] as u32 * 1000);
        Usage {
            user: time(raw.utime),
            sys: time(raw.stime),
            vcsw: raw.nvcsw as u64,
            ivcsw: raw.nivcsw as u64,
        }
    }

    /// The usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }

    /// Adds `other`'s counters into `self`.
    pub fn add(&mut self, other: &Usage) {
        self.user += other.user;
        self.sys += other.sys;
        self.vcsw += other.vcsw;
        self.ivcsw += other.ivcsw;
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }
}

/// Resets this process's peak resident set size to its current one, so
/// the next [`peak_rss_kib`] covers only what ran since.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
}

/// Peak resident set size of this process image in KiB (`VmHWM`).
///
/// Not `ru_maxrss`: that survives `execve`, so under a launcher such as
/// `cargo run` it reports the launcher's peak. `VmHWM` belongs to the
/// current image, and one invocation runs one workload, so the peak is that
/// workload's alone.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}
