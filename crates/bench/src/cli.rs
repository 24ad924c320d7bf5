//! Shared command-line parsing and telemetry plumbing for the bench
//! binaries.
//!
//! Every `bench` bin accepts the same engine and telemetry flags; parsing
//! them here (once) keeps new flags from having to be replicated across
//! `parallel`, `crashfork`, `crashprune`, `soak`, `memperf`, `trend`, and
//! the table bins. The shared flags are:
//!
//! * `--workers N|auto` (also `--workers=N`) — worker-pool size
//! * `--no-fork` / `--no-gc` — disable a physical strategy
//! * `--gc-every N` / `--sample-every N` — tuning knobs
//! * `--progress` / `--telemetry-out F.jsonl` / `--prom-out F` /
//!   `--profile` — the wall-clock telemetry plane (stderr/side files only)
//! * `--out PATH` — where the bin writes its `BENCH_*.json`
//!
//! Anything unrecognized lands in [`CommonArgs::rest`] for the bin's own
//! loop. [`meta_header`] renders the `schema_version` + run-metadata
//! preamble every `BENCH_*.json` document starts with, so the metadata is
//! emitted by the harness rather than hand-maintained.

use std::sync::Arc;

use jaaru::obs::telemetry::{start_reporter, Reporter, ReporterConfig, Telemetry};
use jaaru::EngineConfig;

/// Schema version stamped into every `BENCH_*.json` document. Bump when a
/// field changes meaning; the `trend` gate refuses to compare documents
/// with mismatched versions.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// The wall-clock telemetry flags shared by every bin.
#[derive(Debug, Default, Clone)]
pub struct TelemetryFlags {
    /// `--progress`: heartbeat lines on stderr.
    pub progress: bool,
    /// `--telemetry-out F`: periodic JSONL snapshots.
    pub telemetry_out: Option<String>,
    /// `--prom-out F`: Prometheus text exposition written at exit.
    pub prom_out: Option<String>,
    /// `--profile`: post-run self-profile tree on stderr.
    pub profile: bool,
}

impl TelemetryFlags {
    /// Whether any telemetry feature was requested.
    pub fn any(&self) -> bool {
        self.progress || self.telemetry_out.is_some() || self.prom_out.is_some() || self.profile
    }

    /// Builds the telemetry handle (enabled iff any flag was given) and
    /// starts the background reporter. Keep the [`Reporter`] alive for the
    /// duration of the measured work; drop it before calling
    /// [`TelemetryFlags::finish`].
    pub fn start(&self, label: &str) -> (Arc<Telemetry>, Reporter) {
        let tel = if self.any() {
            Arc::new(Telemetry::new())
        } else {
            Arc::clone(Telemetry::off())
        };
        let reporter = start_reporter(
            &tel,
            ReporterConfig {
                progress: self.progress,
                jsonl: self.telemetry_out.clone().map(Into::into),
                label: label.to_owned(),
                ..ReporterConfig::default()
            },
        );
        (tel, reporter)
    }

    /// Emits the post-run artifacts: Prometheus exposition to `--prom-out`
    /// and the `--profile` tree to stderr. Call after dropping the
    /// [`Reporter`].
    pub fn finish(&self, tel: &Telemetry) {
        if let Some(path) = &self.prom_out {
            std::fs::write(path, tel.to_prometheus()).expect("write prometheus metrics");
        }
        if self.profile {
            eprint!("{}", tel.render_profile());
        }
    }
}

/// The shared flags, parsed once per bin.
#[derive(Debug)]
pub struct CommonArgs {
    /// Engine configuration after `--workers`/`--no-*`/tuning flags.
    pub engine: EngineConfig,
    /// Whether `--workers` was given explicitly (bins with a non-default
    /// worker count, like `parallel`, keep their own default otherwise).
    pub workers_given: bool,
    /// The wall-clock telemetry flags.
    pub telemetry: TelemetryFlags,
    /// `--out PATH`, if given.
    pub out: Option<String>,
    /// Everything this parser didn't consume, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// True when the *unconsumed* arguments contain `flag` verbatim.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.rest.iter().any(|a| a == flag)
    }

    /// The `--out` path, defaulting to `default` when absent.
    pub fn out_or(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_owned())
    }
}

/// Parses the shared flags from the process arguments; on a malformed
/// value prints the error and exits with status 2.
pub fn common_args() -> CommonArgs {
    parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Parses the number following `flag`.
fn number<N: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<N, String>
where
    N::Err: std::fmt::Display,
{
    let v = value.ok_or_else(|| format!("{flag} needs a number"))?;
    v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
}

/// [`common_args`] over an explicit argument list (testable). Engine flags
/// apply on top of [`EngineConfig::from_env`]; `--workers` sets only the
/// worker count.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
    let mut engine = EngineConfig::from_env();
    let mut workers_given = false;
    let mut telemetry = TelemetryFlags::default();
    let mut out = None;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--no-fork" => engine = engine.with_fork(false),
            "--no-gc" => engine = engine.with_gc(false),
            "--gc-every" => engine = engine.with_gc_every(number("--gc-every", args.next())?),
            "--sample-every" => {
                engine = engine.with_sample_every(number("--sample-every", args.next())?)
            }
            "--progress" => telemetry.progress = true,
            "--telemetry-out" => telemetry.telemetry_out = args.next(),
            "--prom-out" => telemetry.prom_out = args.next(),
            "--profile" => telemetry.profile = true,
            "--out" => out = args.next(),
            _ => {
                let value = if arg == "--workers" {
                    args.next()
                } else {
                    arg.strip_prefix("--workers=").map(str::to_owned)
                };
                match value {
                    Some(v) => {
                        workers_given = true;
                        engine.workers = if v.eq_ignore_ascii_case("auto") {
                            0
                        } else {
                            number("--workers", Some(v))?
                        };
                    }
                    None if arg == "--workers" => return Err("--workers needs a number".into()),
                    None => rest.push(arg),
                }
            }
        }
    }
    Ok(CommonArgs {
        engine,
        workers_given,
        telemetry,
        out,
        rest,
    })
}

/// Renders the `schema_version` + run-metadata preamble of a hand-written
/// `BENCH_*.json` document: schema version, bench name, workload
/// description, and — when the bin drives the engine — the worker count
/// and strategy flags. The caller appends its own fields after this.
pub fn meta_header(bench: &str, workload: &str, engine: Option<&EngineConfig>) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "  \"schema_version\": {BENCH_SCHEMA_VERSION},");
    let _ = writeln!(s, "  \"bench\": \"{bench}\",");
    let _ = writeln!(s, "  \"workload\": \"{workload}\",");
    if let Some(e) = engine {
        let _ = writeln!(s, "  \"workers\": {},", e.workers);
        let _ = writeln!(s, "  \"fork\": {},", e.fork);
        let _ = writeln!(s, "  \"gc\": {},", e.gc);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        parse_args(args.iter().map(|s| s.to_string())).expect("valid args")
    }

    #[test]
    fn shared_flags_are_consumed_and_rest_preserved() {
        let c = parse(&[
            "--records",
            "40",
            "--no-fork",
            "--workers",
            "8",
            "--progress",
            "--out",
            "x.json",
            "--smoke",
        ]);
        assert_eq!(c.engine.workers, 8);
        assert!(c.workers_given);
        assert!(!c.engine.fork);
        assert!(c.telemetry.progress);
        assert_eq!(c.out.as_deref(), Some("x.json"));
        assert_eq!(c.rest, vec!["--records", "40", "--smoke"]);
        assert!(c.has_flag("--smoke"));
        assert!(!c.has_flag("--no-fork"), "consumed flags leave rest");
    }

    #[test]
    fn workers_equals_and_auto_forms() {
        assert_eq!(parse(&["--workers=4"]).engine.workers, 4);
        assert_eq!(parse(&["--workers", "auto"]).engine.workers, 0);
        assert!(!parse(&[]).workers_given);
    }

    #[test]
    fn malformed_numbers_are_errors() {
        let err = |args: &[&str]| parse_args(args.iter().map(|s| s.to_string())).unwrap_err();
        assert!(err(&["--workers", "abc"]).contains("--workers"));
        assert!(err(&["--workers=abc"]).contains("--workers"));
        assert!(err(&["--workers"]).contains("--workers"));
        assert!(err(&["--gc-every", "abc"]).contains("--gc-every"));
        assert!(err(&["--gc-every"]).contains("--gc-every"));
        assert!(err(&["--sample-every", "-1"]).contains("--sample-every"));
        assert_eq!(parse(&["--gc-every", "7"]).engine.gc_every, 7);
        assert_eq!(parse(&["--sample-every", "3"]).engine.sample_every, 3);
    }

    #[test]
    fn telemetry_flags_detect_any() {
        assert!(!parse(&[]).telemetry.any());
        assert!(parse(&["--profile"]).telemetry.any());
        assert!(parse(&["--telemetry-out", "t.jsonl"]).telemetry.any());
        assert!(parse(&["--prom-out", "m.prom"]).telemetry.any());
    }

    #[test]
    fn meta_header_includes_schema_and_engine_flags() {
        let engine = EngineConfig::with_workers(4).with_fork(false);
        let h = meta_header("soak", "zipfian kv traffic", Some(&engine));
        assert!(h.contains("\"schema_version\": 1,"));
        assert!(h.contains("\"bench\": \"soak\","));
        assert!(h.contains("\"workers\": 4,"));
        assert!(h.contains("\"fork\": false,"));
        let plain = meta_header("memperf", "event-stream replay", None);
        assert!(!plain.contains("workers"));
    }
}
