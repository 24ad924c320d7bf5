//! `yashbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints the report of `Outcome::render`, whose last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Exits 1 if
//! any verdict or determinism gate failed, 2 on a usage error.

use std::process::ExitCode;
use std::time::Instant;

use yashbench::run::{run, Options};
use yashbench::workload::Workload;

fn usage(msg: &str) -> ExitCode {
    eprintln!("yashbench: {msg}");
    eprintln!(
        "usage: yashbench --workload mc-suite|random-suite|kv-stream --seed N --seconds S --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    yashbench::sys::cap_malloc_arenas(yashbench::run::nproc());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(msg) => return usage(&msg),
    };
    let outcome = run(&opts, start);
    let header = format!(
        "# {} seed {} {} workers {}",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        yashbench::run::nproc()
    );
    print!("{}", outcome.render(&header));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
