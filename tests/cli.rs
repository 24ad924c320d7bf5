//! End-to-end checks of the `yashme` binary's flag handling.

use std::process::Command;

/// `--workers` sets only the worker count: the rest of the engine config
/// read from the environment (here `YASHME_GC=0`) must stay in force.
#[test]
fn workers_flag_keeps_the_env_engine_config() {
    let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
        .args(["-b", "CCEH", "--workers", "2", "--details"])
        .env("YASHME_GC", "0")
        .output()
        .expect("spawn yashme");
    // Exit 1 means races were found, which CCEH has.
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("fork:"),
        "--details printed no stats:\n{stdout}"
    );
    assert!(
        !stdout.lines().any(|l| l.starts_with("gc")),
        "YASHME_GC=0 was dropped by --workers:\n{stdout}"
    );
}
