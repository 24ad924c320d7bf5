//! End-to-end and per-layer benchmark of the Yashme reproduction.
//!
//! Three workloads ([`workload::Workload`]) run against the library's
//! public API (`yashme::check_with`, `jaaru::Engine::run_with`,
//! `apps::traffic::soak_program`). An untraced run reports what a user
//! sees — set-up time, time to a verdict per round, simulated events per
//! second, CPU and memory — and checks every verdict against the ground
//! truth. A traced run ([`probe`]) times calls into each layer from the
//! outside and reports per-layer counts and times. See `README.md` for the
//! table of which layer metric should move which end-to-end metric.

pub mod probe;
pub mod replay;
pub mod run;
pub mod stats;
pub mod sys;
pub mod workload;
