//! Empty offline stand-in for `crossbeam`: no code uses it, but `jaaru` keeps the dependency so `yashbench/Cargo.lock` stays unchanged; drop both together.
