//! End-to-end and per-layer benchmark of the `disc` binary.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! NAME --seed N --seconds S --trace 0|1` builds `disc-cli`, writes the
//! workload's seeded streams to CSV, and then either times `disc run` as a
//! child process from outside (`--trace 0`, the end-to-end metrics) or
//! replays the same pipeline in-process with a span around every layer
//! call (`--trace 1`, the per-layer metrics). Either way it gates the
//! result on the DBSCAN oracle and prints one JSON result line last.
//! `BENCHMARK.json` at the repository root records the workloads, metrics
//! and bounds.

pub mod check;
pub mod child;
pub mod replica;
pub mod report;
pub mod workload;
