//! The shared workload of the BatchLens benchmark binaries.
//!
//! The `bench_trace` binary times the sweep, index, stream and render
//! kernels against naive references and writes `BENCH_trace.json`; its
//! medium tier runs on [`medium_dataset`]. The `figures` binary writes
//! every paper figure and table to `target/figures/` for inspection.

use batchlens_sim::{SimConfig, Simulation};
use batchlens_trace::TraceDataset;

/// A deterministic medium dataset for throughput benches.
pub fn medium_dataset(seed: u64) -> TraceDataset {
    Simulation::new(SimConfig::medium(seed))
        .run()
        .expect("medium sim")
}
