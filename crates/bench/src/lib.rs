//! Shared helpers for the BatchLens benchmark harness.
//!
//! Paper figures and tables have Criterion benches (`fig_bubble`,
//! `fig_linechart`, `table_dataset_stats`) that time the code regenerating
//! them, next to algorithm ablation benches (`pack_scaling`, `enclose`,
//! `series_ops`, `simplify`, `detect`, `sim_engine`,
//! `raw_scan_baseline`). The Fig 3 dashboard and its SVG serialization are
//! timed by `bench_trace`'s `dashboard_frame_*` and `svg_render_*` rows.
//! The `figures` binary writes every artifact to `target/figures/` for
//! inspection.
//!
//! This module centralizes the workload builders the benches share so the
//! "what is measured" is defined once.

use batchlens_sim::{scenario, SimConfig, Simulation};
use batchlens_trace::TraceDataset;

/// A deterministic medium dataset for throughput benches.
pub fn medium_dataset(seed: u64) -> TraceDataset {
    Simulation::new(SimConfig::medium(seed))
        .run()
        .expect("medium sim")
}

/// A deterministic small dataset for quick benches.
pub fn small_dataset(seed: u64) -> TraceDataset {
    Simulation::new(SimConfig::small(seed))
        .run()
        .expect("small sim")
}

/// The three case-study scenario builders paired with their timestamps.
pub fn case_scenarios() -> Vec<(&'static str, Simulation, batchlens_trace::Timestamp)> {
    vec![
        ("fig3a", scenario::fig3a(7), scenario::T_FIG3A),
        ("fig3b", scenario::fig3b(7), scenario::T_FIG3B),
        ("fig3c", scenario::fig3c(7), scenario::T_FIG3C),
    ]
}

/// Circle radii for packing/enclosing benches at a given size.
pub fn radii(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1.0 + ((s >> 33) as f64 / u32::MAX as f64) * 9.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_data() {
        assert!(small_dataset(1).job_count() > 0);
        assert_eq!(case_scenarios().len(), 3);
        assert_eq!(radii(10, 1).len(), 10);
        assert!(radii(5, 1).iter().all(|&r| (1.0..=10.0).contains(&r)));
    }
}
