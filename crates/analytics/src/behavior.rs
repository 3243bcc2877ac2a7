//! Machine behavioral analysis: clustering machines by their utilization
//! signatures.
//!
//! The paper (and its cited prior art, Muelder et al.'s "behavioral lines")
//! portrays each compute node's behavior over time. This module summarizes a
//! machine's behavior as a feature vector and clusters machines with k-means,
//! so an operator can ask "which machines behave alike?" — the spatial side
//! of the paper's spatial/temporal comparison.

use batchlens_trace::{MachineId, Metric, TimeRange, TraceDataset};
use serde::{Deserialize, Serialize};

use crate::detect::{Detector, Ensemble};

/// Dimensionality of the behavioral feature vector.
pub const FEATURES: usize = 6;

/// A compact behavioral signature of one machine over a window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BehaviorVector {
    /// The machine.
    pub machine: MachineId,
    /// Mean CPU utilization.
    pub cpu_mean: f64,
    /// CPU variability (std-dev).
    pub cpu_std: f64,
    /// Mean memory utilization.
    pub mem_mean: f64,
    /// Mean disk utilization.
    pub disk_mean: f64,
    /// Peak of the hottest metric.
    pub peak: f64,
    /// Fraction of the window's CPU samples flagged by
    /// [`Ensemble::standard`]'s per-sample quorum vote (raw flags, not span
    /// membership — the span min-run filter is irrelevant to a rate) —
    /// machines that *behave* anomalously cluster together even when their
    /// means look ordinary.
    pub anomaly_rate: f64,
}

impl BehaviorVector {
    /// Summarizes `machine` over `window` within `ds`, or `None` when it has
    /// no usage data there.
    pub fn of(ds: &TraceDataset, machine: MachineId, window: &TimeRange) -> Option<BehaviorVector> {
        let mv = ds.machine(machine)?;
        let cpu_window = mv.usage(Metric::Cpu)?.slice(window);
        let cpu = cpu_window.stats()?;
        let mem = mv.usage(Metric::Memory)?.slice(window).stats()?;
        let disk = mv.usage(Metric::Disk)?.slice(window).stats()?;
        Some(BehaviorVector {
            machine,
            cpu_mean: cpu.mean,
            cpu_std: cpu.std_dev,
            mem_mean: mem.mean,
            disk_mean: disk.mean,
            peak: cpu.max.max(mem.max).max(disk.max),
            anomaly_rate: anomaly_sample_fraction(cpu_window),
        })
    }

    /// The feature vector for clustering.
    fn features(&self) -> [f64; FEATURES] {
        [
            self.cpu_mean,
            self.cpu_std,
            self.mem_mean,
            self.disk_mean,
            self.peak,
            self.anomaly_rate,
        ]
    }

    /// Squared Euclidean distance between two signatures' features.
    pub fn distance_sq(&self, other: &BehaviorVector) -> f64 {
        self.features()
            .iter()
            .zip(other.features().iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }
}

/// The result of clustering machine behaviors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BehaviorClusters {
    /// Cluster centroids ([`FEATURES`]-dimensional feature means).
    pub centroids: Vec<[f64; FEATURES]>,
    /// Per-machine cluster assignment, parallel to the input vectors.
    pub assignments: Vec<(MachineId, usize)>,
}

impl BehaviorClusters {
    /// Machines in cluster `k`.
    pub fn members(&self, k: usize) -> Vec<MachineId> {
        self.assignments
            .iter()
            .filter(|(_, c)| *c == k)
            .map(|(m, _)| *m)
            .collect()
    }

    /// Size of each cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let k = self.centroids.len();
        let mut sizes = vec![0usize; k];
        for &(_, c) in &self.assignments {
            sizes[c] += 1;
        }
        sizes
    }
}

/// Fraction of `view`'s samples (one machine's CPU over a window) that
/// [`Ensemble::standard`]'s per-sample quorum vote flags.
fn anomaly_sample_fraction(view: batchlens_trace::SeriesView<'_>) -> f64 {
    if view.is_empty() {
        return 0.0;
    }
    let times = view.times();
    let mut state = Ensemble::standard().state();
    let mut flagged = 0usize;
    for (&t, &v) in times.iter().zip(view.values()) {
        // Anomalous *samples* are what the rate counts; span grouping (and
        // its min-run filter) is irrelevant here, so tally raw flags.
        if state.push(t, v).flagged {
            flagged += 1;
        }
    }
    flagged as f64 / times.len() as f64
}

/// Collects behavior vectors for every machine over `window`, fanned out
/// across the process-default worker count.
pub fn behavior_vectors(ds: &TraceDataset, window: &TimeRange) -> Vec<BehaviorVector> {
    behavior_vectors_with_threads(ds, window, 0)
}

/// [`behavior_vectors`] across an explicit worker count (`0` = process
/// default, `1` = serial).
///
/// One work item per machine — the ensemble anomaly-rate pass dominates —
/// with results in machine-id order. Per-machine summaries are independent,
/// so the output is bit-identical to the serial loop at every thread count.
pub fn behavior_vectors_with_threads(
    ds: &TraceDataset,
    window: &TimeRange,
    threads: usize,
) -> Vec<BehaviorVector> {
    let machines: Vec<MachineId> = ds.machines().map(|m| m.id()).collect();
    batchlens_exec::par_map(threads, &machines, |&m| BehaviorVector::of(ds, m, window))
        .into_iter()
        .flatten()
        .collect()
}

/// Deterministic k-means over behavior vectors.
///
/// Centroids are seeded by a farthest-first traversal (k-means++ flavour
/// without randomness) so the result is reproducible. Returns `None` when
/// there are fewer vectors than `k` or `k == 0`.
pub fn cluster_behaviors(
    vectors: &[BehaviorVector],
    k: usize,
    max_iters: usize,
) -> Option<BehaviorClusters> {
    if k == 0 || vectors.len() < k {
        return None;
    }
    let feats: Vec<[f64; FEATURES]> = vectors.iter().map(|v| v.features()).collect();

    // Farthest-first seeding: start at index 0, repeatedly add the point
    // farthest from the current centroid set.
    let mut centroids: Vec<[f64; FEATURES]> = vec![feats[0]];
    while centroids.len() < k {
        let mut best = 0usize;
        let mut best_d = -1.0f64;
        for (i, f) in feats.iter().enumerate() {
            let d = centroids
                .iter()
                .map(|c| dist_sq(f, c))
                .fold(f64::INFINITY, f64::min);
            if d > best_d {
                best_d = d;
                best = i;
            }
        }
        centroids.push(feats[best]);
    }

    let mut assign = vec![0usize; vectors.len()];
    for _ in 0..max_iters.max(1) {
        let mut changed = false;
        // Assignment step.
        for (i, f) in feats.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = dist_sq(f, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        // Update step.
        let mut sums = vec![[0.0f64; FEATURES]; k];
        let mut counts = vec![0usize; k];
        for (i, f) in feats.iter().enumerate() {
            let c = assign[i];
            for d in 0..FEATURES {
                sums[c][d] += f[d];
            }
            counts[c] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                for d in 0..FEATURES {
                    centroids[c][d] = sums[c][d] / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }

    Some(BehaviorClusters {
        centroids,
        assignments: vectors.iter().map(|v| v.machine).zip(assign).collect(),
    })
}

fn dist_sq(a: &[f64; FEATURES], b: &[f64; FEATURES]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn vectors_cover_machines_with_data() {
        let ds = scenario::fig3b(1).run().unwrap();
        let window = ds.span().unwrap();
        let vecs = behavior_vectors(&ds, &window);
        assert_eq!(vecs.len(), ds.machine_count());
    }

    #[test]
    fn clustering_separates_hot_and_cold() {
        let ds = scenario::fig3c(2).run().unwrap();
        let window = ds.span().unwrap();
        let vecs = behavior_vectors(&ds, &window);
        let clusters = cluster_behaviors(&vecs, 3, 50).unwrap();
        assert_eq!(clusters.centroids.len(), 3);
        let sizes = clusters.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), vecs.len());
        // The cluster with the highest mean-CPU centroid should be non-empty.
        let hottest = clusters
            .centroids
            .iter()
            .enumerate()
            .max_by(|a, b| a.1[0].partial_cmp(&b.1[0]).unwrap())
            .unwrap()
            .0;
        assert!(!clusters.members(hottest).is_empty());
    }

    #[test]
    fn clustering_is_deterministic() {
        let ds = scenario::fig3a(3).run().unwrap();
        let window = ds.span().unwrap();
        let vecs = behavior_vectors(&ds, &window);
        let a = cluster_behaviors(&vecs, 4, 30).unwrap();
        let b = cluster_behaviors(&vecs, 4, 30).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_few_points_returns_none() {
        let vecs = vec![BehaviorVector {
            machine: MachineId::new(0),
            cpu_mean: 0.1,
            cpu_std: 0.0,
            mem_mean: 0.1,
            disk_mean: 0.1,
            peak: 0.2,
            anomaly_rate: 0.0,
        }];
        assert!(cluster_behaviors(&vecs, 3, 10).is_none());
        assert!(cluster_behaviors(&vecs, 0, 10).is_none());
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let ds = scenario::fig3b(4).run().unwrap();
        let window = ds.span().unwrap();
        let vecs = behavior_vectors(&ds, &window);
        let (a, b) = (&vecs[0], &vecs[1]);
        assert!((a.distance_sq(b) - b.distance_sq(a)).abs() < 1e-12);
        assert_eq!(a.distance_sq(a), 0.0);
    }
}
