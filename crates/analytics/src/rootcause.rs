//! Root-cause analysis: turning detector output plus hierarchy and
//! co-allocation context into per-job diagnoses.
//!
//! This is the programmatic counterpart of the paper's Section IV narrative:
//! given a snapshot timestamp, the analyzer reproduces conclusions like
//! "the machines running Job job_7901 experience intensive workload during
//! the execution time" or "the compute node is suffering thrashing while
//! the virtual memory is overused".
//!
//! All three member detectors (spike, thrashing, saturation) run on the
//! incremental kernels from [`crate::detect`], so a diagnosis here agrees
//! sample-for-sample with what the online `StreamMonitor` alerts on.

use batchlens_trace::{JobId, MachineId, Metric, TimeRange, Timestamp, TraceDataset};
use serde::{Deserialize, Serialize};

use crate::coalloc::CoallocationIndex;
use crate::detect::{AnomalySpan, Detector, SpikeDetector, ThrashingDetector, ThresholdDetector};
use crate::hierarchy::HierarchySnapshot;

/// The analyzer's verdict for one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Verdict {
    /// Metrics stable over the execution window — the Fig 3(a) pattern.
    Healthy,
    /// End-of-job spike on its machines — the Fig 3(b) `job_7901` pattern.
    EndSpike,
    /// Thrashing on its machines — the Fig 3(c) `job_11939` pattern.
    Thrashing,
    /// Sustained saturation without a clearer signature.
    Overloaded,
}

/// Diagnosis of one job at the snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// The job.
    pub job: JobId,
    /// The verdict.
    pub verdict: Verdict,
    /// Machines exhibiting the anomalous pattern.
    pub affected_machines: Vec<MachineId>,
    /// Supporting detector spans (on the affected machines).
    pub evidence: Vec<AnomalySpan>,
    /// Machines this job shares with other jobs at the snapshot time —
    /// co-allocation context for "who else could be responsible".
    pub shared_machines: Vec<MachineId>,
    /// Human-readable one-line summary.
    pub summary: String,
}

/// Configurable analyzer bundling the signature and threshold detectors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RootCauseAnalyzer {
    /// End-of-job spike matcher.
    pub spike: SpikeDetector,
    /// Thrashing matcher.
    pub thrashing: ThrashingDetector,
    /// Saturation fallback.
    pub saturation: ThresholdDetector,
    /// Fraction of a job's machines that must match a signature for the
    /// job-level verdict.
    pub machine_quorum: f64,
}

impl RootCauseAnalyzer {
    /// Analyzer with the case study's default thresholds.
    pub fn new() -> Self {
        RootCauseAnalyzer {
            spike: SpikeDetector::new(),
            thrashing: ThrashingDetector::new(),
            saturation: ThresholdDetector::new(0.9),
            machine_quorum: 0.5,
        }
    }

    /// Diagnoses every job running at `at`, in job-id order.
    pub fn analyze(&self, ds: &TraceDataset, at: Timestamp) -> Vec<Diagnosis> {
        let snapshot = HierarchySnapshot::at(ds, at);
        let coalloc = CoallocationIndex::at(ds, at);
        snapshot
            .jobs
            .iter()
            .map(|entry| self.diagnose_job(ds, entry.job, &coalloc))
            .collect()
    }

    /// Diagnoses a single job.
    pub fn diagnose_job(
        &self,
        ds: &TraceDataset,
        job: JobId,
        coalloc: &CoallocationIndex,
    ) -> Diagnosis {
        let Some(job_view) = ds.job(job) else {
            return Diagnosis {
                job,
                verdict: Verdict::Healthy,
                affected_machines: Vec::new(),
                evidence: Vec::new(),
                shared_machines: Vec::new(),
                summary: format!("{job}: not present in dataset"),
            };
        };
        let machines = job_view.machines();
        let window = job_view.lifetime().unwrap_or_else(|| {
            TimeRange::new(Timestamp::ZERO, Timestamp::ZERO).expect("empty range")
        });

        let mut spike_hits: Vec<(MachineId, AnomalySpan)> = Vec::new();
        let mut thrash_hits: Vec<(MachineId, AnomalySpan)> = Vec::new();
        let mut saturation_hits: Vec<(MachineId, AnomalySpan)> = Vec::new();

        for &m in &machines {
            let Some(mv) = ds.machine(m) else { continue };
            let cpu = mv.usage(Metric::Cpu);
            let mem = mv.usage(Metric::Memory);
            if let (Some(cpu), Some(mem)) = (cpu, mem) {
                if let Some(sm) = self.spike.match_spike(cpu, &window) {
                    spike_hits.push((m, self.spike.span_for(&sm, &window)));
                } else if let Some(sm) = self.spike.match_spike(mem, &window) {
                    spike_hits.push((m, self.spike.span_for(&sm, &window)));
                }
                for span in self.thrashing.detect(cpu, mem) {
                    if span.range.overlaps(&window) {
                        thrash_hits.push((m, span));
                    }
                }
                for span in self.saturation.detect_view(cpu) {
                    if span.range.overlaps(&window) {
                        saturation_hits.push((m, span));
                    }
                }
            }
        }

        let quorum = (machines.len() as f64 * self.machine_quorum)
            .ceil()
            .max(1.0) as usize;
        let shared_machines: Vec<MachineId> = machines
            .iter()
            .copied()
            .filter(|m| coalloc.jobs_on(*m).is_some())
            .collect();

        let distinct = |hits: &[(MachineId, AnomalySpan)]| -> Vec<MachineId> {
            let mut ms: Vec<MachineId> = hits.iter().map(|(m, _)| *m).collect();
            ms.sort_unstable();
            ms.dedup();
            ms
        };

        let thrash_machines = distinct(&thrash_hits);
        let spike_machines = distinct(&spike_hits);
        let saturated_machines = distinct(&saturation_hits);

        // Thrashing outranks spike (it implies lost progress, not just load);
        // spike outranks plain saturation.
        let (verdict, affected, evidence) = if thrash_machines.len() >= quorum {
            (
                Verdict::Thrashing,
                thrash_machines,
                thrash_hits.into_iter().map(|(_, s)| s).collect(),
            )
        } else if spike_machines.len() >= quorum {
            (
                Verdict::EndSpike,
                spike_machines,
                spike_hits.into_iter().map(|(_, s)| s).collect(),
            )
        } else if saturated_machines.len() >= quorum {
            (
                Verdict::Overloaded,
                saturated_machines,
                saturation_hits.into_iter().map(|(_, s)| s).collect(),
            )
        } else {
            (Verdict::Healthy, Vec::new(), Vec::new())
        };

        let summary = match verdict {
            Verdict::Healthy => format!(
                "{job}: metrics stable across {} node(s) during execution",
                machines.len()
            ),
            Verdict::EndSpike => format!(
                "{job}: CPU/memory climb to a peak at job end on {}/{} node(s), \
                 then decay — intensive workload during execution",
                affected.len(),
                machines.len()
            ),
            Verdict::Thrashing => format!(
                "{job}: memory pinned while CPU collapses on {}/{} node(s) — \
                 likely virtual-memory thrashing; consider terminating and \
                 relaunching",
                affected.len(),
                machines.len()
            ),
            Verdict::Overloaded => format!(
                "{job}: sustained CPU saturation on {}/{} node(s)",
                affected.len(),
                machines.len()
            ),
        };

        Diagnosis {
            job,
            verdict,
            affected_machines: affected,
            evidence,
            shared_machines,
            summary,
        }
    }
}

impl Default for RootCauseAnalyzer {
    fn default() -> Self {
        RootCauseAnalyzer::new()
    }
}

/// Renders diagnoses as a plain-text report, anomalous jobs first.
pub fn render_report(at: Timestamp, diagnoses: &[Diagnosis]) -> String {
    let mut sorted: Vec<&Diagnosis> = diagnoses.iter().collect();
    sorted.sort_by_key(|d| match d.verdict {
        Verdict::Thrashing => 0,
        Verdict::EndSpike => 1,
        Verdict::Overloaded => 2,
        Verdict::Healthy => 3,
    });
    let mut out = format!("BatchLens root-cause report @ {at}\n");
    let anomalous = sorted
        .iter()
        .filter(|d| d.verdict != Verdict::Healthy)
        .count();
    out.push_str(&format!(
        "{} job(s) inspected, {} anomalous\n\n",
        sorted.len(),
        anomalous
    ));
    for d in sorted {
        out.push_str(&d.summary);
        out.push('\n');
        if !d.shared_machines.is_empty() {
            out.push_str(&format!(
                "  shares {} machine(s) with other jobs: ",
                d.shared_machines.len()
            ));
            for (i, m) in d.shared_machines.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&m.to_string());
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn fig3b_spike_is_diagnosed() {
        let ds = scenario::fig3b(21).run().unwrap();
        let analyzer = RootCauseAnalyzer::new();
        let diagnoses = analyzer.analyze(&ds, scenario::T_FIG3B);
        let d = diagnoses
            .iter()
            .find(|d| d.job == scenario::JOB_7901)
            .unwrap();
        assert_eq!(d.verdict, Verdict::EndSpike, "evidence: {}", d.summary);
        assert!(!d.affected_machines.is_empty());
        // job_7901 shares machines with job_7905.
        assert!(!d.shared_machines.is_empty());
    }

    #[test]
    fn fig3c_thrashing_is_diagnosed() {
        let ds = scenario::fig3c(22).run().unwrap();
        let analyzer = RootCauseAnalyzer::new();
        let diagnoses = analyzer.analyze(&ds, scenario::T_FIG3C);
        let d = diagnoses
            .iter()
            .find(|d| d.job == scenario::JOB_11939)
            .unwrap();
        assert_eq!(d.verdict, Verdict::Thrashing, "evidence: {}", d.summary);
    }

    #[test]
    fn fig3a_jobs_are_mostly_healthy() {
        let ds = scenario::fig3a(23).run().unwrap();
        let analyzer = RootCauseAnalyzer::new();
        let diagnoses = analyzer.analyze(&ds, scenario::T_FIG3A);
        assert_eq!(diagnoses.len(), 15);
        let healthy = diagnoses
            .iter()
            .filter(|d| d.verdict == Verdict::Healthy)
            .count();
        assert!(healthy >= 13, "only {healthy}/15 healthy");
        let d = diagnoses
            .iter()
            .find(|d| d.job == scenario::JOB_8124)
            .unwrap();
        assert_eq!(d.verdict, Verdict::Healthy);
    }

    #[test]
    fn report_orders_anomalies_first() {
        let ds = scenario::fig3c(24).run().unwrap();
        let analyzer = RootCauseAnalyzer::new();
        let diagnoses = analyzer.analyze(&ds, scenario::T_FIG3C);
        let text = render_report(scenario::T_FIG3C, &diagnoses);
        assert!(text.contains("root-cause report"));
        let thrash_pos = text.find("thrashing").unwrap();
        let stable_pos = text.find("stable").unwrap_or(usize::MAX);
        assert!(thrash_pos < stable_pos, "anomalies should lead the report");
    }

    #[test]
    fn missing_job_gets_placeholder() {
        let ds = scenario::fig1_sample(25).run().unwrap();
        let analyzer = RootCauseAnalyzer::new();
        let coalloc = CoallocationIndex::at(&ds, Timestamp::new(600));
        let d = analyzer.diagnose_job(&ds, JobId::new(424242), &coalloc);
        assert_eq!(d.verdict, Verdict::Healthy);
        assert!(d.summary.contains("not present"));
    }
}
