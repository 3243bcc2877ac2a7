//! Guided analysis: automatically discover the interesting moments in a
//! trace and narrate them.
//!
//! A human analyst using BatchLens scrubs the timeline looking for regime
//! changes and anomaly onsets. [`GuidedTour`] does that scan programmatically:
//! it samples the batch grid, finds where the cluster regime shifts or an
//! anomaly is first diagnosed, and produces an ordered list of
//! [`TourStop`]s — each a timestamp worth opening the dashboard at, with a
//! one-line reason. It turns the interactive tool into a self-driving report.

use batchlens_analytics::compare::{RegimeBand, RegimeSummary, SnapshotDiff};
use batchlens_analytics::rootcause::{RootCauseAnalyzer, Verdict};
use batchlens_trace::{JobId, TimeDelta, Timestamp, TraceDataset};
use serde::{Deserialize, Serialize};

/// Why a timestamp was flagged as worth examining.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StopReason {
    /// The cluster regime band changed (e.g. Low → High).
    RegimeChange {
        /// Previous band.
        from: RegimeBand,
        /// New band.
        to: RegimeBand,
    },
    /// A sharp load escalation without a band change.
    LoadSpike {
        /// Change in mean utilization (fraction points).
        delta: f64,
    },
    /// A sharp load collapse (e.g. the mass shutdown).
    LoadCollapse {
        /// Change in mean utilization (negative).
        delta: f64,
    },
    /// An anomalous job was first diagnosed here.
    AnomalyOnset {
        /// The job.
        job: JobId,
        /// Its verdict.
        verdict: Verdict,
    },
}

/// One stop on a guided tour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TourStop {
    /// When to look.
    pub at: Timestamp,
    /// Why.
    pub reason: StopReason,
    /// A human-readable one-liner.
    pub note: String,
}

/// Discovers tour stops over a dataset.
#[derive(Debug, Clone, Copy)]
pub struct GuidedTour {
    /// Sampling step across the trace.
    pub step: TimeDelta,
    /// Mean-utilization change (fraction points) counting as a spike/collapse.
    pub load_threshold: f64,
    analyzer: RootCauseAnalyzer,
}

impl GuidedTour {
    /// A tour sampling the 300 s batch grid with a 0.15 load threshold.
    pub fn new() -> Self {
        GuidedTour {
            step: TimeDelta::BATCH_RESOLUTION,
            load_threshold: 0.15,
            analyzer: RootCauseAnalyzer::new(),
        }
    }

    /// Sets the sampling step (builder).
    #[must_use]
    pub fn step(mut self, step: TimeDelta) -> Self {
        if step.is_positive() {
            self.step = step;
        }
        self
    }

    /// Computes the ordered list of interesting stops.
    pub fn discover(&self, ds: &TraceDataset) -> Vec<TourStop> {
        let times: Vec<Timestamp> =
            batchlens_trace::stats::active_grid_points(ds, self.step).collect();
        if times.is_empty() {
            return Vec::new();
        }

        let mut stops = Vec::new();
        let mut prev_band: Option<RegimeBand> = None;
        let mut seen_anomalies: std::collections::BTreeSet<JobId> =
            std::collections::BTreeSet::new();

        for w in times.windows(2) {
            let (t0, t1) = (w[0], w[1]);
            let summary = RegimeSummary::at(ds, t1);
            let band = summary.band();

            // Regime band change.
            if let Some(pb) = prev_band {
                if pb != band {
                    stops.push(TourStop {
                        at: t1,
                        reason: StopReason::RegimeChange { from: pb, to: band },
                        note: format!(
                            "regime shifts {pb:?} → {band:?} (mean {:.0}%)",
                            summary.mean * 100.0
                        ),
                    });
                }
            }
            prev_band = Some(band);

            // Load spike / collapse.
            let diff = SnapshotDiff::between(ds, t0, t1);
            if diff.escalated(self.load_threshold) {
                stops.push(TourStop {
                    at: t1,
                    reason: StopReason::LoadSpike {
                        delta: diff.delta_mean,
                    },
                    note: format!("load spikes +{:.0} pts", diff.delta_mean * 100.0),
                });
            } else if diff.collapsed(self.load_threshold) {
                stops.push(TourStop {
                    at: t1,
                    reason: StopReason::LoadCollapse {
                        delta: diff.delta_mean,
                    },
                    note: format!("load collapses {:.0} pts", diff.delta_mean * 100.0),
                });
            }

            // Anomaly onset (first time a job is diagnosed anomalous).
            for d in self.analyzer.analyze(ds, t1) {
                if d.verdict != Verdict::Healthy && seen_anomalies.insert(d.job) {
                    stops.push(TourStop {
                        at: t1,
                        reason: StopReason::AnomalyOnset {
                            job: d.job,
                            verdict: d.verdict,
                        },
                        note: d.summary,
                    });
                }
            }
        }
        // The first active timestamp is always a stop (the "overview").
        stops.insert(
            0,
            TourStop {
                at: times[0],
                reason: StopReason::RegimeChange {
                    from: RegimeBand::Low,
                    to: RegimeSummary::at(ds, times[0]).band(),
                },
                note: "first activity on the cluster".into(),
            },
        );
        stops
    }

    /// Renders the tour as a plain-text itinerary.
    pub fn narrate(&self, ds: &TraceDataset) -> String {
        let stops = self.discover(ds);
        let mut out = format!("Guided tour: {} stop(s)\n", stops.len());
        for (i, stop) in stops.iter().enumerate() {
            out.push_str(&format!("{:>2}. {} — {}\n", i + 1, stop.at, stop.note));
        }
        out
    }
}

impl Default for GuidedTour {
    fn default() -> Self {
        GuidedTour::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn tour_finds_the_paper_day_highlights() {
        // A smaller cluster and a coarser step keep the full-day scan fast
        // while still surfacing the anomalies and the shutdown collapse.
        let ds = scenario::paper_day_with_machines(7, 32).run().unwrap();
        let tour = GuidedTour::new().step(TimeDelta::minutes(20));
        let stops = tour.discover(&ds);
        assert!(!stops.is_empty());

        // The thrashing and spike anomalies should be discovered.
        let anomaly_jobs: Vec<JobId> = stops
            .iter()
            .filter_map(|s| match &s.reason {
                StopReason::AnomalyOnset { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        assert!(
            anomaly_jobs.contains(&scenario::JOB_11939),
            "thrashing not discovered"
        );

        // A load collapse around the mass shutdown should appear.
        assert!(stops
            .iter()
            .any(|s| matches!(s.reason, StopReason::LoadCollapse { .. })));
    }

    #[test]
    fn narrate_is_nonempty_and_ordered() {
        let ds = scenario::fig3c(1).run().unwrap();
        let text = GuidedTour::new().narrate(&ds);
        assert!(text.contains("Guided tour"));
        // Stops are listed in time order.
        let stops = GuidedTour::new().discover(&ds);
        for w in stops.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn empty_dataset_has_no_stops() {
        let ds = batchlens_trace::TraceDatasetBuilder::new().build().unwrap();
        assert!(GuidedTour::new().discover(&ds).is_empty());
    }

    #[test]
    fn step_builder_guards_nonpositive() {
        let t = GuidedTour::new().step(TimeDelta::ZERO);
        assert!(t.step.is_positive());
    }

    #[test]
    fn anomaly_onset_reported_once_per_job() {
        let ds = scenario::fig3c(2).run().unwrap();
        let stops = GuidedTour::new().discover(&ds);
        let mut seen = std::collections::BTreeSet::new();
        for s in &stops {
            if let StopReason::AnomalyOnset { job, .. } = s.reason {
                assert!(seen.insert(job), "{job} reported twice");
            }
        }
    }
}
