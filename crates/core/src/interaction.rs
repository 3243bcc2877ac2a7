//! The interaction model: every user action in the paper as an [`Event`],
//! applied to a [`crate::view::ViewState`] by a pure reducer.
//!
//! Modeling interactions as data (rather than callbacks) is what lets the
//! reproduction *test* the interactive tool: an example drives a scripted
//! sequence of events and snapshots the resulting SVG, and the workspace's
//! integration tests assert that, e.g., brushing narrows the effective
//! window and hovering a shared machine surfaces its co-allocation links.

use batchlens_trace::{JobId, MachineId, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

use crate::view::{DetailMetric, ViewState};

/// A user interaction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Event {
    /// Choose the snapshot timestamp (the "choosing" interaction on the
    /// timeline). Clamped to the extent.
    SelectTimestamp(Timestamp),
    /// Brush a time range on the timeline; the detail view zooms to it.
    BrushTime(TimeRange),
    /// Clear the brush (click outside it).
    ClearBrush,
    /// Select a job (click a job bubble): drives the detail line charts.
    SelectJob(JobId),
    /// Deselect the current job.
    DeselectJob,
    /// Hover a machine glyph: highlights co-allocation links.
    HoverMachine(MachineId),
    /// Stop hovering.
    Unhover,
    /// Switch the metric plotted in the detail charts.
    SetDetailMetric(DetailMetric),
    /// Pin/unpin a job into the detail sidebar.
    TogglePin(JobId),
    /// Step the snapshot timestamp by a signed number of seconds.
    StepTimestamp(i64),
    /// Toggle the detector anomaly-span overlay on the detail views.
    ToggleAnomalies,
}

/// A recorded interaction with a monotonically increasing sequence number —
/// the unit of an interaction log that can be replayed deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interaction {
    /// Sequence number in the session.
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// Applies `event` to `state`, returning whether anything changed.
///
/// The reducer is pure and total: it never panics and never reads outside
/// `state`. Out-of-range timestamps are clamped, disjoint brushes are
/// dropped (see [`ViewState`]).
pub fn reduce(state: &mut ViewState, event: Event) -> bool {
    let before = state.clone();
    match event {
        Event::SelectTimestamp(t) => state.set_timestamp(t),
        Event::BrushTime(window) => state.set_brush(Some(window)),
        Event::ClearBrush => state.set_brush(None),
        Event::SelectJob(job) => state.set_job(Some(job)),
        Event::DeselectJob => state.set_job(None),
        Event::HoverMachine(m) => state.set_hover(Some(m)),
        Event::Unhover => state.set_hover(None),
        Event::SetDetailMetric(metric) => state.set_metric(metric),
        Event::TogglePin(job) => state.toggle_pin(job),
        Event::StepTimestamp(delta) => {
            // `delta` comes from outside the program (a session event or
            // log), so the step saturates; the clamp bounds it either way.
            let t = state.selected_timestamp().seconds().saturating_add(delta);
            state.set_timestamp(Timestamp::new(t));
        }
        Event::ToggleAnomalies => state.toggle_anomalies(),
    }
    *state != before
}

/// Replays a sequence of events onto a fresh view over `extent`.
pub fn replay(extent: TimeRange, events: &[Event]) -> ViewState {
    let mut state = ViewState::new(extent);
    for &e in events {
        reduce(&mut state, e);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::Metric;

    fn extent() -> TimeRange {
        TimeRange::new(Timestamp::new(0), Timestamp::new(86400)).unwrap()
    }

    #[test]
    fn select_timestamp_clamps_and_reports_change() {
        let mut v = ViewState::new(extent());
        assert!(reduce(
            &mut v,
            Event::SelectTimestamp(Timestamp::new(43800))
        ));
        assert_eq!(v.selected_timestamp(), Timestamp::new(43800));
        assert!(!reduce(
            &mut v,
            Event::SelectTimestamp(Timestamp::new(43800))
        ));
    }

    #[test]
    fn brush_and_clear() {
        let mut v = ViewState::new(extent());
        let w = TimeRange::new(Timestamp::new(1000), Timestamp::new(5000)).unwrap();
        assert!(reduce(&mut v, Event::BrushTime(w)));
        assert_eq!(v.effective_window(), w);
        assert!(reduce(&mut v, Event::ClearBrush));
        assert_eq!(v.effective_window(), extent());
    }

    #[test]
    fn job_select_and_deselect() {
        let mut v = ViewState::new(extent());
        reduce(&mut v, Event::SelectJob(JobId::new(7901)));
        assert_eq!(v.selected_job(), Some(JobId::new(7901)));
        reduce(&mut v, Event::DeselectJob);
        assert_eq!(v.selected_job(), None);
    }

    #[test]
    fn hover_drives_machine_state() {
        let mut v = ViewState::new(extent());
        reduce(&mut v, Event::HoverMachine(MachineId::new(3)));
        assert_eq!(v.hovered_machine(), Some(MachineId::new(3)));
        reduce(&mut v, Event::Unhover);
        assert_eq!(v.hovered_machine(), None);
    }

    #[test]
    fn step_timestamp_moves_and_clamps() {
        let mut v = ViewState::new(extent());
        reduce(&mut v, Event::SelectTimestamp(Timestamp::new(100)));
        reduce(&mut v, Event::StepTimestamp(300));
        assert_eq!(v.selected_timestamp(), Timestamp::new(400));
        reduce(&mut v, Event::StepTimestamp(-100_000));
        assert_eq!(v.selected_timestamp(), Timestamp::new(0));
        reduce(&mut v, Event::SelectTimestamp(Timestamp::new(43800)));
        reduce(&mut v, Event::StepTimestamp(i64::MAX));
        assert_eq!(v.selected_timestamp(), extent().end());
        reduce(&mut v, Event::StepTimestamp(i64::MIN));
        assert_eq!(v.selected_timestamp(), extent().start());
    }

    #[test]
    fn anomaly_overlay_toggles() {
        let mut v = ViewState::new(extent());
        assert!(!v.show_anomalies());
        assert!(reduce(&mut v, Event::ToggleAnomalies));
        assert!(v.show_anomalies());
        assert!(reduce(&mut v, Event::ToggleAnomalies));
        assert!(!v.show_anomalies());
    }

    #[test]
    fn metric_and_pin() {
        let mut v = ViewState::new(extent());
        reduce(&mut v, Event::SetDetailMetric(Metric::Disk));
        assert_eq!(v.detail_metric(), Metric::Disk);
        reduce(&mut v, Event::TogglePin(JobId::new(1)));
        assert_eq!(v.pinned_jobs(), &[JobId::new(1)]);
    }

    #[test]
    fn replay_is_deterministic() {
        let events = [
            Event::SelectTimestamp(Timestamp::new(46200)),
            Event::SelectJob(JobId::new(7901)),
            Event::BrushTime(TimeRange::new(Timestamp::new(45000), Timestamp::new(47000)).unwrap()),
            Event::SetDetailMetric(Metric::Memory),
        ];
        let a = replay(extent(), &events);
        let b = replay(extent(), &events);
        assert_eq!(a, b);
        assert_eq!(a.selected_job(), Some(JobId::new(7901)));
        assert_eq!(a.detail_metric(), Metric::Memory);
    }
}
