//! [`BatchLens`]: the application object binding a dataset to a view state
//! and exposing the analytics/render surface the paper's tool presents.

use batchlens_analytics::aggregate::{ClusterTimeline, JobMetricLines};
use batchlens_analytics::coalloc::CoallocationIndex;
use batchlens_analytics::detect::{AnomalySpan, Detector, Ensemble};
use batchlens_analytics::hierarchy::HierarchySnapshot;
use batchlens_analytics::rootcause::{Diagnosis, RootCauseAnalyzer};
use batchlens_analytics::scrub::SnapshotScrubber;
use batchlens_layout::Brush;
use batchlens_render::bubble::BubbleChart;
use batchlens_render::dashboard::Dashboard;
use batchlens_render::linechart::LineChart;
use batchlens_render::svg::to_svg;
use batchlens_render::timeline::TimelineView;
use batchlens_trace::{JobId, TimeRange, Timestamp, TraceDataset};

use std::sync::Arc;

use parking_lot::Mutex;

use crate::interaction::{reduce, Event};
use crate::session::SessionLog;
use crate::stream::StreamMonitor;
use crate::view::ViewState;

/// How many `(version, timestamp)` snapshot/co-allocation results the lens
/// retains: back-and-forth scrubbing between a handful of instants replays
/// from cache instead of thrashing a single-entry memo.
const SNAPSHOT_LRU_CAPACITY: usize = 8;

/// A tiny most-recent-first LRU over `(state version, timestamp)` keys.
/// Linear probing is deliberate: at 8 entries a scan beats any hashing.
#[derive(Debug, Clone)]
struct Lru<T> {
    entries: Vec<((u64, Timestamp), T)>,
}

impl<T> Default for Lru<T> {
    fn default() -> Self {
        Lru {
            entries: Vec::new(),
        }
    }
}

impl<T> Lru<T> {
    fn get(&mut self, key: (u64, Timestamp)) -> Option<&T> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(&self.entries[0].1)
    }

    fn insert(&mut self, key: (u64, Timestamp), value: T) {
        self.entries.retain(|(k, _)| *k != key);
        self.entries.insert(0, (key, value));
        self.entries.truncate(SNAPSHOT_LRU_CAPACITY);
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Memoized per-timestamp analytics: timeline scrubbing revisits the same
/// instants constantly (drag back and forth, re-render after an unrelated
/// event), and both the hierarchy snapshot and the co-allocation index are
/// pure functions of `(source state version, timestamp)` — batch datasets
/// are version 0 forever, live monitors bump on every ingest — so recent
/// results are kept in small LRUs and replayed on key match. Misses are
/// computed by the shared [`SnapshotScrubber`], which advances by interval
/// entry/exit deltas instead of rebuilding, in batch and live mode alike.
#[derive(Debug, Default, Clone)]
struct SnapshotCache {
    hierarchy: Lru<HierarchySnapshot>,
    coalloc: Lru<CoallocationIndex>,
    /// Shared transactional frame captures keyed by
    /// `(source state version, timestamp)` and handed out as `Arc`s: N
    /// concurrent sessions rendering the same live instant pay **one**
    /// single-lock capture, not N (see [`BatchLens::frame_at`]).
    frames: Lru<Arc<batchlens_trace::QueryFrame>>,
    /// Cluster-wide overlay keyed by the window it was detected over — the
    /// most expensive of the memoized products (full-cluster ensemble
    /// fan-out), and like the others a pure function of its key.
    overlay: Option<(
        TimeRange,
        Vec<batchlens_analytics::detect::MachineDetection>,
    )>,
    /// The delta engine feeding LRU misses.
    scrub: SnapshotScrubber,
    hits: u64,
    misses: u64,
    /// Frame-cache counters, separate from the snapshot/coalloc pair so a
    /// serving layer can report its frame deduplication rate directly.
    frame_hits: u64,
    frame_misses: u64,
}

/// A BatchLens session over one dataset.
#[derive(Debug)]
pub struct BatchLens {
    dataset: TraceDataset,
    view: ViewState,
    analyzer: RootCauseAnalyzer,
    log: SessionLog,
    /// The aggregated cluster timeline, built once per dataset: the dataset
    /// is immutable, so every timeline/dashboard render reuses it.
    timeline: ClusterTimeline,
    /// Last snapshot/co-allocation result keyed by timestamp (interior
    /// mutability so the read-only accessors stay `&self`).
    cache: Mutex<SnapshotCache>,
    /// When attached, the lens is **live-backed**: snapshots and
    /// co-allocation are computed from this monitor's rolling window
    /// instead of the batch dataset.
    live: Option<Arc<StreamMonitor>>,
}

impl Clone for BatchLens {
    fn clone(&self) -> Self {
        BatchLens {
            dataset: self.dataset.clone(),
            view: self.view.clone(),
            analyzer: self.analyzer,
            log: self.log.clone(),
            timeline: self.timeline.clone(),
            cache: Mutex::new(self.cache.lock().clone()),
            live: self.live.clone(),
        }
    }
}

impl BatchLens {
    /// Creates a session; the view extent is the dataset's full span (or the
    /// 24-hour window when the dataset is empty).
    pub fn new(dataset: TraceDataset) -> Self {
        let extent = dataset.span().unwrap_or_else(TimeRange::full_day);
        let timeline = ClusterTimeline::build(&dataset);
        BatchLens {
            dataset,
            view: ViewState::new(extent),
            analyzer: RootCauseAnalyzer::new(),
            log: SessionLog::new(extent),
            timeline,
            cache: Mutex::new(SnapshotCache::default()),
            live: None,
        }
    }

    /// Creates a session over `dataset` resuming a previously recorded
    /// interaction log: the view state is `log.replay()`, and further events
    /// append to the restored log — the restore half of
    /// [`crate::durability`]'s dump/restore.
    pub fn with_session(dataset: TraceDataset, log: SessionLog) -> Self {
        let timeline = ClusterTimeline::build(&dataset);
        BatchLens {
            dataset,
            view: log.replay(),
            analyzer: RootCauseAnalyzer::new(),
            log,
            timeline,
            cache: Mutex::new(SnapshotCache::default()),
            live: None,
        }
    }

    /// Switches the lens into **live mode**: the hierarchy snapshot and
    /// co-allocation index are computed from `monitor`'s rolling window
    /// (via [`StreamMonitor::live_view`], the same [`batchlens_trace::DatasetQuery`]
    /// surface the batch dataset implements) instead of the batch dataset.
    /// Timeline, line charts and the other dataset-bound views keep serving
    /// the batch data, so a live overlay composes with historical context.
    ///
    /// Live results **are** memoized, keyed by
    /// `(monitor state version, timestamp)`
    /// ([`StreamMonitor::state_version`]): while the monitor idles its
    /// version is frozen, so repeated renders of the same instant replay
    /// from cache for free; any ingest bumps the version and the next
    /// render recomputes. Misses advance the shared delta scrubber, which
    /// rebases through one single-lock
    /// [`batchlens_trace::DatasetQuery::frame`] whenever the version moved
    /// — so each cached product is a transactionally consistent capture of
    /// one window state.
    pub fn attach_live_monitor(&mut self, monitor: Arc<StreamMonitor>) {
        self.live = Some(monitor);
        self.reset_snapshot_state();
    }

    /// Leaves live mode, returning to batch-backed snapshots. The monitor,
    /// if one was attached, is returned to the caller.
    pub fn detach_live_monitor(&mut self) -> Option<Arc<StreamMonitor>> {
        let monitor = self.live.take();
        self.reset_snapshot_state();
        monitor
    }

    /// Drops the memoized snapshots and resets the scrubber: version
    /// numbering is per-source, so nothing memoized against the old source
    /// may survive a source switch.
    fn reset_snapshot_state(&mut self) {
        let mut cache = self.cache.lock();
        cache.hierarchy.clear();
        cache.coalloc.clear();
        cache.frames.clear();
        cache.scrub.reset();
    }

    /// The snapshot-source state version the memo keys carry: the attached
    /// monitor's [`StreamMonitor::state_version`] in live mode, the
    /// immutable dataset's constant 0 otherwise.
    fn source_version(&self) -> u64 {
        self.live.as_ref().map_or(0, |m| m.state_version())
    }

    /// The attached live monitor, when the lens is in live mode.
    pub fn live_monitor(&self) -> Option<&Arc<StreamMonitor>> {
        self.live.as_ref()
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &TraceDataset {
        &self.dataset
    }

    /// The current view state.
    pub fn view(&self) -> &ViewState {
        &self.view
    }

    /// Applies an interaction; returns whether the view changed. Every event
    /// is appended to the session log regardless of whether it changed the
    /// view, so the log is a faithful record of what the user did.
    pub fn apply(&mut self, event: Event) -> bool {
        self.log.record(event);
        reduce(&mut self.view, event)
    }

    /// The interaction log recorded so far. Serialize it with
    /// [`SessionLog::to_json`] to attach to a support ticket, or replay it to
    /// reconstruct this exact view.
    pub fn log(&self) -> &SessionLog {
        &self.log
    }

    /// The hierarchy snapshot at the selected timestamp.
    ///
    /// Memoized in an `SNAPSHOT_LRU_CAPACITY`-entry LRU keyed by
    /// `(source state version, timestamp)`: scrubbing back and forth across
    /// a few instants replays every revisit from cache (a single-entry memo
    /// would thrash), and in live mode an idle monitor serves repeated
    /// frames for free while any ingest invalidates by version. Misses are
    /// computed by the shared delta scrubber
    /// ([`batchlens_analytics::scrub::SnapshotScrubber`]) — O(Δ log k) per
    /// scrub step off the previous instant instead of a from-scratch
    /// rebuild, in batch and live mode alike, bit-identical to
    /// [`HierarchySnapshot::at`].
    pub fn snapshot(&self) -> HierarchySnapshot {
        let at = self.view.selected_timestamp();
        let version = self.source_version();
        let mut cache = self.cache.lock();
        if let Some(snap) = cache.hierarchy.get((version, at)) {
            let snap = snap.clone();
            cache.hits += 1;
            return snap;
        }
        cache.misses += 1;
        let cache = &mut *cache;
        let snap = match &self.live {
            Some(monitor) => {
                let view = monitor.live_view();
                cache.scrub.seek(&view, at);
                cache.scrub.snapshot(&view).clone()
            }
            None => {
                cache.scrub.seek(&self.dataset, at);
                cache.scrub.snapshot(&self.dataset).clone()
            }
        };
        // Key by the version the scrubber actually captured: under
        // concurrent live ingest it may be newer than the probe above.
        cache
            .hierarchy
            .insert((cache.scrub.version(), at), snap.clone());
        snap
    }

    /// The co-allocation index at the selected timestamp, memoized and
    /// delta-maintained exactly like [`BatchLens::snapshot`] (same LRU
    /// policy, same scrubber, bit-identical to [`CoallocationIndex::at`]).
    pub fn coallocation(&self) -> CoallocationIndex {
        let at = self.view.selected_timestamp();
        let version = self.source_version();
        let mut cache = self.cache.lock();
        if let Some(idx) = cache.coalloc.get((version, at)) {
            let idx = idx.clone();
            cache.hits += 1;
            return idx;
        }
        cache.misses += 1;
        let cache = &mut *cache;
        match &self.live {
            Some(monitor) => cache.scrub.seek(&monitor.live_view(), at),
            None => cache.scrub.seek(&self.dataset, at),
        }
        let idx = cache.scrub.coalloc().clone();
        cache
            .coalloc
            .insert((cache.scrub.version(), at), idx.clone());
        idx
    }

    /// Every structural query at the selected timestamp as one
    /// transactionally consistent [`batchlens_trace::QueryFrame`]: in live
    /// mode the monitor lock is taken **once** for the whole frame
    /// (hierarchy + co-allocation + utilization + alive-set probes can
    /// never disagree about the window state); in batch mode the immutable
    /// dataset answers the same surface trivially consistently. Feed it to
    /// [`HierarchySnapshot::from_frame`] /
    /// [`CoallocationIndex::from_frame`] to render a whole dashboard frame
    /// from one capture. Shorthand for [`BatchLens::frame_at`] at the
    /// selected timestamp — shared and deduplicated the same way.
    pub fn frame(&self) -> Arc<batchlens_trace::QueryFrame> {
        self.frame_at(self.view.selected_timestamp())
    }

    /// The transactional frame capture at an explicit timestamp, shared
    /// across consumers.
    ///
    /// **The frame-cache sharing rule:** captures are memoized in a small
    /// LRU keyed by `(source state version, timestamp)` and handed out as
    /// [`Arc`]s, and the capture on a miss runs while the cache lock is
    /// held — so any number of concurrent readers (a serving layer's
    /// sessions, worker threads, overlays) asking for the same instant of
    /// the same source state coalesce onto **exactly one** underlying
    /// single-lock capture and share one immutable frame. Two frames for
    /// the same key are therefore always the same allocation, and every
    /// product rendered from one frame is internally consistent at that
    /// `(version, timestamp)` — a torn frame across products is
    /// impossible by construction. An ingest on the attached monitor bumps
    /// the version, so the next request captures fresh rather than serving
    /// a stale instant.
    ///
    /// The explicit-timestamp form exists because sessions sharing one
    /// lens each scrub their own instant: the key is the timestamp asked
    /// for, not this lens's selected one. Hit/miss counts are reported by
    /// [`BatchLens::frame_cache_stats`].
    pub fn frame_at(&self, at: Timestamp) -> Arc<batchlens_trace::QueryFrame> {
        use batchlens_trace::DatasetQuery;
        let version = self.source_version();
        let mut cache = self.cache.lock();
        if let Some(frame) = cache.frames.get((version, at)) {
            let frame = Arc::clone(frame);
            cache.frame_hits += 1;
            return frame;
        }
        cache.frame_misses += 1;
        // Captured under the cache lock deliberately (the sharing rule
        // above): concurrent requests for the same instant wait here and
        // then hit, instead of racing N captures.
        let frame = Arc::new(match &self.live {
            Some(monitor) => monitor.live_view().frame(at),
            None => self.dataset.frame(at),
        });
        // Key by the version the capture actually saw: under concurrent
        // live ingest it may be newer than the probe above.
        cache
            .frames
            .insert((frame.version(), at), Arc::clone(&frame));
        frame
    }

    ///`(hits, misses)` of the per-timestamp snapshot/co-allocation cache —
    /// observability for the scrubbing path (and its tests).
    pub fn snapshot_cache_stats(&self) -> (u64, u64) {
        let cache = self.cache.lock();
        (cache.hits, cache.misses)
    }

    /// `(hits, misses)` of the shared frame cache ([`BatchLens::frame_at`])
    /// — the deduplication rate a serving layer reports: `hits / (hits +
    /// misses)` is the fraction of requests that shared another request's
    /// capture.
    pub fn frame_cache_stats(&self) -> (u64, u64) {
        let cache = self.cache.lock();
        (cache.frame_hits, cache.frame_misses)
    }

    /// The aggregated cluster timeline (cached: built once per dataset).
    pub fn timeline(&self) -> &ClusterTimeline {
        &self.timeline
    }

    /// Root-cause diagnoses for every job running at the selected timestamp.
    pub fn diagnose(&self) -> Vec<Diagnosis> {
        self.analyzer
            .analyze(&self.dataset, self.view.selected_timestamp())
    }

    /// Detector anomaly spans for the hovered machine over the effective
    /// window, when the anomaly overlay is enabled
    /// ([`crate::interaction::Event::ToggleAnomalies`]): the standard
    /// ensemble on each metric series plus the paired-series thrashing
    /// kernel on CPU/memory. Empty when the overlay is off or nothing is
    /// hovered.
    pub fn machine_anomalies(&self) -> Vec<(batchlens_trace::Metric, AnomalySpan)> {
        use batchlens_trace::Metric;
        if !self.view.show_anomalies() {
            return Vec::new();
        }
        let Some(machine) = self.view.hovered_machine() else {
            return Vec::new();
        };
        let Some(mv) = self.dataset.machine(machine) else {
            return Vec::new();
        };
        let window = self.view.effective_window();
        let ensemble = Ensemble::standard();
        let mut out = Vec::new();
        for metric in Metric::ALL {
            if let Some(series) = mv.usage(metric) {
                for span in ensemble.detect(&series.slice(&window)) {
                    out.push((metric, span));
                }
            }
        }
        if let (Some(cpu), Some(mem)) = (mv.usage(Metric::Cpu), mv.usage(Metric::Memory)) {
            for span in self
                .analyzer
                .thrashing
                .detect(&cpu.slice(&window), &mem.slice(&window))
            {
                out.push((Metric::Memory, span));
            }
        }
        out
    }

    /// The cluster-wide anomaly overlay: [`Ensemble::standard`] spans for
    /// **every** machine over the effective window, computed by the parallel
    /// [`batchlens_analytics::detect::detect_all_machines`] fan-out
    /// (process-default worker count; results in machine-id order,
    /// bit-identical at any thread count). Empty when the overlay is off
    /// ([`crate::interaction::Event::ToggleAnomalies`]).
    pub fn cluster_anomalies(&self) -> Vec<batchlens_analytics::detect::MachineDetection> {
        if !self.view.show_anomalies() {
            return Vec::new();
        }
        let window = self.view.effective_window();
        // Probe-and-release: the fan-out below is the expensive product, so
        // it runs with the cache unlocked — a concurrent snapshot() or
        // coallocation() never waits behind full-cluster detection. Two
        // threads missing the same window may both compute (same pure
        // result; last insert wins), which is the cheaper failure mode.
        {
            let mut cache = self.cache.lock();
            if let Some((_, overlay)) = cache.overlay.as_ref().filter(|(w, _)| *w == window) {
                let overlay = overlay.clone();
                cache.hits += 1;
                return overlay;
            }
            cache.misses += 1;
        }
        let overlay = batchlens_analytics::detect::detect_all_machines(
            &self.dataset,
            &Ensemble::standard(),
            Some(&window),
            0,
        );
        self.cache.lock().overlay = Some((window, overlay.clone()));
        overlay
    }

    /// The live anomaly overlay: the attached monitor's currently retained
    /// typed [`crate::stream::Alert`]s (oldest first), the run a cursor
    /// from 0 reads. Empty when the overlay is off ([`crate::interaction::Event::ToggleAnomalies`])
    /// or no monitor is attached. The streaming counterpart of
    /// [`BatchLens::cluster_anomalies`], fed by the same detector kernels.
    pub fn live_alerts(&self) -> Vec<crate::stream::Alert> {
        if !self.view.show_anomalies() {
            return Vec::new();
        }
        self.live
            .as_ref()
            .map_or_else(Vec::new, |m| m.alerts_since(0).alerts)
    }

    /// The line-chart data for the selected job (or `None` when no job is
    /// selected or it has no data in the effective window).
    pub fn selected_job_lines(&self) -> Option<JobMetricLines> {
        let job = self.view.selected_job()?;
        JobMetricLines::build(
            &self.dataset,
            job,
            self.view.detail_metric(),
            &self.view.effective_window(),
        )
    }

    /// Renders the hierarchical bubble chart as SVG.
    pub fn render_bubble(&self, width: f64, height: f64) -> String {
        to_svg(&BubbleChart::new(width, height).render(&self.snapshot()))
    }

    /// Renders the selected job's line chart as SVG, or an empty-scene SVG
    /// when no job is selected.
    pub fn render_line_chart(&self, width: f64, height: f64) -> String {
        match self.selected_job_lines() {
            Some(lines) => {
                let window = self.view.effective_window();
                let chart = if self.view.brush().is_some() {
                    LineChart::new(width, height).detail()
                } else {
                    LineChart::new(width, height).overview()
                };
                to_svg(&chart.render(&lines, &window))
            }
            None => to_svg(&batchlens_render::scene::Scene::new(width, height)),
        }
    }

    /// Renders the hovered machine's node-detail view (the paper's hover
    /// "zoom-in refresh"): the machine's three metric series over the
    /// effective window with a band per co-located job. Returns an
    /// empty-scene SVG when no machine is hovered.
    pub fn render_node_detail(&self, width: f64, height: f64) -> String {
        match self.view.hovered_machine() {
            Some(machine) => to_svg(
                &batchlens_render::node_detail::NodeDetail::new(width, height).render(
                    &self.dataset,
                    machine,
                    &self.view.effective_window(),
                ),
            ),
            None => to_svg(&batchlens_render::scene::Scene::new(width, height)),
        }
    }

    /// Renders the brushable timeline as SVG, reflecting the current brush.
    pub fn render_timeline(&self, width: f64, height: f64) -> String {
        let timeline = self.timeline();
        let brush = self.view.brush().map(|w| {
            let extent = self.view.extent();
            let mut b = Brush::new((
                extent.start().seconds() as f64,
                extent.end().seconds() as f64,
            ));
            b.select(w.start().seconds() as f64, w.end().seconds() as f64);
            b
        });
        to_svg(&TimelineView::new(width, height).render(timeline, brush.as_ref()))
    }

    /// Renders the full multi-view dashboard as SVG.
    pub fn render_dashboard(&self, width: f64, height: f64) -> String {
        let mut dash = Dashboard::new(width, height).detail_metric(self.view.detail_metric());
        let focus = self.focus_jobs();
        if !focus.is_empty() {
            dash = dash.focus(focus);
        }
        to_svg(&dash.render_with_timeline(
            &self.dataset,
            self.view.selected_timestamp(),
            &self.timeline,
        ))
    }

    /// The jobs the detail sidebar should show: pinned jobs plus the
    /// selected job, de-duplicated.
    fn focus_jobs(&self) -> Vec<JobId> {
        let mut out: Vec<JobId> = self.view.pinned_jobs().to_vec();
        if let Some(job) = self.view.selected_job() {
            if !out.contains(&job) {
                out.insert(0, job);
            }
        }
        out
    }

    /// Jumps the snapshot to the first timestamp (on the batch grid) at which
    /// any job is running — a convenience for "show me something".
    pub fn jump_to_first_activity(&mut self) {
        let active = batchlens_trace::stats::active_batch_timestamps(&self.dataset);
        if let Some(&t) = active.first() {
            self.apply(Event::SelectTimestamp(t));
        }
    }

    /// The selected timestamp (convenience).
    pub fn now(&self) -> Timestamp {
        self.view.selected_timestamp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;
    use batchlens_trace::Metric;

    #[test]
    fn new_session_spans_dataset() {
        let ds = scenario::fig3b(1).run().unwrap();
        let span = ds.span().unwrap();
        let app = BatchLens::new(ds);
        assert_eq!(app.view().extent(), span);
    }

    #[test]
    fn interactions_drive_renders() {
        let ds = scenario::fig3b(2).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3B));
        let bubble = app.render_bubble(600.0, 600.0);
        assert!(bubble.contains("<circle"));

        // No job selected: the line chart is an empty scene.
        let empty = app.render_line_chart(400.0, 200.0);
        assert!(!empty.contains("<polyline"));

        app.apply(Event::SelectJob(scenario::JOB_7901));
        let chart = app.render_line_chart(400.0, 200.0);
        assert!(chart.contains("<polyline"));
    }

    #[test]
    fn brush_switches_line_chart_to_detail() {
        let ds = scenario::fig3b(3).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3B));
        app.apply(Event::SelectJob(scenario::JOB_7901));
        let overview = app.render_line_chart(400.0, 200.0);
        app.apply(Event::BrushTime(
            TimeRange::new(Timestamp::new(45600), Timestamp::new(46800)).unwrap(),
        ));
        let detail = app.render_line_chart(400.0, 200.0);
        // Both render; the detail window is narrower so it typically has
        // fewer-or-different points — at minimum both contain polylines.
        assert!(overview.contains("<polyline"));
        assert!(detail.contains("<polyline"));
    }

    #[test]
    fn diagnose_reports_running_jobs() {
        let ds = scenario::fig3c(4).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3C));
        let diagnoses = app.diagnose();
        assert!(diagnoses.iter().any(|d| d.job == scenario::JOB_11939));
    }

    #[test]
    fn dashboard_renders_end_to_end() {
        let ds = scenario::fig3a(5).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3A));
        app.apply(Event::SetDetailMetric(Metric::Memory));
        let svg = app.render_dashboard(1200.0, 800.0);
        assert!(svg.starts_with("<?xml"));
        assert!(svg.contains("BatchLens @"));
    }

    #[test]
    fn jump_to_first_activity() {
        let ds = scenario::fig3a(6).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.jump_to_first_activity();
        assert!(!app.snapshot().jobs.is_empty());
    }

    #[test]
    fn timeline_reflects_brush() {
        let ds = scenario::fig3b(7).run().unwrap();
        let mut app = BatchLens::new(ds);
        let plain = app.render_timeline(800.0, 100.0);
        app.apply(Event::BrushTime(
            TimeRange::new(Timestamp::new(45600), Timestamp::new(46800)).unwrap(),
        ));
        let brushed = app.render_timeline(800.0, 100.0);
        // The brush overlay adds dim rects.
        assert!(brushed.matches("<rect").count() > plain.matches("<rect").count());
    }

    #[test]
    fn session_log_replays_to_current_view() {
        let ds = scenario::fig3b(8).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3B));
        app.apply(Event::SelectJob(scenario::JOB_7901));
        app.apply(Event::SetDetailMetric(Metric::Memory));
        // The recorded log reconstructs exactly the current view.
        assert_eq!(app.log().replay(), *app.view());
        assert_eq!(app.log().len(), 3);
        // And it survives a JSON round-trip.
        let json = app.log().to_json().unwrap();
        let back = batchlens_sim::scenario::fig3b(8); // unrelated, just exercising import
        let _ = back;
        let restored = crate::session::SessionLog::from_json(&json).unwrap();
        assert_eq!(restored.replay(), *app.view());
    }

    #[test]
    fn anomaly_overlay_surfaces_hovered_machine_spans() {
        let ds = scenario::fig3c(9).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3C));
        let thrashing_machine = app
            .diagnose()
            .into_iter()
            .find(|d| d.job == scenario::JOB_11939)
            .and_then(|d| d.affected_machines.first().copied())
            .expect("fig3c has thrashing machines");
        // Overlay off: nothing, even with a hover.
        app.apply(Event::HoverMachine(thrashing_machine));
        assert!(app.machine_anomalies().is_empty());
        // Overlay on: the hovered thrashing machine surfaces typed spans.
        app.apply(Event::ToggleAnomalies);
        let spans = app.machine_anomalies();
        assert!(
            spans
                .iter()
                .any(|(_, s)| s.kind == batchlens_analytics::detect::AnomalyKind::Thrashing),
            "spans: {spans:?}"
        );
    }

    #[test]
    fn snapshot_scrubbing_is_memoized() {
        let ds = scenario::fig3b(10).run().unwrap();
        let mut app = BatchLens::new(ds);
        let t0 = scenario::T_FIG3B;
        let t1 = t0 + batchlens_trace::TimeDelta::minutes(10);
        app.apply(Event::SelectTimestamp(t0));
        let a = app.snapshot();
        let _ = app.coallocation();
        // Same instant again: replayed from cache, equal value.
        let b = app.snapshot();
        assert_eq!(a, b);
        let (hits, misses) = app.snapshot_cache_stats();
        assert_eq!((hits, misses), (1, 2));
        // Scrub away and back: the revisit replays from the LRU — the
        // single-entry memo this replaced would have thrashed here.
        app.apply(Event::SelectTimestamp(t1));
        let c = app.snapshot();
        app.apply(Event::SelectTimestamp(t0));
        let d = app.snapshot();
        assert_eq!(a, d);
        assert_ne!(c.at, d.at);
        let (hits, misses) = app.snapshot_cache_stats();
        assert_eq!((hits, misses), (2, 3), "t0 revisit is a hit");
    }

    #[test]
    fn snapshot_lru_survives_back_and_forth_and_evicts_beyond_capacity() {
        let ds = scenario::fig3b(13).run().unwrap();
        let mut app = BatchLens::new(ds);
        let t = |i: i64| scenario::T_FIG3B + batchlens_trace::TimeDelta::minutes(i);
        // First pass over 4 instants: all misses. Second + third passes
        // (backward, then forward): all hits.
        for i in 0..4 {
            app.apply(Event::SelectTimestamp(t(i)));
            let _ = app.snapshot();
        }
        for i in (0..4).rev().chain(0..4) {
            app.apply(Event::SelectTimestamp(t(i)));
            let _ = app.snapshot();
        }
        let (hits, misses) = app.snapshot_cache_stats();
        assert_eq!((hits, misses), (8, 4));
        // A sweep wider than the capacity evicts the oldest: revisiting the
        // very first instant misses again (and recomputes correctly).
        for i in 0..=(super::SNAPSHOT_LRU_CAPACITY as i64) {
            app.apply(Event::SelectTimestamp(t(i)));
            let _ = app.snapshot();
        }
        app.apply(Event::SelectTimestamp(t(0)));
        let evicted = app.snapshot();
        let (_, misses_after) = app.snapshot_cache_stats();
        assert!(misses_after > misses, "t(0) was evicted");
        assert_eq!(
            evicted,
            batchlens_analytics::hierarchy::HierarchySnapshot::at(app.dataset(), t(0))
        );
    }

    #[test]
    fn live_snapshots_memoize_on_version_and_invalidate_on_ingest() {
        use crate::stream::{StreamConfig, StreamMonitor};
        use batchlens_trace::{ServerUsageRecord, TimeDelta, UtilizationTriple};
        use std::sync::Arc;

        let ds = scenario::fig3b(14).run().unwrap();
        let at = scenario::T_FIG3B;
        let monitor = Arc::new(
            StreamMonitor::new(StreamConfig {
                horizon: TimeDelta::hours(72),
                ..Default::default()
            })
            .unwrap(),
        );
        monitor.ingest_instances(ds.instance_records().iter().copied());
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(at));
        app.attach_live_monitor(Arc::clone(&monitor));
        let (h0, m0) = app.snapshot_cache_stats();
        let first = app.snapshot();
        let second = app.snapshot();
        assert_eq!(first, second);
        let (h1, m1) = app.snapshot_cache_stats();
        assert_eq!(
            (h1 - h0, m1 - m0),
            (1, 1),
            "idle monitor: second render replays from cache"
        );
        // Any ingest bumps the version: same timestamp, fresh computation.
        monitor.ingest(ServerUsageRecord {
            time: at,
            machine: batchlens_trace::MachineId::new(0),
            util: UtilizationTriple::clamped(0.5, 0.5, 0.5),
        });
        let third = app.snapshot();
        let (_, m2) = app.snapshot_cache_stats();
        assert_eq!(m2, m1 + 1, "version change invalidates");
        // The recompute reflects the new state and matches from-scratch.
        assert_eq!(
            third,
            batchlens_analytics::hierarchy::HierarchySnapshot::at(&monitor.live_view(), at)
        );
    }

    #[test]
    fn frame_products_match_individual_renders() {
        use batchlens_analytics::coalloc::CoallocationIndex;
        use batchlens_analytics::hierarchy::HierarchySnapshot;
        let ds = scenario::fig3b(15).run().unwrap();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3B));
        let frame = app.frame();
        assert_eq!(frame.at(), scenario::T_FIG3B);
        assert_eq!(HierarchySnapshot::from_frame(&frame), app.snapshot());
        assert_eq!(CoallocationIndex::from_frame(&frame), app.coallocation());
        assert!(frame.mean_utilization().is_some());
    }

    /// PR 7's sharing rule: frames for the same `(version, timestamp)` are
    /// one allocation (one capture), and a live ingest invalidates.
    #[test]
    fn frame_cache_shares_one_capture_per_version_and_instant() {
        use crate::stream::{StreamConfig, StreamMonitor};
        use batchlens_trace::{ServerUsageRecord, TimeDelta, UtilizationTriple};

        let ds = scenario::fig3b(16).run().unwrap();
        let at = scenario::T_FIG3B;
        let monitor = Arc::new(
            StreamMonitor::new(StreamConfig {
                horizon: TimeDelta::hours(72),
                ..Default::default()
            })
            .unwrap(),
        );
        monitor.ingest_instances(ds.instance_records().iter().copied());
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(at));
        app.attach_live_monitor(Arc::clone(&monitor));
        let f1 = app.frame_at(at);
        let f2 = app.frame_at(at);
        assert!(
            Arc::ptr_eq(&f1, &f2),
            "same (version, timestamp): one shared capture"
        );
        assert_eq!(app.frame_cache_stats(), (1, 1));
        // A different instant is its own capture; revisiting the first
        // still hits (LRU, not single-entry).
        let f3 = app.frame_at(at + TimeDelta::minutes(5));
        assert!(!Arc::ptr_eq(&f1, &f3));
        assert!(Arc::ptr_eq(&f1, &app.frame_at(at)));
        assert_eq!(app.frame_cache_stats(), (2, 2));
        // Ingest bumps the version: the next request captures fresh.
        monitor.ingest(ServerUsageRecord {
            time: at,
            machine: batchlens_trace::MachineId::new(0),
            util: UtilizationTriple::clamped(0.5, 0.5, 0.5),
        });
        let f4 = app.frame_at(at);
        assert!(!Arc::ptr_eq(&f1, &f4), "version change invalidates");
        assert!(f4.version() > f1.version());
        assert_eq!(app.frame_cache_stats(), (2, 3));
    }

    #[test]
    fn cluster_overlay_covers_every_machine() {
        let ds = scenario::fig3c(12).run().unwrap();
        let machine_count = ds.machine_count();
        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(scenario::T_FIG3C));
        assert!(app.cluster_anomalies().is_empty(), "overlay off");
        app.apply(Event::ToggleAnomalies);
        let overlay = app.cluster_anomalies();
        assert_eq!(overlay.len(), machine_count);
        assert!(overlay.iter().any(|m| m.span_count() > 0));
        // Repeat renders over the same window replay the memoized overlay.
        let (hits_before, misses) = app.snapshot_cache_stats();
        assert_eq!(app.cluster_anomalies(), overlay);
        let (hits_after, misses_after) = app.snapshot_cache_stats();
        assert_eq!(hits_after, hits_before + 1);
        assert_eq!(misses_after, misses);
    }

    #[test]
    fn live_mode_drives_snapshots_from_the_monitor() {
        use crate::stream::{StreamConfig, StreamMonitor};
        use batchlens_trace::{DatasetQuery, TimeDelta};
        use std::sync::Arc;

        let ds = scenario::fig3b(11).run().unwrap();
        let at = scenario::T_FIG3B;
        let monitor = Arc::new(
            StreamMonitor::new(StreamConfig {
                horizon: TimeDelta::hours(72),
                ..Default::default()
            })
            .unwrap(),
        );
        // Replay the batch tables into the monitor as a live stream.
        monitor.ingest_instances(ds.instance_records().iter().copied());
        for ev in ds.machine_events() {
            monitor.ingest_machine_event(*ev);
        }
        for rec in batchlens_analytics::baseline::export_usage_records(&ds) {
            monitor.ingest(rec);
        }
        let batch_snapshot = HierarchySnapshot::at(&ds, at);
        let batch_coalloc = CoallocationIndex::at(&ds, at);

        let mut app = BatchLens::new(ds);
        app.apply(Event::SelectTimestamp(at));
        assert!(app.live_monitor().is_none());
        app.attach_live_monitor(Arc::clone(&monitor));
        assert!(app.live_monitor().is_some());
        // The live-backed snapshot/coalloc equal the batch ones: the two
        // DatasetQuery sources answer identically over the same records.
        assert_eq!(app.snapshot(), batch_snapshot);
        assert_eq!(app.coallocation(), batch_coalloc);
        assert!(!batch_snapshot.jobs.is_empty(), "scenario has running work");
        // The bubble chart renders straight off the live window.
        assert!(app.render_bubble(600.0, 600.0).contains("<circle"));
        // Live alerts surface behind the anomaly toggle.
        assert!(app.live_alerts().is_empty(), "overlay off");
        app.apply(Event::ToggleAnomalies);
        let alerts = app.live_alerts();
        assert_eq!(alerts, monitor.alerts_since(0).alerts);
        // Detaching returns to batch-backed (and memoized) snapshots.
        let back = app.detach_live_monitor().expect("monitor attached");
        assert_eq!(
            DatasetQuery::jobs_running_at(&back.live_view(), at),
            DatasetQuery::jobs_running_at(app.dataset(), at)
        );
        assert_eq!(app.snapshot(), batch_snapshot);
        let (_, misses) = app.snapshot_cache_stats();
        assert!(misses > 0, "batch path uses the cache again");
    }

    #[test]
    fn empty_dataset_is_handled() {
        let ds = batchlens_trace::TraceDatasetBuilder::new().build().unwrap();
        let app = BatchLens::new(ds);
        assert!(app.snapshot().jobs.is_empty());
        let svg = app.render_dashboard(800.0, 600.0);
        assert!(svg.contains("<svg"));
    }
}
