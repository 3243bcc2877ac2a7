//! The full BatchLens dashboard (paper Fig 3): the hierarchical bubble chart
//! as the main view, with the aggregated timeline across the top and per-job
//! detail line charts stacked down the side.

use batchlens_analytics::aggregate::{ClusterTimeline, JobMetricLines};
use batchlens_analytics::hierarchy::HierarchySnapshot;
use batchlens_layout::{Brush, Color};
use batchlens_trace::{JobId, Metric, QueryFrame, TimeRange, Timestamp, TraceDataset};

use crate::bubble::BubbleChart;
use crate::linechart::LineChart;
use crate::scene::{Align, Node, Scene, Style};
use crate::timeline::{TimelineStrip, TimelineView};

/// Height of the timeline strip across the top of the dashboard.
const TIMELINE_H: f64 = 90.0;

/// Composes the multi-view dashboard for one snapshot.
#[derive(Debug, Clone)]
pub struct Dashboard {
    width: f64,
    height: f64,
    /// Jobs to show detail line charts for (top-right stack).
    focus_jobs: Vec<JobId>,
    /// Metric plotted in the detail charts.
    detail_metric: Metric,
}

impl Dashboard {
    /// A dashboard for the given viewport.
    pub fn new(width: f64, height: f64) -> Self {
        Dashboard {
            width,
            height,
            focus_jobs: Vec::new(),
            detail_metric: Metric::Cpu,
        }
    }

    /// Sets the jobs whose detail line charts appear (builder).
    #[must_use]
    pub fn focus(mut self, jobs: impl IntoIterator<Item = JobId>) -> Self {
        self.focus_jobs = jobs.into_iter().collect();
        self
    }

    /// Sets the detail-chart metric (builder).
    #[must_use]
    pub fn detail_metric(mut self, metric: Metric) -> Self {
        self.detail_metric = metric;
        self
    }

    /// Renders the composed dashboard at snapshot time `at`, building the
    /// aggregated timeline on the fly. Callers that already hold one (the
    /// application session caches it) should use
    /// [`Dashboard::render_with_timeline`].
    pub fn render(&self, ds: &TraceDataset, at: Timestamp) -> Scene {
        self.render_with_timeline(ds, at, &ClusterTimeline::build(ds))
    }

    /// The view of the timeline strip across the top: the dashboard's
    /// width at a fixed height. [`TimelineView::prepare`] it once per
    /// timeline and hand the strip to
    /// [`Dashboard::render_from_frame_with_strip`] on every frame.
    pub fn timeline_view(&self) -> TimelineView {
        TimelineView::new(self.width, TIMELINE_H)
    }

    /// Renders the composed dashboard at snapshot time `at` reusing a
    /// precomputed cluster timeline.
    ///
    /// Layout: a timeline strip across the top, the bubble chart filling the
    /// lower-left, and up to four focus-job detail charts down the right.
    pub fn render_with_timeline(
        &self,
        ds: &TraceDataset,
        at: Timestamp,
        timeline: &ClusterTimeline,
    ) -> Scene {
        let mut scene = Scene::new(self.width, self.height).background(Color::rgb(250, 250, 250));
        let sidebar_w = (self.width * 0.33).min(360.0);
        let main_w = self.width - sidebar_w;
        let main_h = self.height - TIMELINE_H;

        // Title.
        scene.push(Node::Text {
            x: 8.0,
            y: 16.0,
            text: format!("BatchLens @ {at}"),
            size: 13.0,
            align: Align::Start,
            color: Color::rgb(30, 30, 30),
        });
        scene.push(strip_at(&self.timeline_view().prepare(timeline), at));

        // Main bubble chart.
        let snapshot = HierarchySnapshot::at(ds, at);
        let bubble = BubbleChart::new(main_w, main_h - 20.0).render(&snapshot);
        scene.push(Node::group_at((0.0, TIMELINE_H + 20.0), bubble.root));

        // Sidebar detail charts.
        let focus = self.resolve_focus(&snapshot);
        let chart_h = ((main_h - 20.0) / focus.len().max(1) as f64).min(200.0);
        let window = snapshot_window(ds, at);
        for (i, job) in focus.iter().enumerate() {
            let y = TIMELINE_H + 20.0 + i as f64 * chart_h;
            if let Some(lines) = JobMetricLines::build(ds, *job, self.detail_metric, &window) {
                let chart = LineChart::new(sidebar_w, chart_h)
                    .detail()
                    .render(&lines, &window);
                scene.push(Node::group_at((main_w, y), chart.root));
            }
        }

        // Separator.
        scene.push(Node::Line {
            from: (main_w, TIMELINE_H + 20.0),
            to: (main_w, self.height),
            style: Style::stroked(Color::rgb(200, 200, 200), 1.0),
        });

        scene
    }

    /// Renders the dashboard from **one transactionally captured**
    /// [`QueryFrame`], laying the timeline strip out from `timeline` on
    /// every call: [`Dashboard::render_from_frame_with_strip`] on a freshly
    /// prepared strip. A caller that renders many frames over one timeline
    /// should prepare [`Dashboard::timeline_view`] once and call that
    /// method directly, as the application lens's `timeline_strip` memo
    /// does for the serving layer.
    pub fn render_from_frame(&self, frame: &QueryFrame, timeline: &ClusterTimeline) -> Scene {
        self.render_from_frame_with_strip(frame, &self.timeline_view().prepare(timeline))
    }

    /// Renders the dashboard from **one transactionally captured**
    /// [`QueryFrame`] on a prepared timeline strip — the render path for
    /// live monitors and serving layers, where every product on screen
    /// must agree about the window state at one `(version, timestamp)`.
    ///
    /// The main bubble chart and the machine-utilization sidebar both
    /// derive from the frame alone (no further source queries), so the
    /// composition can never tear even while ingest continues underneath.
    /// The timeline strip is `strip`, this dashboard's
    /// [`Dashboard::timeline_view`] prepared from the immutable cluster
    /// aggregate; only its brush follows the frame's instant. Detail line
    /// charts need windowed time series a point-in-time frame cannot
    /// carry, so this variant replaces the focus-job sidebar with
    /// per-machine utilization bars (busiest active machines first).
    /// Machines with retained anomaly alerts get a count badge — read
    /// straight from [`QueryFrame::anomaly_count`], so the overlay needs
    /// **no second trip to the monitor** (and therefore no second lock)
    /// after the frame capture.
    pub fn render_from_frame_with_strip(&self, frame: &QueryFrame, strip: &TimelineStrip) -> Scene {
        let at = frame.at();
        let mut scene = Scene::new(self.width, self.height).background(Color::rgb(250, 250, 250));
        let sidebar_w = (self.width * 0.33).min(360.0);
        let main_w = self.width - sidebar_w;
        let main_h = self.height - TIMELINE_H;

        // Title carries the frame's source version so two renders can be
        // compared for staleness at a glance.
        scene.push(Node::Text {
            x: 8.0,
            y: 16.0,
            text: format!("BatchLens @ {at} (v{})", frame.version()),
            size: 13.0,
            align: Align::Start,
            color: Color::rgb(30, 30, 30),
        });
        scene.push(strip_at(strip, at));

        // Main bubble chart, derived from the frame.
        let snapshot = HierarchySnapshot::from_frame(frame);
        let bubble = BubbleChart::new(main_w, main_h - 20.0).render(&snapshot);
        scene.push(Node::group_at((0.0, TIMELINE_H + 20.0), bubble.root));

        // Sidebar: utilization bars for the busiest active machines, also
        // straight off the frame.
        let mut machines: Vec<_> = frame
            .machines_active()
            .into_iter()
            .map(|m| (m, frame.util_of(m).map(|u| u.cpu.fraction()).unwrap_or(0.0)))
            .collect();
        machines.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let row_h = 22.0;
        let rows = (((main_h - 40.0) / row_h) as usize).min(machines.len());
        let mut sidebar = Vec::new();
        let total_anomalies = frame.total_anomalies();
        let header = if total_anomalies > 0 {
            format!(
                "machines ({} active, {total_anomalies} alerts)",
                machines.len()
            )
        } else {
            format!("machines ({} active)", machines.len())
        };
        sidebar.push(Node::Text {
            x: 8.0,
            y: 12.0,
            text: header,
            size: 11.0,
            align: Align::Start,
            color: Color::rgb(60, 60, 60),
        });
        let bar_x = 80.0;
        let bar_w = (sidebar_w - bar_x - 16.0).max(10.0);
        for (i, (machine, cpu)) in machines.iter().take(rows).enumerate() {
            let y = 20.0 + i as f64 * row_h;
            sidebar.push(Node::Text {
                x: 8.0,
                y: y + 12.0,
                text: machine.to_string(),
                size: 10.0,
                align: Align::Start,
                color: Color::rgb(30, 30, 30),
            });
            sidebar.push(Node::Rect {
                x: bar_x,
                y: y + 4.0,
                width: bar_w,
                height: row_h - 10.0,
                style: Style::filled(Color::rgb(232, 232, 232)),
            });
            sidebar.push(Node::Rect {
                x: bar_x,
                y: y + 4.0,
                width: bar_w * cpu.clamp(0.0, 1.0),
                height: row_h - 10.0,
                style: Style::filled(Color::rgb(70, 130, 180)),
            });
            // Anomaly badge, straight off the frame's retained counts.
            let alerts = frame.anomaly_count(*machine);
            if alerts > 0 {
                sidebar.push(Node::Rect {
                    x: bar_x + bar_w + 2.0,
                    y: y + 4.0,
                    width: 12.0,
                    height: row_h - 10.0,
                    style: Style::filled(Color::rgb(200, 60, 40)),
                });
                sidebar.push(Node::Text {
                    x: bar_x + bar_w + 8.0,
                    y: y + 12.0,
                    text: alerts.to_string(),
                    size: 9.0,
                    align: Align::Middle,
                    color: Color::rgb(255, 255, 255),
                });
            }
        }
        scene.push(Node::Group {
            label: Some("machine-utilization".to_string()),
            translate: (main_w, TIMELINE_H + 20.0),
            children: sidebar,
        });

        // Separator.
        scene.push(Node::Line {
            from: (main_w, TIMELINE_H + 20.0),
            to: (main_w, self.height),
            style: Style::stroked(Color::rgb(200, 200, 200), 1.0),
        });

        scene
    }

    fn resolve_focus(&self, snapshot: &HierarchySnapshot) -> Vec<JobId> {
        if !self.focus_jobs.is_empty() {
            return self.focus_jobs.iter().copied().take(4).collect();
        }
        // Default: the busiest few running jobs.
        let mut ranked = snapshot.jobs_by_mean_util();
        ranked.reverse(); // busiest first
        ranked.into_iter().map(|(j, _)| j).take(4).collect()
    }
}

/// The timeline strip under the title, with a brush selecting ±30 minutes
/// around `at` (clamped to the strip's span; none on an empty timeline).
fn strip_at(strip: &TimelineStrip, at: Timestamp) -> Node {
    let brush = strip.span().map(|span| {
        let mut brush = Brush::new((span.start().seconds() as f64, span.end().seconds() as f64));
        let half = 1800.0;
        brush.select(at.seconds() as f64 - half, at.seconds() as f64 + half);
        brush
    });
    Node::group_at((0.0, 20.0), strip.render(brush.as_ref()).root)
}

/// The detail window for a snapshot: a ±1-hour window clamped to the trace,
/// matching the paper's "overall time period" of a selected job.
fn snapshot_window(ds: &TraceDataset, at: Timestamp) -> TimeRange {
    let span = ds.span().unwrap_or_else(TimeRange::full_day);
    let lo = (at - batchlens_trace::TimeDelta::hours(1)).max(span.start());
    let hi = (at + batchlens_trace::TimeDelta::hours(1)).min(span.end());
    TimeRange::new(lo, hi).unwrap_or(span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn dashboard_composes_all_views() {
        let ds = scenario::fig3b(1).run().unwrap();
        let scene = Dashboard::new(1400.0, 900.0)
            .focus([scenario::JOB_7901])
            .render(&ds, scenario::T_FIG3B);
        let counts = scene.counts();
        // Bubble circles, timeline polylines and at least one detail polyline.
        assert!(counts.circles > 0, "no bubbles");
        assert!(counts.polylines >= 3, "timeline series missing");
        assert!(counts.texts > 0);
        // Title present.
        fn has_title(n: &Node) -> bool {
            match n {
                Node::Text { text, .. } => text.contains("BatchLens @"),
                Node::Group { children, .. } => children.iter().any(has_title),
                _ => false,
            }
        }
        assert!(scene.root.iter().any(has_title));
    }

    #[test]
    fn default_focus_picks_busiest_jobs() {
        let ds = scenario::fig3c(2).run().unwrap();
        let scene = Dashboard::new(1400.0, 900.0).render(&ds, scenario::T_FIG3C);
        // Without explicit focus it still renders detail charts for the
        // busiest jobs (extra polylines beyond the 3 timeline series).
        assert!(scene.counts().polylines > 3);
    }

    #[test]
    fn fig3a_dashboard_renders() {
        let ds = scenario::fig3a(3).run().unwrap();
        let scene = Dashboard::new(1400.0, 900.0)
            .focus([scenario::JOB_8124, scenario::JOB_6639])
            .render(&ds, scenario::T_FIG3A);
        assert!(scene.counts().circles > 15);
    }

    #[test]
    fn frame_driven_dashboard_matches_bubble_content() {
        use batchlens_trace::DatasetQuery;
        let ds = scenario::fig3b(5).run().unwrap();
        let timeline = ClusterTimeline::build(&ds);
        let frame = ds.frame(scenario::T_FIG3B);
        let scene = Dashboard::new(1400.0, 900.0).render_from_frame(&frame, &timeline);
        let counts = scene.counts();
        assert!(counts.circles > 0, "no bubbles from the frame");
        assert!(counts.polylines >= 3, "timeline series missing");
        // The sidebar utilization bars render one background + one fill
        // rect per listed machine.
        assert!(counts.rects >= 2, "machine bars missing");
        fn has_version_title(n: &Node) -> bool {
            match n {
                Node::Text { text, .. } => text.contains("(v0)"),
                Node::Group { children, .. } => children.iter().any(has_version_title),
                _ => false,
            }
        }
        assert!(scene.root.iter().any(has_version_title));
    }

    #[test]
    fn frame_anomaly_counts_render_badges_without_requerying() {
        use batchlens_trace::DatasetQuery;
        let ds = scenario::fig3b(5).run().unwrap();
        let timeline = ClusterTimeline::build(&ds);
        let base = ds.frame(scenario::T_FIG3B);
        let machines = base.machine_ids().to_vec();
        assert!(!machines.is_empty());

        // Batch datasets carry no anomaly stream: zero counts, no badges.
        let plain = Dashboard::new(1400.0, 900.0).render_from_frame(&base, &timeline);
        assert_eq!(base.total_anomalies(), 0);

        // Hand-build the same frame with alert counts attached and check
        // the sidebar grows badge nodes from the frame alone. Target the
        // busiest active machine so the badge falls inside the rendered rows.
        let mut ranked: Vec<_> = base
            .machines_active()
            .into_iter()
            .map(|m| (m, base.util_of(m).map(|u| u.cpu.fraction()).unwrap_or(0.0)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let target = ranked[0].0;
        let alive = machines.iter().map(|m| base.alive(*m)).collect();
        let utils = machines.iter().map(|m| base.util_of(*m)).collect();
        let mut anomalies = vec![0u32; machines.len()];
        anomalies[machines.binary_search(&target).unwrap()] = 3;
        let noisy = QueryFrame::with_anomalies(
            base.at(),
            base.version(),
            base.running_triples().to_vec(),
            machines.clone(),
            alive,
            utils,
            anomalies,
        );
        assert_eq!(noisy.anomaly_count(target), 3);
        let scene = Dashboard::new(1400.0, 900.0).render_from_frame(&noisy, &timeline);
        let plain_counts = plain.counts();
        let counts = scene.counts();
        // One badge rect and one count text beyond the zero-count render.
        assert_eq!(counts.rects, plain_counts.rects + 1, "badge rect missing");
        assert_eq!(counts.texts, plain_counts.texts + 1, "badge count missing");
        fn has_alert_header(n: &Node) -> bool {
            match n {
                Node::Text { text, .. } => text.contains("3 alerts"),
                Node::Group { children, .. } => children.iter().any(has_alert_header),
                _ => false,
            }
        }
        assert!(scene.root.iter().any(has_alert_header));
        assert!(!plain.root.iter().any(has_alert_header));
    }

    #[test]
    fn snapshot_window_is_bounded() {
        let ds = scenario::fig3b(4).run().unwrap();
        let w = snapshot_window(&ds, scenario::T_FIG3B);
        assert!(w.duration().as_seconds() <= 2 * 3600);
        assert!(w.contains(scenario::T_FIG3B) || w.end() == scenario::T_FIG3B);
    }
}
