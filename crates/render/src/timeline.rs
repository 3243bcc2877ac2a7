//! The aggregated, brushable system timeline — the overview strip where the
//! user "selects an interesting time range through brushing".

use batchlens_analytics::aggregate::ClusterTimeline;
use batchlens_layout::color::task_color;
use batchlens_layout::line::lttb;
use batchlens_layout::{Brush, Color, LinearScale};
use batchlens_trace::{Metric, TimeRange};

use crate::scene::{Align, Node, Scene, Style};

/// Renders the aggregated cluster timeline with an optional brush overlay.
#[derive(Debug, Clone, Copy)]
pub struct TimelineView {
    width: f64,
    height: f64,
    margin: f64,
    point_budget: usize,
}

impl TimelineView {
    /// A timeline view for the given viewport.
    pub fn new(width: f64, height: f64) -> Self {
        TimelineView {
            width,
            height,
            margin: 30.0,
            point_budget: 400,
        }
    }

    /// The viewport `(width, height)`, the view's only parameter: two views
    /// of one size prepare the same strip from the same timeline.
    pub fn size(&self) -> (f64, f64) {
        (self.width, self.height)
    }

    /// Renders the three metric series stacked in one strip. When `brush`
    /// has a selection, the unselected regions are dimmed with an overlay.
    pub fn render(&self, timeline: &ClusterTimeline, brush: Option<&Brush>) -> Scene {
        self.prepare(timeline).render(brush)
    }

    /// Lays out everything in the strip that does not depend on the brush:
    /// the time scale, the baseline, the three series (LTTB-decimated to
    /// the point budget) and the legend. Prepare once per timeline and
    /// viewport, then [`TimelineStrip::render`] per brush.
    pub fn prepare(&self, timeline: &ClusterTimeline) -> TimelineStrip {
        let plot_left = self.margin;
        let plot_right = self.width - self.margin / 2.0;
        let plot_top = 4.0;
        let plot_bottom = self.height - self.margin / 2.0;

        // Domain from the CPU series span (all three share a grid).
        let span = timeline.cpu.span();
        let domain = span.unwrap_or_else(|| {
            TimeRange::new(
                batchlens_trace::Timestamp::ZERO,
                batchlens_trace::Timestamp::new(1),
            )
            .unwrap()
        });
        let x = LinearScale::new(
            (
                domain.start().seconds() as f64,
                domain.end().seconds() as f64,
            ),
            (plot_left, plot_right),
        )
        .clamped();
        let y = LinearScale::new((0.0, 1.0), (plot_bottom, plot_top));

        let mut nodes = Vec::new();
        // Axis baseline.
        nodes.push(Node::Line {
            from: (plot_left, plot_bottom),
            to: (plot_right, plot_bottom),
            style: Style::stroked(Color::rgb(60, 60, 60), 1.0),
        });

        for (i, metric) in [Metric::Cpu, Metric::Memory, Metric::Disk]
            .into_iter()
            .enumerate()
        {
            let series = timeline.metric(metric);
            let raw: Vec<(f64, f64)> = series
                .iter()
                .map(|(t, v)| (x.scale(t.seconds() as f64), y.scale(v)))
                .collect();
            if raw.len() >= 2 {
                let pts = lttb(&raw, self.point_budget);
                nodes.push(Node::Polyline {
                    points: pts,
                    style: Style::stroked(task_color(i).with_alpha(200), 1.2),
                });
            }
            // Legend swatch.
            nodes.push(Node::Text {
                x: plot_left + 4.0 + i as f64 * 70.0,
                y: plot_top + 10.0,
                text: metric.short_name().to_string(),
                size: 9.0,
                align: Align::Start,
                color: task_color(i),
            });
        }

        TimelineStrip {
            width: self.width,
            height: self.height,
            span,
            x,
            plot_top,
            plot_bottom,
            nodes,
        }
    }
}

/// A timeline strip laid out for one timeline and viewport, without the
/// brush: what [`TimelineView::prepare`] returns. Rendering it per brush
/// costs a copy of its nodes instead of a pass over every sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineStrip {
    width: f64,
    height: f64,
    /// The CPU series span, `None` for an empty timeline.
    span: Option<TimeRange>,
    /// Seconds to the plot's horizontal range.
    x: LinearScale,
    plot_top: f64,
    plot_bottom: f64,
    /// Baseline, series and legend, in drawing order.
    nodes: Vec<Node>,
}

impl TimelineStrip {
    /// The span the strip's time axis covers: the timeline's CPU series
    /// span, `None` when the timeline is empty.
    pub(crate) fn span(&self) -> Option<TimeRange> {
        self.span
    }

    /// The prepared strip with the brush overlay: when `brush` has a
    /// selection, the unselected regions are dimmed and the selection's
    /// edges are ruled.
    pub fn render(&self, brush: Option<&Brush>) -> Scene {
        let mut root = self.nodes.clone();
        if let Some((lo, hi)) = brush.and_then(Brush::selection) {
            let (plot_left, plot_right) = self.x.range();
            let (plot_top, plot_bottom) = (self.plot_top, self.plot_bottom);
            let sx0 = self.x.scale(lo);
            let sx1 = self.x.scale(hi);
            let dim = Color::rgb(120, 120, 120).with_alpha(60);
            // Left dim.
            root.push(Node::Rect {
                x: plot_left,
                y: plot_top,
                width: (sx0 - plot_left).max(0.0),
                height: plot_bottom - plot_top,
                style: Style::filled(dim),
            });
            // Right dim.
            root.push(Node::Rect {
                x: sx1,
                y: plot_top,
                width: (plot_right - sx1).max(0.0),
                height: plot_bottom - plot_top,
                style: Style::filled(dim),
            });
            // Selection borders.
            for sx in [sx0, sx1] {
                root.push(Node::Line {
                    from: (sx, plot_top),
                    to: (sx, plot_bottom),
                    style: Style::stroked(Color::rgb(40, 40, 40), 1.0),
                });
            }
        }
        let mut scene = Scene::new(self.width, self.height);
        scene.push(Node::group_at((0.0, 0.0), root));
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn timeline_draws_three_series() {
        let ds = scenario::fig2_sample(1).run().unwrap();
        let tl = ClusterTimeline::build(&ds);
        let scene = TimelineView::new(800.0, 120.0).render(&tl, None);
        assert_eq!(scene.counts().polylines, 3);
        // Three legend labels + baseline.
        assert_eq!(scene.counts().texts, 3);
    }

    #[test]
    fn brush_overlay_adds_dim_rects() {
        let ds = scenario::fig2_sample(2).run().unwrap();
        let tl = ClusterTimeline::build(&ds);
        let span = tl.cpu.span().unwrap();
        let mut brush = Brush::new((span.start().seconds() as f64, span.end().seconds() as f64));
        brush.select(1000.0, 3000.0);
        let scene = TimelineView::new(800.0, 120.0).render(&tl, Some(&brush));
        assert_eq!(scene.counts().rects, 2, "two dim rects flank the selection");
    }

    /// One prepared strip, rendered under a sequence of brushes, draws
    /// what a fresh render draws for each: rendering leaves the strip as
    /// it was prepared.
    #[test]
    fn prepared_strip_renders_like_a_fresh_render() {
        let ds = scenario::fig2_sample(4).run().unwrap();
        let empty = batchlens_trace::TraceDatasetBuilder::new().build().unwrap();
        for tl in [ClusterTimeline::build(&ds), ClusterTimeline::build(&empty)] {
            let view = TimelineView::new(800.0, 120.0);
            let strip = view.prepare(&tl);
            let (lo, hi) = strip.span().map_or((0.0, 1.0), |span| {
                (span.start().seconds() as f64, span.end().seconds() as f64)
            });
            let inactive = Brush::new((lo, hi));
            let mut active = inactive;
            active.select(lo + (hi - lo) / 4.0, lo + (hi - lo) / 2.0);
            let mut clamped = inactive;
            clamped.select(hi - 1.0, hi + 3600.0);
            for brush in [None, Some(&inactive), Some(&active), Some(&clamped), None] {
                assert_eq!(strip.render(brush), view.render(&tl, brush));
            }
            assert_eq!(strip, view.prepare(&tl));
            assert_eq!(strip.span(), tl.cpu.span());
            assert_eq!(strip.render(Some(&clamped)).counts().rects, 2);
        }
    }

    #[test]
    fn inactive_brush_adds_no_overlay() {
        let ds = scenario::fig2_sample(3).run().unwrap();
        let tl = ClusterTimeline::build(&ds);
        let span = tl.cpu.span().unwrap();
        let brush = Brush::new((span.start().seconds() as f64, span.end().seconds() as f64));
        let scene = TimelineView::new(800.0, 120.0).render(&tl, Some(&brush));
        assert_eq!(scene.counts().rects, 0);
    }
}
