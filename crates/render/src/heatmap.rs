//! A machine × time utilization heatmap.
//!
//! The paper cites Muelder et al.'s "behavioral lines" (ref \[21\]) for
//! portraying each compute node's behavior over time. A heatmap is the dense
//! counterpart: one row per machine, one column per time bucket, each cell
//! colored by utilization. It complements the bubble chart (spatial snapshot)
//! with a temporal overview of the whole cluster at once — useful for
//! spotting the mass-shutdown cliff or a regime change across all machines.

use batchlens_layout::color::utilization_colormap;
use batchlens_layout::{Color, LinearScale};
use batchlens_trace::{Metric, TimeDelta, TimeRange, TraceDataset};

use crate::scene::{Align, Node, Scene, Style};

/// Renders a machine × time utilization heatmap for one metric.
#[derive(Debug, Clone, Copy)]
pub struct Heatmap {
    width: f64,
    height: f64,
    margin: f64,
    /// Time bucket width; finer buckets = more columns.
    bucket: TimeDelta,
    /// Cap on machines rendered (rows); machines beyond are omitted with a
    /// note, so the SVG stays bounded for a 1300-machine cluster.
    max_rows: usize,
}

impl Heatmap {
    /// A heatmap for the given viewport.
    pub fn new(width: f64, height: f64) -> Self {
        Heatmap {
            width,
            height,
            margin: 50.0,
            bucket: TimeDelta::minutes(10),
            max_rows: 80,
        }
    }

    /// Sets the time bucket (builder).
    #[must_use]
    pub fn bucket(mut self, bucket: TimeDelta) -> Self {
        if bucket.is_positive() {
            self.bucket = bucket;
        }
        self
    }

    /// Sets the maximum machine rows (builder).
    #[must_use]
    pub fn max_rows(mut self, rows: usize) -> Self {
        self.max_rows = rows.max(1);
        self
    }

    /// Renders the heatmap for `metric` over `window`.
    pub fn render(&self, ds: &TraceDataset, metric: Metric, window: &TimeRange) -> Scene {
        let mut scene = Scene::new(self.width, self.height);
        let plot_left = self.margin;
        let plot_right = self.width - 10.0;
        let plot_top = 20.0;
        let plot_bottom = self.height - self.margin / 2.0;

        let machines: Vec<_> = ds.machines().take(self.max_rows).collect();
        if machines.is_empty() {
            scene.push(Node::Text {
                x: self.width / 2.0,
                y: self.height / 2.0,
                text: "no machines".into(),
                size: 14.0,
                align: Align::Middle,
                color: Color::rgb(120, 120, 120),
            });
            return scene;
        }

        let buckets: Vec<_> = window.steps(self.bucket).collect();
        let n_cols = buckets.len().max(1);
        let n_rows = machines.len();
        let cell_w = (plot_right - plot_left) / n_cols as f64;
        let cell_h = (plot_bottom - plot_top) / n_rows as f64;
        let colormap = utilization_colormap();

        let mut root = Vec::new();
        for (r, machine) in machines.iter().enumerate() {
            let y = plot_top + r as f64 * cell_h;
            for (col, &t) in buckets.iter().enumerate() {
                // Mean utilization over the bucket for this metric.
                let bucket_range = TimeRange::new(t, t + self.bucket).expect("ordered");
                let value = machine
                    .usage(metric)
                    .and_then(|s| s.slice(&bucket_range).stats())
                    .map(|st| st.mean)
                    .or_else(|| machine.util_at(t).map(|u| u[metric].fraction()));
                if let Some(v) = value {
                    root.push(Node::Rect {
                        x: plot_left + col as f64 * cell_w,
                        y,
                        width: cell_w + 0.5,
                        height: cell_h + 0.5,
                        style: Style::filled(colormap.at(v.clamp(0.0, 1.0))),
                    });
                }
            }
        }

        // Axis labels.
        let x = LinearScale::new(
            (
                window.start().seconds() as f64,
                window.end().seconds() as f64,
            ),
            (plot_left, plot_right),
        );
        for t in x.ticks(6) {
            root.push(Node::Text {
                x: x.scale(t),
                y: plot_bottom + 14.0,
                text: format!("{}h", (t / 3600.0).round() as i64),
                size: 9.0,
                align: Align::Middle,
                color: Color::rgb(90, 90, 90),
            });
        }
        root.push(Node::Text {
            x: plot_left,
            y: 12.0,
            text: format!(
                "{} heatmap — {} machines × {} buckets",
                metric.short_name(),
                n_rows,
                n_cols
            ),
            size: 11.0,
            align: Align::Start,
            color: Color::rgb(40, 40, 40),
        });
        if ds.machine_count() > self.max_rows {
            root.push(Node::Text {
                x: plot_right,
                y: 12.0,
                text: format!("(+{} more machines)", ds.machine_count() - self.max_rows),
                size: 9.0,
                align: Align::End,
                color: Color::rgb(150, 150, 150),
            });
        }

        scene.push(Node::group_at((0.0, 0.0), root));
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    #[test]
    fn heatmap_has_a_cell_per_machine_bucket() {
        let ds = scenario::fig1_sample(1).run().unwrap();
        let window = ds.span().unwrap();
        let hm = Heatmap::new(800.0, 400.0).bucket(TimeDelta::minutes(5));
        let scene = hm.render(&ds, Metric::Cpu, &window);
        let buckets = window.steps(TimeDelta::minutes(5)).count();
        let machines = ds.machine_count().min(80);
        // Most cells have data; allow a few empty (pre-first-sample) cells.
        assert!(scene.counts().rects <= machines * buckets);
        assert!(scene.counts().rects > 0);
    }

    #[test]
    fn row_cap_limits_and_notes() {
        let ds = scenario::fig3c(2).run().unwrap(); // 60 machines
        let scene = Heatmap::new(900.0, 500.0).max_rows(10).render(
            &ds,
            Metric::Memory,
            &ds.span().unwrap(),
        );
        // The "+N more" note appears.
        let has_note =
            |n: &Node| matches!(n, Node::Text { text, .. } if text.contains("more machines"));
        fn any(nodes: &[Node], f: &dyn Fn(&Node) -> bool) -> bool {
            nodes
                .iter()
                .any(|n| f(n) || matches!(n, Node::Group { children, .. } if any(children, f)))
        }
        assert!(any(&scene.root, &has_note));
    }

    #[test]
    fn empty_dataset_renders_note() {
        let ds = batchlens_trace::TraceDatasetBuilder::new().build().unwrap();
        let scene = Heatmap::new(400.0, 300.0).render(&ds, Metric::Cpu, &TimeRange::full_day());
        assert_eq!(scene.counts().rects, 0);
        assert_eq!(scene.counts().texts, 1);
    }

    #[test]
    fn bucket_and_rows_builders_guard_inputs() {
        let hm = Heatmap::new(100.0, 100.0)
            .bucket(TimeDelta::ZERO)
            .max_rows(0);
        // Zero bucket ignored (kept default positive), rows clamped to 1.
        assert!(hm.bucket.is_positive());
        assert_eq!(hm.max_rows, 1);
    }
}
