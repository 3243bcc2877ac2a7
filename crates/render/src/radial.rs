//! A radial state-change comparison view.
//!
//! The paper's reference \[18\] is the authors' own *Intercept Graph*, an
//! interactive radial visualization for comparing quantitative state changes.
//! BatchLens's spatial comparison ("job_7901 on busier nodes than others")
//! is exactly such a comparison. This view lays jobs (or machines) around a
//! circle and draws a radial bar per entity whose length encodes a metric,
//! with an inner/outer pair encoding a *before/after* state change — a
//! compact alternative to the line charts for comparing many entities at
//! once.

use std::f64::consts::TAU;

use batchlens_layout::color::utilization_colormap;
use batchlens_layout::{Color, LinearScale};

use crate::scene::{Align, Node, Scene, Style};

/// One radial spoke: an entity with a before/after value pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Spoke {
    /// Entity label (job or machine id).
    pub label: String,
    /// Value before the compared event (inner radius extent), `0..=1`.
    pub before: f64,
    /// Value after the compared event (outer radius extent), `0..=1`.
    pub after: f64,
}

/// Renders a radial state-change comparison.
#[derive(Debug, Clone, Copy)]
pub struct RadialComparison {
    width: f64,
    height: f64,
    inner_frac: f64,
}

impl RadialComparison {
    /// A radial view for the given viewport.
    pub fn new(width: f64, height: f64) -> Self {
        RadialComparison {
            width,
            height,
            inner_frac: 0.35,
        }
    }

    /// Renders the spokes. Each spoke is a radial wedge from the inner hub;
    /// the `before` value sets a baseline ring, the `after` value the filled
    /// length, colored by the utilization colormap on `after`.
    pub fn render(&self, spokes: &[Spoke]) -> Scene {
        let mut scene = Scene::new(self.width, self.height);
        if spokes.is_empty() {
            scene.push(Node::Text {
                x: self.width / 2.0,
                y: self.height / 2.0,
                text: "no entities to compare".into(),
                size: 14.0,
                align: Align::Middle,
                color: Color::rgb(120, 120, 120),
            });
            return scene;
        }
        let cx = self.width / 2.0;
        let cy = self.height / 2.0;
        let max_r = self.width.min(self.height) / 2.0 - 30.0;
        let inner = max_r * self.inner_frac;
        let radial = LinearScale::new((0.0, 1.0), (inner, max_r));
        let colormap = utilization_colormap();

        let mut root = Vec::new();
        // Hub circle.
        root.push(Node::Circle {
            cx,
            cy,
            r: inner,
            style: Style::stroked(Color::rgb(150, 150, 150), 1.0),
            label: None,
        });

        let n = spokes.len();
        let wedge = TAU / n as f64;
        for (i, spoke) in spokes.iter().enumerate() {
            let a0 = i as f64 * wedge;
            let a1 = a0 + wedge * 0.8; // leave a gap between wedges
            let mid = (a0 + a1) / 2.0;

            // The "after" filled wedge.
            let r_after = radial.scale(spoke.after.clamp(0.0, 1.0));
            root.push(Node::AnnulusSector {
                cx,
                cy,
                inner,
                outer: r_after,
                start_angle: a0,
                end_angle: a1,
                style: Style::filled(colormap.at(spoke.after.clamp(0.0, 1.0))),
            });

            // The "before" baseline arc (thin ring marker).
            let r_before = radial.scale(spoke.before.clamp(0.0, 1.0));
            root.push(Node::AnnulusSector {
                cx,
                cy,
                inner: r_before - 1.0,
                outer: r_before + 1.0,
                start_angle: a0,
                end_angle: a1,
                style: Style::filled(Color::rgb(40, 40, 40)),
            });

            // Label at the outer edge.
            let lx = cx + (max_r + 12.0) * mid.cos();
            let ly = cy + (max_r + 12.0) * mid.sin();
            let align = if mid.cos() >= 0.0 {
                Align::Start
            } else {
                Align::End
            };
            root.push(Node::Text {
                x: lx,
                y: ly,
                text: spoke.label.clone(),
                size: 9.0,
                align,
                color: Color::rgb(40, 40, 40),
            });
        }
        scene.push(Node::group_at((0.0, 0.0), root));
        scene
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spokes() -> Vec<Spoke> {
        vec![
            Spoke {
                label: "job_1".into(),
                before: 0.2,
                after: 0.8,
            },
            Spoke {
                label: "job_2".into(),
                before: 0.5,
                after: 0.5,
            },
            Spoke {
                label: "job_3".into(),
                before: 0.9,
                after: 0.3,
            },
        ]
    }

    #[test]
    fn renders_one_wedge_per_spoke() {
        let scene = RadialComparison::new(400.0, 400.0).render(&spokes());
        // Each spoke → 2 sectors (after + before marker); 1 hub circle.
        assert_eq!(scene.counts().sectors, 6);
        assert_eq!(scene.counts().circles, 1);
        assert_eq!(scene.counts().texts, 3);
    }

    #[test]
    fn empty_renders_note() {
        let scene = RadialComparison::new(400.0, 400.0).render(&[]);
        assert_eq!(scene.counts().texts, 1);
        assert_eq!(scene.counts().sectors, 0);
    }

    #[test]
    fn values_are_clamped() {
        let wild = vec![Spoke {
            label: "x".into(),
            before: -1.0,
            after: 2.0,
        }];
        // Should not panic and should still produce sectors.
        let scene = RadialComparison::new(300.0, 300.0).render(&wild);
        assert!(scene.counts().sectors >= 1);
    }
}
