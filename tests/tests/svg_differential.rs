//! Differential proptests for the SVG writer: [`svg::to_svg`], which
//! writes every token straight into one output string, must produce
//! exactly the bytes of [`reference::to_svg`], the retained serializer that
//! allocates per token.
//!
//! The random scenes cover every [`Node`] variant (nested, labelled and
//! unlabelled groups with zero and non-zero translations), labels with
//! XML specials and non-ASCII text, colours at alpha 255 and below,
//! opacity below and at 1, and every [`Stroke`]. Their numbers are drawn
//! from the inputs that separate an exact `{:.3}` from a shortcut:
//! integers, ±0, NaN, ±∞, values ≥ 1e15, subnormals, exact ties that
//! round half-to-even, and the f64 neighbours of every near-tie
//! (2j+1)/2000. Deterministic cases add every tie in a range and the fig3
//! dashboards through both dashboard render paths.

use batchlens::analytics::aggregate::ClusterTimeline;
use batchlens::layout::Color;
use batchlens::render::svg::{self, reference};
use batchlens::render::{Align, Dashboard, Node, Scene, Stroke, Style};
use batchlens::sim::scenario;
use batchlens::trace::DatasetQuery;
use proptest::prelude::*;

/// Labels and texts: XML specials, non-ASCII, empty.
const LABELS: [&str; 6] = [
    "node",
    "job <1> & \"x\"",
    "it's a 'quote'",
    "ジョブ 7901 — ünïcödé ✓",
    "",
    "a&b<c>d\"e'f&amp;",
];

/// Maps a category and raw bits to one of the number classes above.
fn pick_number(class: u8, raw: u64) -> f64 {
    let sign = if raw & 1 == 1 { -1.0 } else { 1.0 };
    let r = raw >> 1;
    match class {
        0 => sign * (r % 5_000) as f64,
        1 => sign * 0.0,
        2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(r % 3) as usize],
        // ≥ 1e15: integral, and fractional where the spacing allows it.
        3 => sign * (1e15 * (1 + r % 100_000) as f64 + (r % 8) as f64 * 0.125),
        4 => sign * f64::from_bits(r % (1 << 52)),
        // Exact ties: odd multiples of 1/16 sit half-way between two
        // thousandths and round half-to-even.
        5 => sign * (2 * (r % 100_000) + 1) as f64 / 16.0,
        // Near-ties (2j+1)/2000 and their f64 neighbours.
        6 => {
            let t = sign * (2 * ((r >> 2) % 200_000) + 1) as f64 / 2000.0;
            match r & 3 {
                0 => t.next_down(),
                1 => t.next_up(),
                _ => t,
            }
        }
        7 => f64::from_bits(raw),
        // Ordinary screen coordinates.
        _ => sign * (r >> 11) as f64 / (1u64 << 53) as f64 * 2_000.0,
    }
}

fn number() -> impl Strategy<Value = f64> {
    (0u8..10, 0u64..=u64::MAX).prop_map(|(class, raw)| pick_number(class, raw))
}

/// One step of a scene program: open or close a group, or emit a leaf.
#[derive(Debug, Clone)]
struct Op {
    kind: u8,
    nums: Vec<f64>,
    label: usize,
    rgba: (u8, u8, u8, u8),
    bits: u8,
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..12,
        prop::collection::vec(number(), 7..8),
        0usize..LABELS.len() + 2,
        (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
        0u8..=255,
    )
        .prop_map(|(kind, nums, label, rgba, bits)| Op {
            kind,
            nums,
            label,
            rgba,
            bits,
        })
}

impl Op {
    fn label(&self) -> Option<String> {
        LABELS.get(self.label).map(|l| l.to_string())
    }

    /// Alpha 255 for half the draws, any alpha otherwise.
    fn color(&self, salt: u8) -> Color {
        let (r, g, b, a) = self.rgba;
        let a = if (self.bits ^ salt) & 1 == 0 { 255 } else { a };
        Color::rgba(r ^ salt, g, b.wrapping_add(salt), a)
    }

    fn style(&self) -> Style {
        let fill = (self.bits & 2 != 0).then(|| self.color(0));
        let stroke = (self.bits & 4 != 0).then(|| self.color(0x5a));
        let dash = [Stroke::Solid, Stroke::Dotted, Stroke::Dashed][usize::from(self.bits >> 3) % 3];
        let opacity = match (self.bits >> 5) % 4 {
            0 | 1 => 1.0,
            2 => self.nums[6].abs().fract(),
            _ => self.nums[6],
        };
        Style {
            fill,
            stroke,
            stroke_width: self.nums[5],
            dash,
            opacity,
        }
    }

    fn leaf(&self) -> Node {
        let n = &self.nums;
        match self.kind {
            2 | 3 => Node::Circle {
                cx: n[0],
                cy: n[1],
                r: n[2],
                style: self.style(),
                label: self.label(),
            },
            4 | 5 => Node::AnnulusSector {
                cx: n[0],
                cy: n[1],
                inner: n[2],
                outer: n[3],
                start_angle: n[4],
                end_angle: n[4] + (self.bits as f64) * 0.05,
                style: self.style(),
            },
            6 => Node::Polyline {
                points: (0..usize::from(self.bits) % 4)
                    .map(|i| (n[i], n[i + 1]))
                    .collect(),
                style: self.style(),
            },
            7 => Node::Line {
                from: (n[0], n[1]),
                to: (n[2], n[3]),
                style: self.style(),
            },
            8 => Node::Rect {
                x: n[0],
                y: n[1],
                width: n[2],
                height: n[3],
                style: self.style(),
            },
            _ => Node::Text {
                x: n[0],
                y: n[1],
                text: self.label().unwrap_or_default(),
                size: n[2],
                align: [Align::Start, Align::Middle, Align::End][usize::from(self.bits) % 3],
                color: self.color(0x33),
            },
        }
    }

    /// Zero, one or both axes translated.
    fn translate(&self) -> (f64, f64) {
        match self.bits % 4 {
            0 => (0.0, 0.0),
            1 => (self.nums[0], 0.0),
            2 => (0.0, self.nums[1]),
            _ => (self.nums[0], self.nums[1]),
        }
    }
}

/// Runs a scene program: kind 0 opens a group, kind 1 closes the innermost
/// open one, anything else appends a leaf to it.
fn build_scene(width: f64, height: f64, background: Op, ops: &[Op]) -> Scene {
    type Open = (Option<String>, (f64, f64), Vec<Node>);
    fn close(stack: &mut Vec<Open>) {
        let (label, translate, children) = stack.pop().expect("an open group");
        let parent = &mut stack.last_mut().expect("the root").2;
        parent.push(Node::Group {
            label,
            translate,
            children,
        });
    }
    let mut stack: Vec<Open> = vec![(None, (0.0, 0.0), Vec::new())];
    for op in ops {
        match op.kind {
            0 => stack.push((op.label(), op.translate(), Vec::new())),
            1 if stack.len() > 1 => close(&mut stack),
            _ => stack.last_mut().expect("the root").2.push(op.leaf()),
        }
    }
    while stack.len() > 1 {
        close(&mut stack);
    }
    let mut scene = Scene::new(width, height).background(background.color(0));
    for node in stack.pop().expect("the root").2 {
        scene.push(node);
    }
    scene
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn writer_equals_reference_on_random_scenes(
        size in (number(), number()),
        background in op(),
        ops in prop::collection::vec(op(), 0..48),
    ) {
        let scene = build_scene(size.0, size.1, background, &ops);
        prop_assert_eq!(svg::to_svg(&scene), reference::to_svg(&scene));
    }
}

/// Every near-tie (2j+1)/2000 in a range, its f64 neighbours and the exact
/// ties among them, negated too, as polyline points.
#[test]
fn every_tie_and_neighbour_in_range_matches_the_reference() {
    let mut points = Vec::new();
    for j in -50_000i64..50_000 {
        let t = (2 * j + 1) as f64 / 2000.0;
        for v in [t.next_down(), t, t.next_up()] {
            points.push((v, -v));
        }
    }
    let mut scene = Scene::new(1.0, 1.0);
    scene.push(Node::Polyline {
        points,
        style: Style::stroked(Color::BLACK, 1.0),
    });
    assert_eq!(svg::to_svg(&scene), reference::to_svg(&scene));
}

/// The paper's three case-study dashboards, through both render paths.
#[test]
fn fig3_dashboards_match_the_reference() {
    for (build, at) in [
        (
            scenario::fig3a as fn(u64) -> batchlens::sim::Simulation,
            scenario::T_FIG3A,
        ),
        (scenario::fig3b, scenario::T_FIG3B),
        (scenario::fig3c, scenario::T_FIG3C),
    ] {
        let ds = build(7).run().unwrap();
        let timeline = ClusterTimeline::build(&ds);
        let dashboard = Dashboard::new(1200.0, 800.0);
        for scene in [
            dashboard.render_with_timeline(&ds, at, &timeline),
            dashboard.render_from_frame(&ds.frame(at), &timeline),
        ] {
            let written = svg::to_svg(&scene);
            assert!(written.contains("<path d=\"M "));
            assert_eq!(written, reference::to_svg(&scene), "fig3 at {at}");
        }
    }
}
