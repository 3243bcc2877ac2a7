//! The serializer as it was before the allocation-free writer in
//! [`super`], kept verbatim as the oracle for differential tests and as the
//! baseline of the `svg_render_*` benchmark rows.
//!
//! Every number goes through an allocating `format!`, so this path is
//! several times slower than [`super::to_svg`]; do not call it on hot paths.
//! The two produce byte-identical documents (the workspace's
//! `svg_differential` suite asserts it).

use std::fmt::Write as _;

use crate::scene::{Align, Node, Scene, Stroke, Style};

/// Serializes a scene into a standalone SVG document string.
///
/// The output is deterministic and self-contained (no external refs), so
/// figures are byte-stable across runs and diffable in tests.
pub fn to_svg(scene: &Scene) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    let _ = writeln!(
        s,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\">",
        w = fmt_num(scene.width),
        h = fmt_num(scene.height),
    );
    // Background.
    let _ = writeln!(
        s,
        "<rect x=\"0\" y=\"0\" width=\"{}\" height=\"{}\" fill=\"{}\"/>",
        fmt_num(scene.width),
        fmt_num(scene.height),
        scene.background,
    );
    for node in &scene.root {
        write_node(&mut s, node);
    }
    s.push_str("</svg>\n");
    s
}

fn write_node(s: &mut String, node: &Node) {
    match node {
        Node::Group {
            label,
            translate,
            children,
        } => {
            let (tx, ty) = *translate;
            s.push_str("<g");
            if tx != 0.0 || ty != 0.0 {
                let _ = write!(
                    s,
                    " transform=\"translate({} {})\"",
                    fmt_num(tx),
                    fmt_num(ty)
                );
            }
            if let Some(l) = label {
                let _ = write!(s, " data-label=\"{}\"", escape(l));
            }
            s.push_str(">\n");
            if let Some(l) = label {
                let _ = writeln!(s, "<title>{}</title>", escape(l));
            }
            for child in children {
                write_node(s, child);
            }
            s.push_str("</g>\n");
        }
        Node::Circle {
            cx,
            cy,
            r,
            style,
            label,
        } => {
            s.push_str("<circle");
            let _ = write!(
                s,
                " cx=\"{}\" cy=\"{}\" r=\"{}\"",
                fmt_num(*cx),
                fmt_num(*cy),
                fmt_num(*r)
            );
            write_style(s, style);
            if label.is_some() {
                s.push('>');
                if let Some(l) = label {
                    let _ = write!(s, "<title>{}</title>", escape(l));
                }
                s.push_str("</circle>\n");
            } else {
                s.push_str("/>\n");
            }
        }
        Node::AnnulusSector {
            cx,
            cy,
            inner,
            outer,
            start_angle,
            end_angle,
            style,
        } => {
            let _ = write!(
                s,
                "<path d=\"{}\"",
                annulus_path(*cx, *cy, *inner, *outer, *start_angle, *end_angle)
            );
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Polyline { points, style } => {
            s.push_str("<polyline points=\"");
            for (i, (x, y)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                let _ = write!(s, "{},{}", fmt_num(*x), fmt_num(*y));
            }
            s.push('"');
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Line { from, to, style } => {
            let _ = write!(
                s,
                "<line x1=\"{}\" y1=\"{}\" x2=\"{}\" y2=\"{}\"",
                fmt_num(from.0),
                fmt_num(from.1),
                fmt_num(to.0),
                fmt_num(to.1)
            );
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Rect {
            x,
            y,
            width,
            height,
            style,
        } => {
            let _ = write!(
                s,
                "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\"",
                fmt_num(*x),
                fmt_num(*y),
                fmt_num(*width),
                fmt_num(*height)
            );
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Text {
            x,
            y,
            text,
            size,
            align,
            color,
        } => {
            let anchor = match align {
                Align::Start => "start",
                Align::Middle => "middle",
                Align::End => "end",
            };
            let _ = writeln!(
                s,
                "<text x=\"{}\" y=\"{}\" font-size=\"{}\" text-anchor=\"{}\" \
                 font-family=\"sans-serif\" fill=\"{}\">{}</text>",
                fmt_num(*x),
                fmt_num(*y),
                fmt_num(*size),
                anchor,
                color,
                escape(text)
            );
        }
    }
}

fn write_style(s: &mut String, style: &Style) {
    match style.fill {
        Some(c) => {
            let _ = write!(s, " fill=\"{}\"", c);
            if c.a != 255 {
                let _ = write!(s, " fill-opacity=\"{}\"", fmt_num(c.a as f64 / 255.0));
            }
        }
        None => s.push_str(" fill=\"none\""),
    }
    if style.opacity < 1.0 {
        let _ = write!(s, " opacity=\"{}\"", fmt_num(style.opacity));
    }
    if let Some(c) = style.stroke {
        let _ = write!(
            s,
            " stroke=\"{}\" stroke-width=\"{}\"",
            c,
            fmt_num(style.stroke_width)
        );
        if c.a != 255 {
            let _ = write!(s, " stroke-opacity=\"{}\"", fmt_num(c.a as f64 / 255.0));
        }
        match style.dash {
            Stroke::Solid => {}
            Stroke::Dotted => {
                let _ = write!(
                    s,
                    " stroke-dasharray=\"{} {}\"",
                    fmt_num(style.stroke_width),
                    fmt_num(style.stroke_width * 2.0)
                );
            }
            Stroke::Dashed => {
                let _ = write!(
                    s,
                    " stroke-dasharray=\"{} {}\"",
                    fmt_num(style.stroke_width * 4.0),
                    fmt_num(style.stroke_width * 2.0)
                );
            }
        }
    }
}

/// Builds the SVG path for an annulus sector (ring wedge).
fn annulus_path(cx: f64, cy: f64, inner: f64, outer: f64, start: f64, end: f64) -> String {
    let (sx_o, sy_o) = (cx + outer * start.cos(), cy + outer * start.sin());
    let (ex_o, ey_o) = (cx + outer * end.cos(), cy + outer * end.sin());
    let (sx_i, sy_i) = (cx + inner * end.cos(), cy + inner * end.sin());
    let (ex_i, ey_i) = (cx + inner * start.cos(), cy + inner * start.sin());
    let large = if (end - start).abs() > std::f64::consts::PI {
        1
    } else {
        0
    };
    // Outer arc sweeps positive (1), inner arc sweeps back (0).
    format!(
        "M {} {} A {r} {r} 0 {large} 1 {} {} L {} {} A {ri} {ri} 0 {large} 0 {} {} Z",
        fmt_num(sx_o),
        fmt_num(sy_o),
        fmt_num(ex_o),
        fmt_num(ey_o),
        fmt_num(sx_i),
        fmt_num(sy_i),
        fmt_num(ex_i),
        fmt_num(ey_i),
        r = fmt_num(outer),
        ri = fmt_num(inner),
        large = large,
    )
}

/// Formats a number compactly: integers without a decimal point, others to
/// three decimals with trailing zeros trimmed.
fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    let mut s = format!("{v:.3}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(ch),
        }
    }
    out
}
