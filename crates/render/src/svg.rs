//! SVG serialization of a [`crate::scene::Scene`].

use std::fmt::Write as _;

use batchlens_layout::Color;

use crate::scene::{Align, Node, Scene, Stroke, Style};

pub mod reference;

/// Serializes a scene into a standalone SVG document string.
///
/// The output is deterministic and self-contained (no external refs), so
/// figures are byte-stable across runs and diffable in tests. Every token
/// is written straight into the returned `String`; nothing is allocated per
/// number, colour or label.
///
/// Numbers are printed compactly:
///
/// * a non-finite value prints `0`;
/// * an integral value with `|v| < 1e15` prints as an integer;
/// * any other value prints as `format!("{v:.3}")` does — the exact binary
///   value rounded half-to-even to three decimals, so `0.0625` prints
///   `0.062` — with trailing zeros and a bare `.` removed.
///
/// The bytes equal those of [`reference::to_svg`], the retained
/// allocate-per-token serializer (the workspace's `svg_differential`
/// suite asserts it).
pub fn to_svg(scene: &Scene) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    s.push_str("<svg xmlns=\"http://www.w3.org/2000/svg\"");
    num_attr(&mut s, "width", scene.width);
    num_attr(&mut s, "height", scene.height);
    s.push_str(" viewBox=\"0 0 ");
    push_pair(&mut s, scene.width, ' ', scene.height);
    s.push_str("\">\n");
    // Background.
    s.push_str("<rect x=\"0\" y=\"0\"");
    num_attr(&mut s, "width", scene.width);
    num_attr(&mut s, "height", scene.height);
    color_attr(&mut s, "fill", scene.background);
    s.push_str("/>\n");
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
                s.push_str(" transform=\"translate(");
                push_pair(s, tx, ' ', ty);
                s.push_str(")\"");
            }
            if let Some(l) = label {
                s.push_str(" data-label=\"");
                push_escaped(s, l);
                s.push('"');
            }
            s.push_str(">\n");
            if let Some(l) = label {
                s.push_str("<title>");
                push_escaped(s, l);
                s.push_str("</title>\n");
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
            num_attr(s, "cx", *cx);
            num_attr(s, "cy", *cy);
            num_attr(s, "r", *r);
            write_style(s, style);
            match label {
                Some(l) => {
                    s.push_str("><title>");
                    push_escaped(s, l);
                    s.push_str("</title></circle>\n");
                }
                None => s.push_str("/>\n"),
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
            s.push_str("<path d=\"");
            push_annulus_path(s, *cx, *cy, *inner, *outer, *start_angle, *end_angle);
            s.push('"');
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Polyline { points, style } => {
            s.push_str("<polyline points=\"");
            for (i, &(x, y)) in points.iter().enumerate() {
                if i > 0 {
                    s.push(' ');
                }
                push_pair(s, x, ',', y);
            }
            s.push('"');
            write_style(s, style);
            s.push_str("/>\n");
        }
        Node::Line { from, to, style } => {
            s.push_str("<line");
            num_attr(s, "x1", from.0);
            num_attr(s, "y1", from.1);
            num_attr(s, "x2", to.0);
            num_attr(s, "y2", to.1);
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
            s.push_str("<rect");
            num_attr(s, "x", *x);
            num_attr(s, "y", *y);
            num_attr(s, "width", *width);
            num_attr(s, "height", *height);
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
            s.push_str("<text");
            num_attr(s, "x", *x);
            num_attr(s, "y", *y);
            num_attr(s, "font-size", *size);
            s.push_str(" text-anchor=\"");
            s.push_str(anchor);
            s.push_str("\" font-family=\"sans-serif\"");
            color_attr(s, "fill", *color);
            s.push('>');
            push_escaped(s, text);
            s.push_str("</text>\n");
        }
    }
}

fn write_style(s: &mut String, style: &Style) {
    match style.fill {
        Some(c) => {
            color_attr(s, "fill", c);
            if c.a != 255 {
                num_attr(s, "fill-opacity", c.a as f64 / 255.0);
            }
        }
        None => s.push_str(" fill=\"none\""),
    }
    if style.opacity < 1.0 {
        num_attr(s, "opacity", style.opacity);
    }
    if let Some(c) = style.stroke {
        color_attr(s, "stroke", c);
        num_attr(s, "stroke-width", style.stroke_width);
        if c.a != 255 {
            num_attr(s, "stroke-opacity", c.a as f64 / 255.0);
        }
        let w = style.stroke_width;
        let dash = match style.dash {
            Stroke::Solid => None,
            Stroke::Dotted => Some((w, w * 2.0)),
            Stroke::Dashed => Some((w * 4.0, w * 2.0)),
        };
        if let Some((on, off)) = dash {
            s.push_str(" stroke-dasharray=\"");
            push_pair(s, on, ' ', off);
            s.push('"');
        }
    }
}

/// Appends the SVG path for an annulus sector (ring wedge).
fn push_annulus_path(
    s: &mut String,
    cx: f64,
    cy: f64,
    inner: f64,
    outer: f64,
    start: f64,
    end: f64,
) {
    let (cos_s, sin_s) = (start.cos(), start.sin());
    let (cos_e, sin_e) = (end.cos(), end.sin());
    let large = if (end - start).abs() > std::f64::consts::PI {
        '1'
    } else {
        '0'
    };
    // Outer arc sweeps positive (1), inner arc sweeps back (0).
    s.push_str("M ");
    push_pair(s, cx + outer * cos_s, ' ', cy + outer * sin_s);
    s.push_str(" A ");
    push_pair(s, outer, ' ', outer);
    s.push_str(" 0 ");
    s.push(large);
    s.push_str(" 1 ");
    push_pair(s, cx + outer * cos_e, ' ', cy + outer * sin_e);
    s.push_str(" L ");
    push_pair(s, cx + inner * cos_e, ' ', cy + inner * sin_e);
    s.push_str(" A ");
    push_pair(s, inner, ' ', inner);
    s.push_str(" 0 ");
    s.push(large);
    s.push_str(" 0 ");
    push_pair(s, cx + inner * cos_s, ' ', cy + inner * sin_s);
    s.push_str(" Z");
}

/// Appends ` name="v"`.
fn num_attr(s: &mut String, name: &str, v: f64) {
    s.push(' ');
    s.push_str(name);
    s.push_str("=\"");
    push_num(s, v);
    s.push('"');
}

/// Appends ` name="#rrggbb[aa]"` through `Color`'s `Display`, the one hex
/// encoder.
fn color_attr(s: &mut String, name: &str, c: Color) {
    s.push(' ');
    s.push_str(name);
    s.push_str("=\"");
    let _ = write!(s, "{c}");
    s.push('"');
}

/// Appends `a`, `sep` and `b`.
fn push_pair(s: &mut String, a: f64, sep: char, b: f64) {
    push_num(s, a);
    s.push(sep);
    push_num(s, b);
}

/// Appends `v` in the number format [`to_svg`] documents.
fn push_num(s: &mut String, v: f64) {
    if !v.is_finite() {
        s.push('0');
    } else if let Some(q) = thousandths(v) {
        // An integral value prints as an integer either way; `-0.0` is the
        // one value whose sign the integer form drops.
        if v < 0.0 {
            s.push('-');
        }
        push_digits(s, q / 1000);
        let mut frac = q % 1000;
        if frac != 0 {
            s.push('.');
            // Stopping once the rest is zero drops the trailing zeros.
            let mut unit = 100;
            while frac != 0 {
                s.push(char::from(b'0' + (frac / unit) as u8));
                frac %= unit;
                unit /= 10;
            }
        }
    } else {
        // |v| ≥ 2^52, an integer: `{:.3}` prints its digits and `.000`.
        let start = s.len();
        let _ = write!(s, "{v:.3}");
        let kept = s[start..].trim_end_matches('0').trim_end_matches('.').len();
        s.truncate(start + kept);
    }
}

/// `|v| · 1000` rounded half-to-even, computed exactly from `v`'s bits:
/// the digits `format!("{v:.3}")` prints, without the point. `None` when
/// `v`'s binary exponent is not negative (`|v| ≥ 2^52`).
fn thousandths(v: f64) -> Option<u64> {
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // |v| = m / 2^k with m < 2^53.
    let (m, k) = if biased == 0 {
        (fraction, 1074)
    } else {
        (fraction | 1 << 52, 1075 - biased as i64)
    };
    if k <= 0 {
        return None;
    }
    // m · 1000 < 2^63, so from k = 64 on it is below half of 2^k.
    if k >= 64 {
        return Some(0);
    }
    let n = m * 1000;
    let q = n >> k;
    let rem = n & ((1 << k) - 1);
    let half = 1 << (k - 1);
    Some(q + u64::from(rem > half || (rem == half && q & 1 == 1)))
}

/// Appends the decimal digits of `n`.
fn push_digits(s: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.extend(buf[at..].iter().map(|&d| char::from(d)));
}

/// Appends `text` with the XML special characters escaped.
fn push_escaped(s: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '&' => s.push_str("&amp;"),
            '<' => s.push_str("&lt;"),
            '>' => s.push_str("&gt;"),
            '"' => s.push_str("&quot;"),
            '\'' => s.push_str("&#39;"),
            _ => s.push(ch),
        }
    }
}

/// Estimates the text color (black or white) with the best contrast against
/// a background — used by renderers to label colored glyphs.
pub fn contrasting_text(background: Color) -> Color {
    if background.luminance() > 0.55 {
        Color::BLACK
    } else {
        Color::WHITE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::Scene;

    fn num(v: f64) -> String {
        let mut s = String::new();
        push_num(&mut s, v);
        s
    }

    fn escape(text: &str) -> String {
        let mut s = String::new();
        push_escaped(&mut s, text);
        s
    }

    #[test]
    fn empty_scene_is_valid_svg() {
        let svg = to_svg(&Scene::new(100.0, 50.0));
        assert!(svg.starts_with("<?xml"));
        assert!(svg.contains("width=\"100\" height=\"50\""));
        assert!(svg.contains("viewBox=\"0 0 100 50\""));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    fn circle_emits_attributes() {
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Circle {
            cx: 5.0,
            cy: 5.0,
            r: 3.0,
            style: Style::filled(Color::rgb(255, 0, 0)),
            label: Some("node".into()),
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("<circle cx=\"5\" cy=\"5\" r=\"3\""));
        assert!(svg.contains("fill=\"#ff0000\""));
        assert!(svg.contains("<title>node</title>"));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(num(5.0), "5");
        assert_eq!(num(5.5), "5.5");
        assert_eq!(num(5.12345), "5.123");
        assert_eq!(num(5.100), "5.1");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(-3.0), "-3");
        // Exact ties round half-to-even; 1.0005 is stored just below its
        // tie. Rounding v · 1000 in floating point gets both wrong.
        assert_eq!(num(0.0625), "0.062");
        assert_eq!(num(0.1875), "0.188");
        assert_eq!(num(1.0005), "1");
        assert_eq!(num(0.05), "0.05");
        assert_eq!(num(-0.0004), "-0");
        assert_eq!(num(-0.0), "0");
        assert_eq!(num(f64::MIN_POSITIVE / 4.0), "0");
        assert_eq!(num(1e15), "1000000000000000");
        assert_eq!(num(-1e20), "-100000000000000000000");
        assert_eq!(num(4503599627370495.5), "4503599627370495.5");
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a & b < c > d \""), "a &amp; b &lt; c &gt; d &quot;");
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Text {
            x: 0.0,
            y: 0.0,
            text: "job <1> & \"x\"".into(),
            size: 10.0,
            align: Align::Start,
            color: Color::BLACK,
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("job &lt;1&gt; &amp; &quot;x&quot;"));
        assert!(!svg.contains("job <1>"));
    }

    #[test]
    fn dotted_stroke_has_dasharray() {
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Circle {
            cx: 5.0,
            cy: 5.0,
            r: 3.0,
            style: Style::stroked(Color::BLACK, 2.0).dash(Stroke::Dotted),
            label: None,
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("stroke-dasharray"));
    }

    #[test]
    fn polyline_points_are_ordered() {
        let mut scene = Scene::new(10.0, 10.0);
        scene.push(Node::Polyline {
            points: vec![(0.0, 0.0), (1.0, 2.0), (3.0, 1.0)],
            style: Style::stroked(Color::BLACK, 1.0),
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("points=\"0,0 1,2 3,1\""));
        assert!(svg.contains("fill=\"none\""));
    }

    #[test]
    fn annulus_sector_is_a_path() {
        let mut scene = Scene::new(100.0, 100.0);
        scene.push(Node::AnnulusSector {
            cx: 50.0,
            cy: 50.0,
            inner: 10.0,
            outer: 20.0,
            start_angle: 0.0,
            end_angle: std::f64::consts::FRAC_PI_2,
            style: Style::filled(Color::rgb(0, 128, 0)),
        });
        let svg = to_svg(&scene);
        assert!(svg.contains("<path d=\"M "));
        assert!(svg.contains(" A 20 20 0 "));
        assert!(svg.contains(" A 10 10 0 "));
        assert!(svg.contains('Z'));
    }

    #[test]
    fn contrast_picks_readable_color() {
        assert_eq!(contrasting_text(Color::WHITE), Color::BLACK);
        assert_eq!(contrasting_text(Color::BLACK), Color::WHITE);
    }
}
