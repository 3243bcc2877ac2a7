//! # batchlens-layout
//!
//! Visualization layout algorithms for BatchLens, implemented from scratch
//! (the paper's prototype used D3.js; this crate is the Rust equivalent of
//! the parts of D3 it relied on, with identical algorithmic behaviour):
//!
//! * [`geometry`] — points, circles, rectangles.
//! * [`enclose`](mod@enclose) — Welzl-style smallest enclosing circle of circles
//!   (`d3.packEnclose`).
//! * [`pack`] — front-chain circle packing (`d3.packSiblings`) and the
//!   hierarchical pack layout with padding that produces the paper's
//!   three-level bubble nesting.
//! * [`scale`] — linear scales with "nice" tick generation (`d3.scaleLinear`).
//! * [`color`] — RGBA colors, the utilization colormap of Fig 1's legend and
//!   the categorical task palette of the detail line charts.
//! * [`line`](mod@line) — polyline simplification: largest-triangle-three-buckets and
//!   Douglas–Peucker, for drawing day-long series at screen resolution.
//! * [`brush`] — the 1-D brush model behind "selecting the time range via
//!   brushing".
//! * [`annotation`] — 1-D clustering of annotation-line positions (the
//!   paper's "lines bundling into one cluster" observation, made
//!   computable).
//!
//! The crate is deliberately dependency-light (no trace types): everything
//! operates on `f64`, and callers map timestamps/utilizations in and out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotation;
pub mod brush;
pub mod color;
pub mod enclose;
pub mod geometry;
pub mod line;
pub mod pack;
pub mod scale;

pub use brush::Brush;
pub use color::Color;
pub use enclose::enclose;
pub use geometry::{Circle, Point, Rect};
pub use pack::{pack_siblings, PackNode};
pub use scale::LinearScale;
