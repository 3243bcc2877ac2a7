//! # batchlens
//!
//! BatchLens — a visualization approach for analyzing batch jobs in cloud
//! systems (Ruan et al., DATE 2022) — as a headless Rust library.
//!
//! This crate ties the substrate, analytics, layout and render crates into
//! the system the paper describes:
//!
//! * [`app::BatchLens`] owns a [`batchlens_trace::TraceDataset`] and the
//!   current [`view::ViewState`], and exposes the analytics/render surface.
//! * [`interaction`] models every interaction in the paper — select a
//!   timestamp, brush a time range, select a job, hover a machine, switch
//!   the detail metric — as an [`interaction::Event`] applied by a pure
//!   reducer to the [`view::ViewState`]. This is how an interactive tool
//!   becomes testable and reproducible without a browser.
//! * [`pipeline`] is the one-call path the examples use: simulate →
//!   analyze → render.
//! * [`report`] renders the textual case-study report.
//! * [`stream`] is the paper's future-work "real-time online system"
//!   extension: per-machine banks of live incremental detector states (the
//!   same kernels batch detection runs on), O(1) per ingested record.
//!
//! ## Example
//!
//! ```
//! use batchlens::{BatchLens, interaction::Event};
//! use batchlens_sim::scenario;
//! use batchlens_trace::Timestamp;
//!
//! let ds = scenario::fig3b(1).run().unwrap();
//! let mut app = BatchLens::new(ds);
//! app.apply(Event::SelectTimestamp(scenario::T_FIG3B));
//! app.apply(Event::SelectJob(scenario::JOB_7901));
//! let svg = app.render_dashboard(1200.0, 800.0);
//! assert!(svg.contains("<svg"));
//! assert_eq!(app.view().selected_job(), Some(scenario::JOB_7901));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod durability;
pub mod interaction;
pub mod pipeline;
pub mod report;
pub mod session;
pub mod stream;
pub mod tour;
pub mod view;

pub use app::BatchLens;
pub use interaction::{Event, Interaction};
pub use pipeline::Pipeline;
pub use session::SessionLog;
pub use tour::{GuidedTour, TourStop};
pub use view::{DetailMetric, ViewState};

// Re-export the workspace crates so downstream users and examples need only
// depend on `batchlens`.
pub use batchlens_analytics as analytics;
pub use batchlens_layout as layout;
pub use batchlens_render as render;
pub use batchlens_sim as sim;
pub use batchlens_trace as trace;
