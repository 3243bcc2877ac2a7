//! # batchlens-analytics
//!
//! The analysis layer of BatchLens: everything the paper's linked views
//! *show* is computed here, decoupled from layout and rendering.
//!
//! * [`hierarchy`] — the batch hierarchy **snapshot** at a timestamp: jobs →
//!   tasks → compute nodes with their CPU/memory/disk utilization triples
//!   (the data behind the hierarchical bubble chart).
//! * [`coalloc`] — the **co-allocation index**: which machines execute
//!   instances of several jobs simultaneously (the data behind the dotted
//!   link interaction in Fig 3(b)).
//! * [`aggregate`] — per-job node series grouped by task and the
//!   cluster-wide aggregated timeline (the data behind the line-chart views
//!   and the brushable timeline).
//! * [`detect`] — the incremental anomaly-detection engine: every detector
//!   is an online kernel ([`detect::DetectorState`], O(1) amortized per
//!   sample) and batch detection is a provided method over it. Generic
//!   metric detectors (threshold, z-score, EWMA, MAD, CUSUM, IQR, voting
//!   ensemble) plus signature detectors for the paper's two case-study
//!   behaviours (end-of-job **spike**, **thrashing**).
//! * [`rootcause`] — turns detector output plus hierarchy/co-allocation
//!   context into per-job diagnoses, reproducing the case study's narrative
//!   conclusions programmatically.
//! * [`compare`] — temporal and spatial comparison summaries ("Fig 3(b) is
//!   heavier than Fig 3(a)").
//! * [`baseline`] — a deliberately naive raw-table-scan analysis used by the
//!   benches as the "no visualization structures" comparator.
//!
//! ## Example
//!
//! ```
//! use batchlens_analytics::hierarchy::HierarchySnapshot;
//! use batchlens_sim::{scenario, SimConfig, Simulation};
//! use batchlens_trace::Timestamp;
//!
//! let ds = scenario::fig1_sample(7).run().unwrap();
//! let snap = HierarchySnapshot::at(&ds, Timestamp::new(600));
//! assert_eq!(snap.jobs.len(), 1);
//! assert_eq!(snap.jobs[0].tasks.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod baseline;
pub mod behavior;
pub mod coalloc;
pub mod compare;
pub mod detect;
pub mod hierarchy;
pub mod rootcause;
pub mod sla;
pub mod temporal;

pub use coalloc::CoallocationIndex;
pub use detect::{AnomalyKind, AnomalySpan, Detector, DetectorState, PairedDetectorState};
pub use hierarchy::HierarchySnapshot;
pub use rootcause::{Diagnosis, RootCauseAnalyzer};
