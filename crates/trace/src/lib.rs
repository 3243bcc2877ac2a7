//! # batchlens-trace
//!
//! Data model for Alibaba **cluster-trace-v2017**-shaped cloud traces, the
//! substrate of the BatchLens visualization system (DATE 2022).
//!
//! The Alibaba v2017 trace describes a 1300-machine production cluster over
//! 24 hours. BatchLens consumes two families of tables from it:
//!
//! * **Batch scheduler tables** (`batch_task`, `batch_instance`) — the
//!   three-level hierarchy *job → task → instance*, where each instance is
//!   executed by exactly one machine and each machine runs many instances
//!   concurrently. Batch records are reported at 300 s resolution.
//! * **Server tables** (`server_usage`, `machine_events`) — per-machine
//!   utilization of CPU, memory and disk I/O over time, plus machine
//!   lifecycle events.
//!
//! This crate provides:
//!
//! * typed identifiers ([`JobId`], [`TaskId`], [`InstanceId`], [`MachineId`])
//!   that render as the paper's `job_7399`-style names,
//! * a time model ([`Timestamp`], [`TimeDelta`], [`TimeRange`]) in seconds
//!   relative to trace start,
//! * utilization metrics ([`Metric`], [`Utilization`], [`UtilizationTriple`]),
//! * sorted [`TimeSeries`] with slicing, resampling, aggregation and
//!   summary statistics,
//! * record types mirroring the v2017 table schemas plus a line-oriented
//!   CSV codec ([`csv`]),
//! * the [`TraceDataset`] container with hierarchy and placement indexes,
//! * a columnar on-disk segment [`store`] — sorted, checksummed,
//!   memory-mapped — giving [`TraceDataset::open`] as a lazy,
//!   larger-than-RAM-friendly construction path next to the CSV parse,
//! * dataset statistics ([`stats::DatasetStats`]) reproducing the numbers
//!   quoted in the paper's Section II (75 % of jobs are single-task, 94 % of
//!   tasks are multi-instance).
//!
//! ## Example
//!
//! ```
//! use batchlens_trace::{
//!     BatchInstanceRecord, BatchTaskRecord, InstanceStatus, JobId, MachineId,
//!     TaskId, TaskStatus, Timestamp, TraceDatasetBuilder,
//! };
//!
//! let mut b = TraceDatasetBuilder::new();
//! b.push_task(BatchTaskRecord {
//!     create_time: Timestamp::new(0),
//!     modify_time: Timestamp::new(600),
//!     job: JobId::new(1),
//!     task: TaskId::new(1),
//!     instance_count: 2,
//!     status: TaskStatus::Terminated,
//!     plan_cpu: 1.0,
//!     plan_mem: 0.5,
//! });
//! for seq in 0..2 {
//!     b.push_instance(BatchInstanceRecord {
//!         start_time: Timestamp::new(0),
//!         end_time: Timestamp::new(600),
//!         job: JobId::new(1),
//!         task: TaskId::new(1),
//!         seq,
//!         total: 2,
//!         machine: MachineId::new(seq),
//!         status: InstanceStatus::Terminated,
//!         cpu_avg: 0.4,
//!         cpu_max: 0.8,
//!         mem_avg: 0.3,
//!         mem_max: 0.5,
//!     });
//! }
//! let ds = b.build()?;
//! assert_eq!(ds.jobs().count(), 1);
//! assert_eq!(ds.job(JobId::new(1)).unwrap().instance_count(), 2);
//! # Ok::<(), batchlens_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
mod dataset;
mod error;
mod ids;
mod interval;
mod metric;
pub mod query;
mod queryable;
mod record;
mod series;
pub mod stats;
pub mod store;
mod time;
pub mod wal;

pub use dataset::{
    InstanceRef, JobView, MachineInfo, MachineView, TaskView, TraceDataset, TraceDatasetBuilder,
};
pub use error::{ParseWarning, TraceError};
pub use ids::{InstanceId, JobId, MachineId, TaskId};
pub use interval::{IntervalIndex, RollingIntervalIndex};
pub use metric::{Metric, Utilization, UtilizationTriple};
pub use queryable::{alive_at_checkpoints, DatasetQuery, QueryFrame};
pub use record::{
    BatchInstanceRecord, BatchTaskRecord, InstanceStatus, MachineEvent, MachineEventRecord,
    ServerUsageRecord, TaskStatus,
};
pub use series::{naive, quantile_select, Resample, SeriesStats, SeriesView, TimeSeries};
pub use time::{TimeDelta, TimeRange, Timestamp};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::{
        BatchInstanceRecord, BatchTaskRecord, DatasetQuery, InstanceId, InstanceStatus, JobId,
        MachineEvent, MachineEventRecord, MachineId, Metric, ServerUsageRecord, TaskId, TaskStatus,
        TimeDelta, TimeRange, TimeSeries, Timestamp, TraceDataset, TraceDatasetBuilder, TraceError,
        Utilization, UtilizationTriple,
    };
}
