use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::{
    BatchInstanceRecord, BatchTaskRecord, InstanceId, IntervalIndex, JobId, MachineEvent,
    MachineEventRecord, MachineId, Metric, ServerUsageRecord, TaskId, TimeRange, TimeSeries,
    Timestamp, TraceError, UtilizationTriple,
};

/// A fully indexed, immutable trace: the substrate every BatchLens view
/// queries.
///
/// Build one with [`TraceDatasetBuilder`] (from simulator output or parsed
/// CSV tables). The dataset owns:
///
/// * the **batch hierarchy** — jobs → tasks → instances, each instance pinned
///   to one machine,
/// * the **machine table** — capacities and lifecycle events,
/// * the **usage series** — one [`TimeSeries`] per machine per
///   [`Metric`].
///
/// All accessors are `O(log n)` or better thanks to the indexes built at
/// construction time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceDataset {
    tasks: BTreeMap<(JobId, TaskId), BatchTaskRecord>,
    instances: Vec<BatchInstanceRecord>,
    /// `(job, task)` → indices into `instances`, sorted by seq.
    task_instances: BTreeMap<(JobId, TaskId), Vec<usize>>,
    /// machine → indices into `instances`.
    machine_instances: BTreeMap<MachineId, Vec<usize>>,
    machines: BTreeMap<MachineId, MachineInfo>,
    machine_events: Vec<MachineEventRecord>,
    /// machine → `[cpu, mem, disk]` series.
    usage: BTreeMap<MachineId, [TimeSeries; 3]>,
    /// Interval index over every instance's execution window; payload ids
    /// are indices into `instances`.
    instance_index: IntervalIndex,
    /// Interval index over *disjoint per-job* execution windows (each job's
    /// instance windows merged at build time); payload ids are raw job ids.
    /// A stab reports every running job exactly once — no per-query dedup.
    job_intervals: IntervalIndex,
    /// Per-machine interval index over that machine's instance windows.
    machine_intervals: BTreeMap<MachineId, IntervalIndex>,
    /// machine → sorted `(event time, alive afterwards)` checkpoints, for
    /// O(log n) liveness lookups.
    liveness: BTreeMap<MachineId, Vec<(Timestamp, bool)>>,
    /// machine → combined sample-and-hold utilization samples (one sorted
    /// time grid + parallel triples), for single-search `util_at` /
    /// `util_hold` resolution.
    util_index: BTreeMap<MachineId, UtilSamples>,
    /// The union time span, precomputed at build time.
    cached_span: Option<TimeRange>,
}

/// One machine's utilization samples in struct-of-arrays form: the three
/// metric series are built from the same `server_usage` rows, so they share
/// one sample grid — one sorted time array plus parallel triples answers
/// sample-and-hold queries with a single binary search (and one cache-local
/// read) where three per-series searches did before.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct UtilSamples {
    times: Vec<Timestamp>,
    triples: Vec<UtilizationTriple>,
}

impl UtilSamples {
    /// Index of the cell containing `t`: samples `[idx-1]` holds at `t`
    /// (0 = before the first sample).
    fn cell(&self, t: Timestamp) -> usize {
        self.times.partition_point(|&st| st <= t)
    }

    fn at_or_before(&self, t: Timestamp) -> Option<UtilizationTriple> {
        let idx = self.cell(t);
        (idx > 0).then(|| self.triples[idx - 1])
    }
}

/// Static information about one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineInfo {
    /// Normalized CPU capacity (cores).
    pub capacity_cpu: f64,
    /// Normalized memory capacity.
    pub capacity_mem: f64,
    /// Normalized disk capacity.
    pub capacity_disk: f64,
}

impl Default for MachineInfo {
    fn default() -> Self {
        MachineInfo {
            capacity_cpu: 1.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        }
    }
}

/// Accumulates records and validates them into a [`TraceDataset`].
///
/// The builder is deliberately permissive about *order* (records may arrive
/// shuffled, as they do in the real dumps) but strict about *integrity*:
/// duplicate keys, inverted intervals and dangling task references are
/// reported as [`TraceError`]s by [`TraceDatasetBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct TraceDatasetBuilder {
    tasks: Vec<BatchTaskRecord>,
    instances: Vec<BatchInstanceRecord>,
    usage: Vec<ServerUsageRecord>,
    machine_events: Vec<MachineEventRecord>,
    /// Machines declared directly (simulator path) rather than via events.
    declared_machines: BTreeMap<MachineId, MachineInfo>,
    /// When true, instances referencing undeclared tasks are errors.
    strict_hierarchy: bool,
    /// Worker threads for [`TraceDatasetBuilder::build`]; `0` = process
    /// default ([`batchlens_exec::default_threads`]), `1` = serial.
    par_threads: usize,
}

impl TraceDatasetBuilder {
    /// Creates an empty builder with strict hierarchy checking enabled.
    pub fn new() -> Self {
        TraceDatasetBuilder {
            strict_hierarchy: true,
            ..Default::default()
        }
    }

    /// Disables the instance→task referential check (some real dump slices
    /// are task-incomplete).
    pub fn allow_dangling_instances(&mut self) -> &mut Self {
        self.strict_hierarchy = false;
        self
    }

    /// Sets how many worker threads [`TraceDatasetBuilder::build`] shards
    /// record ingestion and index construction across. `0` (the default)
    /// resolves to the process-wide default, `1` forces the serial path.
    ///
    /// The built dataset is **bit-identical at every thread count**: every
    /// shard boundary is a fixed function of the input, per-machine work
    /// never crosses shards, and merges fold in machine/chunk order.
    /// Validation errors are reported identically too (first failing record
    /// in deterministic order), surfaced as [`TraceError`]s — never as
    /// worker panics.
    pub fn par_threads(&mut self, threads: usize) -> &mut Self {
        self.par_threads = threads;
        self
    }

    /// Declares a machine with explicit capacities.
    pub fn declare_machine(&mut self, machine: MachineId, info: MachineInfo) -> &mut Self {
        self.declared_machines.insert(machine, info);
        self
    }

    /// Adds a `batch_task` record.
    pub fn push_task(&mut self, record: BatchTaskRecord) -> &mut Self {
        self.tasks.push(record);
        self
    }

    /// Adds a `batch_instance` record.
    pub fn push_instance(&mut self, record: BatchInstanceRecord) -> &mut Self {
        self.instances.push(record);
        self
    }

    /// Adds a `server_usage` record.
    pub fn push_usage(&mut self, record: ServerUsageRecord) -> &mut Self {
        self.usage.push(record);
        self
    }

    /// Adds a `machine_events` record.
    pub fn push_machine_event(&mut self, record: MachineEventRecord) -> &mut Self {
        self.machine_events.push(record);
        self
    }

    /// Bulk-adds records of all four kinds.
    pub fn extend_tables(
        &mut self,
        tasks: impl IntoIterator<Item = BatchTaskRecord>,
        instances: impl IntoIterator<Item = BatchInstanceRecord>,
        usage: impl IntoIterator<Item = ServerUsageRecord>,
        events: impl IntoIterator<Item = MachineEventRecord>,
    ) -> &mut Self {
        self.tasks.extend(tasks);
        self.instances.extend(instances);
        self.usage.extend(usage);
        self.machine_events.extend(events);
        self
    }

    /// Validates and indexes everything into a [`TraceDataset`].
    ///
    /// # Errors
    ///
    /// * [`TraceError::DuplicateTask`] / [`TraceError::DuplicateInstance`]
    ///   for repeated keys,
    /// * [`TraceError::InvertedInterval`] for records whose end precedes
    ///   their start,
    /// * [`TraceError::UnknownTask`] for dangling instances (strict mode),
    /// * [`TraceError::UnorderedSamples`] for duplicate usage timestamps on
    ///   one machine.
    pub fn build(&self) -> Result<TraceDataset, TraceError> {
        let threads = batchlens_exec::resolve_threads(self.par_threads);
        let mut ds = TraceDataset::default();

        for rec in &self.tasks {
            rec.lifetime()?;
            if ds.tasks.insert((rec.job, rec.task), *rec).is_some() {
                return Err(TraceError::DuplicateTask {
                    job: rec.job,
                    task: rec.task,
                });
            }
        }

        let instances = par_sorted_instances(&self.instances, threads);

        // Validate sharded: each worker checks a chunk of the sorted table
        // (window sanity, adjacent-duplicate, hierarchy reference). The
        // chunk boundaries are a fixed function of the input and errors are
        // reported for the first failing record in sorted order, so the
        // outcome is identical to the serial scan at every thread count.
        let chunks = batchlens_exec::fixed_chunks(instances.len(), VALIDATE_CHUNK);
        batchlens_exec::try_run_indexed(threads, chunks.len(), |c| {
            let (lo, hi) = chunks[c];
            for (idx, rec) in instances[lo..hi].iter().enumerate() {
                rec.window()?;
                let i = lo + idx;
                if i > 0 {
                    let prev = &instances[i - 1];
                    if (prev.job, prev.task, prev.seq) == (rec.job, rec.task, rec.seq) {
                        return Err(TraceError::DuplicateInstance {
                            instance: InstanceId::new(rec.job, rec.task, rec.seq),
                        });
                    }
                }
                if self.strict_hierarchy && !ds.tasks.contains_key(&(rec.job, rec.task)) {
                    return Err(TraceError::UnknownTask {
                        job: rec.job,
                        task: rec.task,
                    });
                }
            }
            Ok(())
        })?;

        // Group instance indices per (job, task) and per machine: chunked
        // grouping maps merged in chunk order keep each key's index list in
        // ascending order, exactly as the serial single pass builds it.
        let grouped = batchlens_exec::run_indexed(threads, chunks.len(), |c| {
            let (lo, hi) = chunks[c];
            let mut by_task: BTreeMap<(JobId, TaskId), Vec<usize>> = BTreeMap::new();
            let mut by_machine: BTreeMap<MachineId, Vec<usize>> = BTreeMap::new();
            for (off, rec) in instances[lo..hi].iter().enumerate() {
                by_task
                    .entry((rec.job, rec.task))
                    .or_default()
                    .push(lo + off);
                by_machine.entry(rec.machine).or_default().push(lo + off);
            }
            (by_task, by_machine)
        });
        for (by_task, by_machine) in grouped {
            for (key, idxs) in by_task {
                ds.task_instances.entry(key).or_default().extend(idxs);
            }
            for (key, idxs) in by_machine {
                ds.machine_instances.entry(key).or_default().extend(idxs);
            }
        }
        ds.instances = instances;

        // Machine table: explicit declarations take precedence, then Add
        // events (which carry capacities), then machines implied by any
        // other lifecycle event, placement or usage row with default
        // capacities. A machine that only ever emitted a Remove/error event
        // is still a machine the trace knows about — its liveness
        // checkpoints must be reachable through the machine table, and the
        // live-window view counts it identically.
        for (m, info) in &self.declared_machines {
            ds.machines.insert(*m, *info);
        }
        for ev in &self.machine_events {
            if ev.event == MachineEvent::Add {
                ds.machines.entry(ev.machine).or_insert(MachineInfo {
                    capacity_cpu: ev.capacity_cpu,
                    capacity_mem: ev.capacity_mem,
                    capacity_disk: ev.capacity_disk,
                });
            }
        }
        for ev in &self.machine_events {
            ds.machines.entry(ev.machine).or_default();
        }
        for rec in &ds.instances {
            ds.machines.entry(rec.machine).or_default();
        }
        for rec in &self.usage {
            ds.machines.entry(rec.machine).or_default();
        }

        let mut events = self.machine_events.clone();
        events.sort_by_key(|e| (e.time, e.machine));
        ds.machine_events = events;

        // Usage: group by machine (sharded over input chunks, merged in
        // chunk order so each machine keeps its input order), then one
        // worker task per machine sorts and builds its three series. A
        // machine's samples never cross workers, so no float is ever
        // accumulated in a different order than the serial path.
        let usage_chunks = batchlens_exec::fixed_chunks(self.usage.len(), VALIDATE_CHUNK);
        let usage_groups = batchlens_exec::run_indexed(threads, usage_chunks.len(), |c| {
            let (lo, hi) = usage_chunks[c];
            let mut by_machine: BTreeMap<MachineId, Vec<(Timestamp, UtilizationTriple)>> =
                BTreeMap::new();
            for rec in &self.usage[lo..hi] {
                by_machine
                    .entry(rec.machine)
                    .or_default()
                    .push((rec.time, rec.util));
            }
            by_machine
        });
        let mut by_machine: BTreeMap<MachineId, Vec<(Timestamp, UtilizationTriple)>> =
            BTreeMap::new();
        for group in usage_groups {
            for (machine, samples) in group {
                by_machine.entry(machine).or_default().extend(samples);
            }
        }
        let machine_samples: Vec<(MachineId, Vec<(Timestamp, UtilizationTriple)>)> =
            by_machine.into_iter().collect();
        let built = batchlens_exec::try_run_indexed(threads, machine_samples.len(), |i| {
            let (machine, samples) = &machine_samples[i];
            // `from_samples` stable-sorts its pairs itself, so the borrowed
            // sample list needs no pre-sort (and no clone): the three metric
            // series and the duplicate-timestamp error come out exactly as
            // the old sort-then-build path produced them.
            let cpu =
                TimeSeries::from_samples(samples.iter().map(|(t, u)| (*t, u.cpu.fraction())))?;
            let mem =
                TimeSeries::from_samples(samples.iter().map(|(t, u)| (*t, u.mem.fraction())))?;
            let disk =
                TimeSeries::from_samples(samples.iter().map(|(t, u)| (*t, u.disk.fraction())))?;
            Ok((*machine, [cpu, mem, disk]))
        })?;
        ds.usage = built.into_iter().collect();

        ds.build_indexes(threads);
        Ok(ds)
    }
}

/// Tables already in the segment store's sort orders — the input of
/// [`TraceDataset::from_sorted_tables`]. The caller (the `store` module)
/// has *verified* each order with a linear scan before handing them over;
/// nothing here re-checks it.
pub(crate) struct SortedTables {
    /// Sorted by `(job, task)`.
    pub tasks: Vec<BatchTaskRecord>,
    /// Sorted by `(job, task, seq)`.
    pub instances: Vec<BatchInstanceRecord>,
    /// Per-machine `[cpu, mem, disk]` series, machine-ascending — built
    /// straight from the store's machine-major usage columns (strictly
    /// time-ascending per machine, verified during the column scan).
    pub usage: Vec<(MachineId, [TimeSeries; 3])>,
    /// Sorted by `(time, machine)`.
    pub events: Vec<MachineEventRecord>,
    /// The persisted machine capacity table.
    pub machines: Vec<(MachineId, MachineInfo)>,
}

impl TraceDataset {
    /// Builds a dataset from tables already in the store's sort orders —
    /// how a segment store opens. It runs the **same validations** as
    /// [`TraceDatasetBuilder::build`] with dangling instances allowed
    /// (task lifetimes, instance windows, adjacent-duplicate keys; usage
    /// sample order was verified by the caller's column scan) but skips
    /// every sort and every row-at-a-time re-bucketing the builder
    /// performs, since sorted input makes each grouping a linear slice
    /// walk. The result is bit-identical to feeding the same rows through
    /// the builder: the workspace `store_differential` suite checks every
    /// reopened dataset against the builder-made original.
    pub(crate) fn from_sorted_tables(
        t: SortedTables,
        threads: usize,
    ) -> Result<TraceDataset, TraceError> {
        let threads = batchlens_exec::resolve_threads(threads);
        let mut ds = TraceDataset::default();

        // Tasks: with sorted input the builder's BTreeMap insert probe
        // degenerates to an adjacent-duplicate check, and the map itself
        // bulk-loads from the ordered pairs.
        for (i, rec) in t.tasks.iter().enumerate() {
            rec.lifetime()?;
            if i > 0 {
                let prev = &t.tasks[i - 1];
                if (prev.job, prev.task) == (rec.job, rec.task) {
                    return Err(TraceError::DuplicateTask {
                        job: rec.job,
                        task: rec.task,
                    });
                }
            }
        }
        ds.tasks = t.tasks.iter().map(|r| ((r.job, r.task), *r)).collect();

        // Instances: the builder's validation pass minus the sort it no
        // longer needs (duplicates are adjacent in `(job, task, seq)`
        // order) and minus the hierarchy check (the store path always
        // allows dangling instances — the original build already ran it).
        for (i, rec) in t.instances.iter().enumerate() {
            rec.window()?;
            if i > 0 {
                let prev = &t.instances[i - 1];
                if (prev.job, prev.task, prev.seq) == (rec.job, rec.task, rec.seq) {
                    return Err(TraceError::DuplicateInstance {
                        instance: InstanceId::new(rec.job, rec.task, rec.seq),
                    });
                }
            }
        }
        // Grouping: per-(job, task) index runs are contiguous, and the
        // per-machine lists collect ascending indices — exactly what the
        // builder's chunk-merged maps hold.
        let mut start = 0;
        while start < t.instances.len() {
            let key = (t.instances[start].job, t.instances[start].task);
            let mut end = start + 1;
            while end < t.instances.len() && (t.instances[end].job, t.instances[end].task) == key {
                end += 1;
            }
            ds.task_instances.insert(key, (start..end).collect());
            start = end;
        }
        for (idx, rec) in t.instances.iter().enumerate() {
            ds.machine_instances
                .entry(rec.machine)
                .or_default()
                .push(idx);
        }
        ds.instances = t.instances;

        // Machine table: the builder's precedence ladder — declarations,
        // then Add events (which carry capacities), then any other
        // reference with default capacities. Machine-major usage means
        // only run boundaries ever touch the map, not every sample row.
        for (m, info) in &t.machines {
            ds.machines.insert(*m, *info);
        }
        for ev in &t.events {
            if ev.event == MachineEvent::Add {
                ds.machines.entry(ev.machine).or_insert(MachineInfo {
                    capacity_cpu: ev.capacity_cpu,
                    capacity_mem: ev.capacity_mem,
                    capacity_disk: ev.capacity_disk,
                });
            }
        }
        for ev in &t.events {
            ds.machines.entry(ev.machine).or_default();
        }
        for rec in &ds.instances {
            ds.machines.entry(rec.machine).or_default();
        }
        for (m, _) in &t.usage {
            ds.machines.entry(*m).or_default();
        }

        // Events arrive `(time, machine)`-sorted — the builder's sort is
        // a verified no-op here.
        ds.machine_events = t.events;

        // Usage arrives as finished per-machine series (built straight
        // from the store's machine-major columns), machine-ascending.
        ds.usage = t.usage.into_iter().collect();

        ds.build_indexes(threads);
        Ok(ds)
    }
}

/// Records per validation/grouping shard. Fixed (independent of the thread
/// count) so shard boundaries — and therefore error reporting and merge
/// order — are a pure function of the input.
const VALIDATE_CHUNK: usize = 8192;

/// Sorts the instance table by `(job, task, seq)` with a parallel
/// chunk-sort + k-way stable merge: each fixed-size chunk sorts on its own
/// worker, and the merge breaks ties by chunk index, which reproduces the
/// serial stable sort bit for bit.
fn par_sorted_instances(input: &[BatchInstanceRecord], threads: usize) -> Vec<BatchInstanceRecord> {
    let chunks = batchlens_exec::fixed_chunks(input.len(), VALIDATE_CHUNK);
    if chunks.len() <= 1 {
        let mut out = input.to_vec();
        out.sort_by_key(|r| (r.job, r.task, r.seq));
        return out;
    }
    let sorted: Vec<Vec<BatchInstanceRecord>> =
        batchlens_exec::run_indexed(threads, chunks.len(), |c| {
            let (lo, hi) = chunks[c];
            let mut part = input[lo..hi].to_vec();
            part.sort_by_key(|r| (r.job, r.task, r.seq));
            part
        });
    // K-way merge via a min-heap keyed by (sort key, chunk index): the
    // chunk-index tie-break keeps equal keys in input-chunk order (= input
    // order), matching the stability of the serial sort.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    type SortKey = (JobId, TaskId, u32);
    let mut heap: BinaryHeap<Reverse<(SortKey, usize)>> = sorted
        .iter()
        .enumerate()
        .filter(|(_, part)| !part.is_empty())
        .map(|(c, part)| Reverse(((part[0].job, part[0].task, part[0].seq), c)))
        .collect();
    let mut cursor = vec![0usize; sorted.len()];
    let mut out = Vec::with_capacity(input.len());
    while let Some(Reverse((_, c))) = heap.pop() {
        let rec = sorted[c][cursor[c]];
        out.push(rec);
        cursor[c] += 1;
        if cursor[c] < sorted[c].len() {
            let n = &sorted[c][cursor[c]];
            heap.push(Reverse(((n.job, n.task, n.seq), c)));
        }
    }
    out
}

/// One independent index-construction task of
/// [`TraceDataset::build_indexes`], fanned out across the build pool.
enum IndexPart {
    Instances(IntervalIndex),
    Jobs(IntervalIndex),
    Liveness(BTreeMap<MachineId, Vec<(Timestamp, bool)>>),
    Util(BTreeMap<MachineId, UtilSamples>),
    Span(Option<TimeRange>),
}

impl TraceDataset {
    /// Builds the query indexes (interval stabbing, liveness, span) from the
    /// validated tables. Called as the last step of
    /// [`TraceDatasetBuilder::build`].
    ///
    /// The four global index families are independent tasks, and the
    /// per-machine interval indexes additionally fan out one task per
    /// machine; every task reads the immutable tables and writes only its
    /// own result, so the indexes are identical at any thread count.
    fn build_indexes(&mut self, threads: usize) {
        let parts = batchlens_exec::run_indexed(threads, 5, |part| match part {
            0 => IndexPart::Instances(IntervalIndex::build(
                self.instances
                    .iter()
                    .enumerate()
                    .map(|(idx, rec)| (rec.start_time, rec.end_time, idx as u32)),
            )),
            1 => IndexPart::Jobs(self.build_job_intervals()),
            2 => {
                // Liveness checkpoints: events are already time-sorted; the
                // alive rule is `MachineEvent::keeps_alive`. Several events
                // at one instant merge **dead-wins** (alive iff every one
                // keeps the machine alive) — an arrival-order-independent
                // tie-break the online rolling checkpoints apply
                // identically.
                let mut liveness: BTreeMap<MachineId, Vec<(Timestamp, bool)>> = BTreeMap::new();
                for ev in &self.machine_events {
                    let alive = ev.event.keeps_alive();
                    let checkpoints = liveness.entry(ev.machine).or_default();
                    match checkpoints.last_mut() {
                        Some((t, a)) if *t == ev.time => *a = *a && alive,
                        _ => checkpoints.push((ev.time, alive)),
                    }
                }
                IndexPart::Liveness(liveness)
            }
            3 => {
                // Combined utilization samples: the three per-metric series
                // of one machine share a grid (built from the same usage
                // rows), so zipping them once here gives every
                // sample-and-hold consumer a single-search answer.
                IndexPart::Util(
                    self.usage
                        .iter()
                        .map(|(&machine, series)| {
                            let [cpu, mem, disk] = series;
                            let triples = cpu
                                .values()
                                .iter()
                                .zip(mem.values())
                                .zip(disk.values())
                                .map(|((&c, &m), &d)| UtilizationTriple::clamped(c, m, d))
                                .collect();
                            (
                                machine,
                                UtilSamples {
                                    times: cpu.times().to_vec(),
                                    triples,
                                },
                            )
                        })
                        .collect(),
                )
            }
            _ => {
                // Union span of instance windows and usage series.
                let mut span: Option<TimeRange> = None;
                let mut merge = |r: TimeRange| {
                    span = Some(match span {
                        Some(s) => s.union(&r),
                        None => r,
                    });
                };
                for rec in &self.instances {
                    if let Ok(w) = rec.window() {
                        merge(w);
                    }
                }
                for series in self.usage.values() {
                    if let Some(s) = series[0].span() {
                        merge(s);
                    }
                }
                IndexPart::Span(span)
            }
        });
        for part in parts {
            match part {
                IndexPart::Instances(ix) => self.instance_index = ix,
                IndexPart::Jobs(ix) => self.job_intervals = ix,
                IndexPart::Liveness(l) => self.liveness = l,
                IndexPart::Util(u) => self.util_index = u,
                IndexPart::Span(s) => self.cached_span = s,
            }
        }

        // Per-machine interval trees: one task per machine.
        let machine_rows: Vec<(&MachineId, &Vec<usize>)> = self.machine_instances.iter().collect();
        self.machine_intervals = batchlens_exec::run_indexed(threads, machine_rows.len(), |i| {
            let (&machine, idxs) = machine_rows[i];
            let index = IntervalIndex::build(idxs.iter().map(|&idx| {
                let rec = &self.instances[idx];
                (rec.start_time, rec.end_time, idx as u32)
            }));
            (machine, index)
        })
        .into_iter()
        .collect();
    }

    /// Merges each job's instance windows into disjoint intervals so a stab
    /// yields each running job once.
    fn build_job_intervals(&self) -> IntervalIndex {
        let mut per_job: BTreeMap<JobId, Vec<(Timestamp, Timestamp)>> = BTreeMap::new();
        for rec in &self.instances {
            if rec.start_time < rec.end_time {
                per_job
                    .entry(rec.job)
                    .or_default()
                    .push((rec.start_time, rec.end_time));
            }
        }
        let mut job_rows: Vec<(Timestamp, Timestamp, u32)> = Vec::new();
        for (job, mut windows) in per_job {
            windows.sort_unstable();
            let mut current: Option<(Timestamp, Timestamp)> = None;
            for (s, e) in windows {
                match &mut current {
                    Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
                    _ => {
                        if let Some((cs, ce)) = current.take() {
                            job_rows.push((cs, ce, u32::from(job)));
                        }
                        current = Some((s, e));
                    }
                }
            }
            if let Some((cs, ce)) = current {
                job_rows.push((cs, ce, u32::from(job)));
            }
        }
        IntervalIndex::build(job_rows)
    }
}

impl TraceDataset {
    /// Starts a builder (alias of [`TraceDatasetBuilder::new`]).
    pub fn builder() -> TraceDatasetBuilder {
        TraceDatasetBuilder::new()
    }

    /// Iterates over all jobs in id order.
    pub fn jobs(&self) -> impl Iterator<Item = JobView<'_>> + '_ {
        let mut ids: Vec<JobId> = self.tasks.keys().map(|(j, _)| *j).collect();
        ids.dedup();
        ids.into_iter().map(move |id| JobView { ds: self, id })
    }

    /// Looks up one job.
    pub fn job(&self, id: JobId) -> Option<JobView<'_>> {
        let has = self
            .tasks
            .range((id, TaskId::new(0))..=(id, TaskId::new(u32::MAX)))
            .next()
            .is_some();
        has.then_some(JobView { ds: self, id })
    }

    /// Number of distinct jobs.
    pub fn job_count(&self) -> usize {
        let mut last = None;
        let mut n = 0;
        for (j, _) in self.tasks.keys() {
            if last != Some(*j) {
                n += 1;
                last = Some(*j);
            }
        }
        n
    }

    /// Number of task records.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of instance records.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// All task records, in `(job, task)` order.
    pub fn task_records(&self) -> impl Iterator<Item = &BatchTaskRecord> + '_ {
        self.tasks.values()
    }

    /// All instance records, in `(job, task, seq)` order.
    pub fn instance_records(&self) -> &[BatchInstanceRecord] {
        &self.instances
    }

    /// All machine lifecycle events, in time order.
    pub fn machine_events(&self) -> &[MachineEventRecord] {
        &self.machine_events
    }

    /// Iterates over all machines in id order.
    pub fn machines(&self) -> impl Iterator<Item = MachineView<'_>> + '_ {
        self.machines
            .keys()
            .map(move |&id| MachineView { ds: self, id })
    }

    /// Looks up one machine.
    pub fn machine(&self, id: MachineId) -> Option<MachineView<'_>> {
        self.machines
            .contains_key(&id)
            .then_some(MachineView { ds: self, id })
    }

    /// Number of machines (declared, added or referenced).
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Jobs with at least one instance running at `t`, in id order.
    ///
    /// Served by the per-job interval index (disjoint merged windows):
    /// O(log n + j log j) in the number of running jobs `j`, with no
    /// instance-level dedup at query time.
    pub fn jobs_running_at(&self, t: Timestamp) -> Vec<JobView<'_>> {
        let mut ids: Vec<JobId> = Vec::new();
        self.job_intervals
            .stab_with(t, |raw| ids.push(JobId::new(raw)));
        ids.sort_unstable();
        ids.into_iter().map(|id| JobView { ds: self, id }).collect()
    }

    /// Every instance running at `t`, in `(job, task, seq)` order —
    /// O(log n + k) via the interval index. This is the primitive behind the
    /// hierarchy snapshot and co-allocation views.
    pub fn instances_running_at(&self, t: Timestamp) -> Vec<InstanceRef<'_>> {
        let mut idxs = self.instance_index.stab(t);
        idxs.sort_unstable();
        idxs.into_iter()
            .map(|idx| self.instance_by_idx(idx as usize))
            .collect()
    }

    /// How many instances are running at `t` — O(log n), independent of the
    /// answer.
    pub fn running_instance_count_at(&self, t: Timestamp) -> usize {
        self.instance_index.count_at(t)
    }

    /// The interval index over all instance execution windows (payload ids
    /// are indices into [`TraceDataset::instance_records`]). Exposed for
    /// event sweeps that want the sorted start/end arrays directly.
    pub fn instance_index(&self) -> &IntervalIndex {
        &self.instance_index
    }

    /// The union time span of all instances and usage samples, or `None` for
    /// an empty dataset. Precomputed at build time.
    pub fn span(&self) -> Option<TimeRange> {
        self.cached_span
    }

    fn instance_by_idx(&self, idx: usize) -> InstanceRef<'_> {
        InstanceRef {
            record: &self.instances[idx],
        }
    }

    /// The sample-and-hold utilization hold at `t` — the hot-path kernel
    /// behind `DatasetQuery::util_hold`: one map lookup, one binary search
    /// over the combined per-machine sample grid, value and validity window
    /// read from the same cache lines.
    pub(crate) fn util_hold_at(&self, machine: MachineId, t: Timestamp) -> crate::UtilHold {
        let Some(samples) = self.util_index.get(&machine) else {
            // Unknown or usage-silent machines answer `None` forever.
            return crate::UtilHold {
                util: None,
                since: None,
                until: None,
            };
        };
        let idx = samples.cell(t);
        crate::UtilHold {
            util: (idx > 0).then(|| samples.triples[idx - 1]),
            since: (idx > 0).then(|| samples.times[idx - 1]),
            until: (idx < samples.times.len()).then(|| samples.times[idx]),
        }
    }
}

/// Borrowed view of one job and its subtree.
#[derive(Debug, Clone, Copy)]
pub struct JobView<'a> {
    ds: &'a TraceDataset,
    id: JobId,
}

impl<'a> JobView<'a> {
    /// The job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Iterates over the job's tasks in task-id order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskView<'a>> + 'a {
        let ds = self.ds;
        let id = self.id;
        ds.tasks
            .range((id, TaskId::new(0))..=(id, TaskId::new(u32::MAX)))
            .map(move |(&(_, task), _)| TaskView {
                ds,
                job: id,
                id: task,
            })
    }

    /// Number of tasks in this job.
    pub fn task_count(&self) -> usize {
        self.tasks().count()
    }

    /// Total instances across all tasks.
    pub fn instance_count(&self) -> usize {
        self.tasks().map(|t| t.instance_count()).sum()
    }

    /// The distinct machines executing any instance of this job.
    pub fn machines(&self) -> Vec<MachineId> {
        let mut out: BTreeSet<MachineId> = BTreeSet::new();
        for task in self.tasks() {
            for inst in task.instances() {
                out.insert(inst.record.machine);
            }
        }
        out.into_iter().collect()
    }

    /// The job's lifetime: union of its tasks' lifetimes.
    pub fn lifetime(&self) -> Option<TimeRange> {
        let mut out: Option<TimeRange> = None;
        for task in self.tasks() {
            if let Ok(l) = task.record().lifetime() {
                out = Some(match out {
                    Some(o) => o.union(&l),
                    None => l,
                });
            }
        }
        out
    }

    /// True when any instance of the job runs at `t`.
    pub fn running_at(&self, t: Timestamp) -> bool {
        self.tasks()
            .any(|task| task.instances().any(|i| i.record.running_at(t)))
    }
}

/// Borrowed view of one task and its instances.
#[derive(Debug, Clone, Copy)]
pub struct TaskView<'a> {
    ds: &'a TraceDataset,
    job: JobId,
    id: TaskId,
}

impl<'a> TaskView<'a> {
    /// The owning job id.
    pub fn job(&self) -> JobId {
        self.job
    }

    /// The task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The underlying `batch_task` record.
    pub fn record(&self) -> &'a BatchTaskRecord {
        &self.ds.tasks[&(self.job, self.id)]
    }

    /// Iterates over the task's instances in sequence order.
    pub fn instances(&self) -> impl Iterator<Item = InstanceRef<'a>> + 'a {
        let ds = self.ds;
        ds.task_instances
            .get(&(self.job, self.id))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&idx| ds.instance_by_idx(idx))
    }

    /// Number of instance records attached to this task.
    pub fn instance_count(&self) -> usize {
        self.ds
            .task_instances
            .get(&(self.job, self.id))
            .map_or(0, Vec::len)
    }

    /// The distinct machines executing this task.
    pub fn machines(&self) -> Vec<MachineId> {
        let mut out: BTreeSet<MachineId> = BTreeSet::new();
        for inst in self.instances() {
            out.insert(inst.record.machine);
        }
        out.into_iter().collect()
    }

    /// The latest `end_time` among this task's instances (the task's
    /// observed completion), or `None` without instances.
    pub fn observed_end(&self) -> Option<Timestamp> {
        self.instances().map(|i| i.record.end_time).max()
    }

    /// The earliest `start_time` among this task's instances.
    pub fn observed_start(&self) -> Option<Timestamp> {
        self.instances().map(|i| i.record.start_time).min()
    }
}

/// Borrowed view of one instance record.
#[derive(Debug, Clone, Copy)]
pub struct InstanceRef<'a> {
    /// The underlying `batch_instance` record.
    pub record: &'a BatchInstanceRecord,
}

impl InstanceRef<'_> {
    /// The instance's identity.
    pub fn id(&self) -> InstanceId {
        InstanceId::new(self.record.job, self.record.task, self.record.seq)
    }
}

/// Borrowed view of one machine: capacities, placements and usage series.
#[derive(Debug, Clone, Copy)]
pub struct MachineView<'a> {
    ds: &'a TraceDataset,
    id: MachineId,
}

impl<'a> MachineView<'a> {
    /// The machine id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Capacity information.
    pub fn info(&self) -> MachineInfo {
        self.ds.machines[&self.id]
    }

    /// Instances placed on this machine, in `(job, task, seq)` order.
    pub fn instances(&self) -> impl Iterator<Item = InstanceRef<'a>> + 'a {
        let ds = self.ds;
        ds.machine_instances
            .get(&self.id)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&idx| ds.instance_by_idx(idx))
    }

    /// Distinct jobs with an instance on this machine running at `t` —
    /// O(log n + k) via the per-machine interval index.
    pub fn jobs_at(&self, t: Timestamp) -> Vec<JobId> {
        let mut out: BTreeSet<JobId> = BTreeSet::new();
        if let Some(index) = self.ds.machine_intervals.get(&self.id) {
            index.stab_with(t, |idx| {
                out.insert(self.ds.instances[idx as usize].job);
            });
        }
        out.into_iter().collect()
    }

    /// How many of this machine's instances are running at `t` — O(log n).
    pub fn running_instances_at(&self, t: Timestamp) -> usize {
        self.ds
            .machine_intervals
            .get(&self.id)
            .map_or(0, |index| index.count_at(t))
    }

    /// The machine's usage series for `metric`, or `None` when the trace has
    /// no usage rows for it.
    pub fn usage(&self, metric: Metric) -> Option<&'a TimeSeries> {
        self.ds.usage.get(&self.id).map(|s| &s[metric.index()])
    }

    /// The machine's utilization triple at `t` (sample-and-hold), or `None`
    /// before its first sample. One lookup + one binary search over the
    /// combined utilization samples (the three metrics share a grid).
    pub fn util_at(&self, t: Timestamp) -> Option<UtilizationTriple> {
        self.ds.util_index.get(&self.id)?.at_or_before(t)
    }

    /// Whether the machine is alive at `t` according to machine events.
    /// Machines with no events are considered always alive; events sharing
    /// one timestamp merge dead-wins.
    ///
    /// A binary search over the machine's liveness checkpoints
    /// ([`crate::alive_at_checkpoints`]) — O(log e) in the machine's own
    /// event count, not a scan of the global event table.
    pub fn alive_at(&self, t: Timestamp) -> bool {
        self.ds
            .liveness
            .get(&self.id)
            .is_none_or(|checkpoints| crate::alive_at_checkpoints(checkpoints, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskStatus;

    fn task(job: u32, task_id: u32, n: u32, t0: i64, t1: i64) -> BatchTaskRecord {
        BatchTaskRecord {
            create_time: Timestamp::new(t0),
            modify_time: Timestamp::new(t1),
            job: JobId::new(job),
            task: TaskId::new(task_id),
            instance_count: n,
            status: TaskStatus::Terminated,
            plan_cpu: 1.0,
            plan_mem: 0.5,
        }
    }

    fn instance(
        job: u32,
        task_id: u32,
        seq: u32,
        machine: u32,
        t0: i64,
        t1: i64,
    ) -> BatchInstanceRecord {
        BatchInstanceRecord {
            start_time: Timestamp::new(t0),
            end_time: Timestamp::new(t1),
            job: JobId::new(job),
            task: TaskId::new(task_id),
            seq,
            total: 1,
            machine: MachineId::new(machine),
            status: TaskStatus::Terminated,
            cpu_avg: 0.5,
            cpu_max: 0.8,
            mem_avg: 0.3,
            mem_max: 0.4,
        }
    }

    fn usage(machine: u32, t: i64, cpu: f64) -> ServerUsageRecord {
        ServerUsageRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(machine),
            util: UtilizationTriple::clamped(cpu, cpu / 2.0, cpu / 4.0),
        }
    }

    fn small_dataset() -> TraceDataset {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(task(1, 1, 2, 0, 600));
        b.push_task(task(1, 2, 1, 0, 900));
        b.push_task(task(2, 1, 1, 300, 1200));
        b.push_instance(instance(1, 1, 0, 10, 0, 600));
        b.push_instance(instance(1, 1, 1, 11, 0, 550));
        b.push_instance(instance(1, 2, 0, 10, 0, 900));
        b.push_instance(instance(2, 1, 0, 12, 300, 1200));
        for t in (0..1200).step_by(300) {
            for m in [10u32, 11, 12] {
                b.push_usage(usage(m, t, 0.4));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn hierarchy_counts() {
        let ds = small_dataset();
        assert_eq!(ds.job_count(), 2);
        assert_eq!(ds.task_count(), 3);
        assert_eq!(ds.instance_count(), 4);
        assert_eq!(ds.machine_count(), 3);
        let job1 = ds.job(JobId::new(1)).unwrap();
        assert_eq!(job1.task_count(), 2);
        assert_eq!(job1.instance_count(), 3);
        assert_eq!(
            job1.machines(),
            vec![MachineId::new(10), MachineId::new(11)]
        );
    }

    #[test]
    fn job_lookup_missing() {
        let ds = small_dataset();
        assert!(ds.job(JobId::new(99)).is_none());
    }

    #[test]
    fn jobs_running_at_timestamp() {
        let ds = small_dataset();
        let at0: Vec<JobId> = ds
            .jobs_running_at(Timestamp::new(0))
            .iter()
            .map(|j| j.id())
            .collect();
        assert_eq!(at0, vec![JobId::new(1)]);
        let at500: Vec<JobId> = ds
            .jobs_running_at(Timestamp::new(500))
            .iter()
            .map(|j| j.id())
            .collect();
        assert_eq!(at500, vec![JobId::new(1), JobId::new(2)]);
        let at1000: Vec<JobId> = ds
            .jobs_running_at(Timestamp::new(1000))
            .iter()
            .map(|j| j.id())
            .collect();
        assert_eq!(at1000, vec![JobId::new(2)]);
    }

    #[test]
    fn task_observed_window() {
        let ds = small_dataset();
        let job1 = ds.job(JobId::new(1)).unwrap();
        let t1 = job1.tasks().next().unwrap();
        assert_eq!(t1.observed_start(), Some(Timestamp::new(0)));
        assert_eq!(t1.observed_end(), Some(Timestamp::new(600)));
    }

    #[test]
    fn machine_placements_and_coallocation() {
        let ds = small_dataset();
        let m10 = ds.machine(MachineId::new(10)).unwrap();
        assert_eq!(m10.instances().count(), 2);
        // machine 10 runs job 1 twice (tasks 1 and 2) — one distinct job at t=100.
        assert_eq!(m10.jobs_at(Timestamp::new(100)), vec![JobId::new(1)]);
    }

    #[test]
    fn usage_series_and_sample_hold() {
        let ds = small_dataset();
        let m10 = ds.machine(MachineId::new(10)).unwrap();
        let cpu = m10.usage(Metric::Cpu).unwrap();
        assert_eq!(cpu.len(), 4);
        let u = m10.util_at(Timestamp::new(450)).unwrap();
        assert!((u.cpu.fraction() - 0.4).abs() < 1e-12);
        assert!(m10.util_at(Timestamp::new(-5)).is_none());
    }

    #[test]
    fn duplicate_task_rejected() {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(task(1, 1, 1, 0, 10));
        b.push_task(task(1, 1, 1, 0, 20));
        assert!(matches!(b.build(), Err(TraceError::DuplicateTask { .. })));
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(task(1, 1, 2, 0, 10));
        b.push_instance(instance(1, 1, 0, 5, 0, 10));
        b.push_instance(instance(1, 1, 0, 6, 0, 10));
        assert!(matches!(
            b.build(),
            Err(TraceError::DuplicateInstance { .. })
        ));
    }

    #[test]
    fn dangling_instance_strictness() {
        let mut b = TraceDatasetBuilder::new();
        b.push_instance(instance(9, 1, 0, 5, 0, 10));
        assert!(matches!(b.build(), Err(TraceError::UnknownTask { .. })));
        b.allow_dangling_instances();
        let ds = b.build().unwrap();
        assert_eq!(ds.instance_count(), 1);
    }

    #[test]
    fn inverted_instance_interval_rejected() {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(task(1, 1, 1, 0, 10));
        b.push_instance(instance(1, 1, 0, 5, 10, 0));
        assert!(matches!(
            b.build(),
            Err(TraceError::InvertedInterval { .. })
        ));
    }

    #[test]
    fn machine_events_drive_liveness() {
        let mut b = TraceDatasetBuilder::new();
        b.push_task(task(1, 1, 1, 0, 10));
        b.push_instance(instance(1, 1, 0, 5, 0, 10));
        b.push_machine_event(MachineEventRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(5),
            event: MachineEvent::Add,
            capacity_cpu: 64.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        });
        b.push_machine_event(MachineEventRecord {
            time: Timestamp::new(100),
            machine: MachineId::new(5),
            event: MachineEvent::Remove,
            capacity_cpu: 0.0,
            capacity_mem: 0.0,
            capacity_disk: 0.0,
        });
        let ds = b.build().unwrap();
        let m = ds.machine(MachineId::new(5)).unwrap();
        assert!(m.alive_at(Timestamp::new(50)));
        assert!(!m.alive_at(Timestamp::new(100)));
        assert!((m.info().capacity_cpu - 64.0).abs() < 1e-12);
    }

    #[test]
    fn indexed_queries_match_linear_scans() {
        let ds = small_dataset();
        for t in (-100..1400).step_by(37) {
            let t = Timestamp::new(t);
            // jobs_running_at vs a full-table scan.
            let scanned: BTreeSet<JobId> = ds
                .instance_records()
                .iter()
                .filter(|r| r.running_at(t))
                .map(|r| r.job)
                .collect();
            let indexed: Vec<JobId> = ds.jobs_running_at(t).iter().map(|j| j.id()).collect();
            assert_eq!(
                indexed,
                scanned.iter().copied().collect::<Vec<_>>(),
                "at {t}"
            );
            // Running instances and counts.
            let running = ds.instances_running_at(t);
            assert_eq!(
                running.len(),
                ds.instance_records()
                    .iter()
                    .filter(|r| r.running_at(t))
                    .count()
            );
            assert_eq!(ds.running_instance_count_at(t), running.len());
            assert!(running.iter().all(|i| i.record.running_at(t)));
            // Per-machine queries.
            for m in ds.machines() {
                let scan_jobs: BTreeSet<JobId> = m
                    .instances()
                    .filter(|i| i.record.running_at(t))
                    .map(|i| i.record.job)
                    .collect();
                assert_eq!(m.jobs_at(t), scan_jobs.iter().copied().collect::<Vec<_>>());
                assert_eq!(
                    m.running_instances_at(t),
                    m.instances().filter(|i| i.record.running_at(t)).count()
                );
            }
        }
    }

    #[test]
    fn liveness_handles_multiple_events() {
        let mut b = TraceDatasetBuilder::new();
        let ev = |t: i64, e: MachineEvent| MachineEventRecord {
            time: Timestamp::new(t),
            machine: MachineId::new(5),
            event: e,
            capacity_cpu: 1.0,
            capacity_mem: 1.0,
            capacity_disk: 1.0,
        };
        b.push_machine_event(ev(10, MachineEvent::Add));
        b.push_machine_event(ev(20, MachineEvent::SoftError));
        b.push_machine_event(ev(30, MachineEvent::Remove));
        b.push_machine_event(ev(40, MachineEvent::Add));
        let ds = b.build().unwrap();
        let m = ds.machine(MachineId::new(5)).unwrap();
        assert!(m.alive_at(Timestamp::new(5))); // before first event
        assert!(m.alive_at(Timestamp::new(15)));
        assert!(m.alive_at(Timestamp::new(25))); // soft errors stay alive
        assert!(!m.alive_at(Timestamp::new(30)));
        assert!(!m.alive_at(Timestamp::new(39)));
        assert!(m.alive_at(Timestamp::new(40)));
    }

    #[test]
    fn span_unions_instances_and_usage() {
        let ds = small_dataset();
        let span = ds.span().unwrap();
        assert_eq!(span.start(), Timestamp::new(0));
        assert!(span.end() >= Timestamp::new(1200));
    }

    #[test]
    fn empty_dataset_behaves() {
        let ds = TraceDatasetBuilder::new().build().unwrap();
        assert_eq!(ds.job_count(), 0);
        assert!(ds.span().is_none());
        assert!(ds.jobs_running_at(Timestamp::ZERO).is_empty());
    }

    #[test]
    fn duplicate_usage_timestamp_rejected() {
        let mut b = TraceDatasetBuilder::new();
        b.push_usage(usage(1, 0, 0.5));
        b.push_usage(usage(1, 0, 0.6));
        assert!(matches!(
            b.build(),
            Err(TraceError::UnorderedSamples { .. })
        ));
    }
}
