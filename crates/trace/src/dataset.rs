use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::{
    alive_at_checkpoints, BatchInstanceRecord, BatchTaskRecord, InstanceId, IntervalIndex, JobId,
    MachineEvent, MachineEventRecord, MachineId, Metric, SeriesView, ServerUsageRecord, TaskId,
    TimeRange, Timestamp, TraceError, UtilizationTriple,
};

/// A fully indexed, immutable trace: the substrate every BatchLens view
/// queries.
///
/// Build one with [`TraceDatasetBuilder`] (from simulator output or parsed
/// CSV tables) or open one from a segment store ([`TraceDataset::open`]).
/// The dataset owns:
///
/// * the **batch hierarchy** — jobs → tasks → instances, each instance pinned
///   to one machine,
/// * the **machine table** — one entry per machine, holding its capacities,
///   its placements and their interval index, its liveness checkpoints and
///   its usage: one time grid and a CPU, memory and disk value column on it,
///   read per [`Metric`] as a borrowed [`SeriesView`]
///   ([`MachineView::usage`]),
/// * the lifecycle events, in time order.
///
/// It holds each fact once. A `server_usage` row is one instant and three
/// values, so a machine's three metrics share one grid by construction and
/// one search on it indexes all three. The instance table ascends by
/// `(job, task, seq)`, which both constructors establish, so a task's
/// instances are one run of it, found with two binary searches.
///
/// All accessors are `O(log n)` or better thanks to the indexes built at
/// construction time; a [`MachineView`] borrows its machine's entry, so its
/// accessors search no map.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDataset {
    tasks: BTreeMap<(JobId, TaskId), BatchTaskRecord>,
    /// Every instance, ascending by `(job, task, seq)`.
    instances: Vec<BatchInstanceRecord>,
    /// The machine table, ascending by id.
    machines: BTreeMap<MachineId, Machine>,
    machine_events: Vec<MachineEventRecord>,
    /// Interval index over every instance's execution window; payload ids
    /// are indices into `instances`.
    instance_index: IntervalIndex,
    /// Interval index over *disjoint per-job* execution windows (each job's
    /// instance windows merged at build time); payload ids are raw job ids.
    /// A stab reports every running job exactly once — no per-query dedup.
    job_intervals: IntervalIndex,
    /// The union time span, precomputed at build time.
    cached_span: Option<TimeRange>,
}

/// Everything the dataset knows about one machine: one entry of the
/// machine table.
#[derive(Debug, Clone, Default, PartialEq)]
struct Machine {
    info: MachineInfo,
    /// Indices into the instance table of the instances placed here,
    /// ascending.
    instances: Vec<usize>,
    /// Interval index over those instances' windows; payload ids are
    /// indices into the instance table.
    intervals: IntervalIndex,
    /// Sorted `(event time, alive afterwards)` checkpoints, for O(log e)
    /// liveness lookups.
    liveness: Vec<(Timestamp, bool)>,
    /// The usage grid and columns, or `None` without usage rows.
    usage: Option<MachineUsage>,
}

/// One machine's `server_usage` samples: one strictly ascending time grid
/// and the three metric columns on it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MachineUsage {
    pub(crate) times: Vec<Timestamp>,
    /// `[cpu, mem, disk]` fractions, each parallel to `times`.
    pub(crate) values: [Vec<f64>; 3],
}

impl MachineUsage {
    /// One metric's column on the grid.
    fn view(&self, metric: Metric) -> SeriesView<'_> {
        SeriesView::new(&self.times, &self.values[metric.index()])
    }

    /// Sample `i` as a clamped triple.
    fn triple_at(&self, i: usize) -> UtilizationTriple {
        let [cpu, mem, disk] = &self.values;
        UtilizationTriple::clamped(cpu[i], mem[i], disk[i])
    }

    /// The sample-and-hold triple at `t` (`None` before the first sample):
    /// one guessed search on the grid.
    fn util_at_or_before(&self, t: Timestamp) -> Option<UtilizationTriple> {
        let n = count_at_or_before(&self.times, t);
        (n > 0).then(|| self.triple_at(n - 1))
    }
}

/// How many of the ascending `times` are at or before `t` — exactly
/// `times.partition_point(|&s| s <= t)`, found by a guessed search.
///
/// Machines report on near-regular grids, so the search starts at the
/// index `t` would have on an evenly spaced grid, `(t − first)·(n − 1) /
/// (last − first)`, computed in `i128` so no timestamp can overflow it. It
/// then gallops away from the guess until the answer is bracketed and
/// bisects inside the bracket. On an even grid the guess is the answer and
/// the search reads one or two adjacent entries instead of a bisection's
/// ~log₂ n scattered ones; a guess `d` entries off costs ~2·log₂ d probes,
/// so the worst case is about twice a bisection's.
fn count_at_or_before(times: &[Timestamp], t: Timestamp) -> usize {
    let (Some(&first), Some(&last)) = (times.first(), times.last()) else {
        return 0;
    };
    if t < first {
        return 0;
    }
    if t >= last {
        return times.len();
    }
    // Here first <= t < last, so the answer lies in 1..n and the guess,
    // below n − 1, has a successor.
    let span = i128::from(last.seconds()) - i128::from(first.seconds());
    let offset = i128::from(t.seconds()) - i128::from(first.seconds());
    let guess = (offset * (times.len() as i128 - 1) / span) as usize;
    // Bracket the answer as times[lo] <= t < times[hi].
    let (mut lo, mut hi) = (guess, guess);
    let mut step = 1;
    if times[guess] <= t {
        hi = guess + 1;
        while times[hi] <= t {
            lo = hi;
            hi = (hi + step).min(times.len() - 1);
            step *= 2;
        }
    } else {
        lo = guess - 1;
        while times[lo] > t {
            hi = lo;
            lo = lo.saturating_sub(step);
            step *= 2;
        }
    }
    lo + 1 + times[lo + 1..hi].partition_point(|&s| s <= t)
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

        // Group instance indices per machine: chunked grouping maps merged
        // in chunk order keep each machine's index list in ascending order,
        // exactly as the serial single pass builds it.
        let grouped = batchlens_exec::run_indexed(threads, chunks.len(), |c| {
            let (lo, hi) = chunks[c];
            let mut by_machine: BTreeMap<MachineId, Vec<usize>> = BTreeMap::new();
            for (off, rec) in instances[lo..hi].iter().enumerate() {
                by_machine.entry(rec.machine).or_default().push(lo + off);
            }
            by_machine
        });
        let mut placements: BTreeMap<MachineId, Vec<usize>> = BTreeMap::new();
        for by_machine in grouped {
            for (key, idxs) in by_machine {
                placements.entry(key).or_default().extend(idxs);
            }
        }
        ds.instances = instances;

        // Usage: group by machine (sharded over input chunks, merged in
        // chunk order so each machine keeps its input order), then one
        // worker task per machine sorts its samples once and splits them
        // into the grid and the three metric columns. A machine's samples
        // never cross workers, so the result is identical at every thread
        // count.
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
            // A stable sort, so the first duplicate timestamp in time order
            // is the one reported.
            let mut samples = samples.clone();
            samples.sort_by_key(|&(t, _)| t);
            if let Some(w) = samples.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(TraceError::UnorderedSamples {
                    previous: w[0].0,
                    offending: w[1].0,
                });
            }
            let column =
                |metric: Metric| samples.iter().map(|(_, u)| u[metric].fraction()).collect();
            let usage = MachineUsage {
                times: samples.iter().map(|&(t, _)| t).collect(),
                values: Metric::ALL.map(column),
            };
            Ok((*machine, usage))
        })?;

        // Add events in input order, so the first Add of a machine wins.
        ds.machines = machine_table(
            self.declared_machines.clone(),
            &self.machine_events,
            placements,
            built,
        );
        let mut events = self.machine_events.clone();
        events.sort_by_key(|e| (e.time, e.machine));
        ds.machine_events = events;

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
    /// Per-machine usage, machine-ascending — built straight from the
    /// store's machine-major usage columns (strictly time-ascending per
    /// machine, verified during the column scan).
    pub usage: Vec<(MachineId, MachineUsage)>,
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
        // Grouping: the per-machine lists collect ascending indices —
        // exactly what the builder's chunk-merged maps hold.
        let mut placements: BTreeMap<MachineId, Vec<usize>> = BTreeMap::new();
        for (idx, rec) in t.instances.iter().enumerate() {
            placements.entry(rec.machine).or_default().push(idx);
        }
        ds.instances = t.instances;

        // Usage arrives as finished per-machine grids and columns (built
        // straight from the store's machine-major columns). Add events in
        // `(time, machine)` order, as the store reads them.
        ds.machines = machine_table(t.machines, &t.events, placements, t.usage);
        // Events arrive `(time, machine)`-sorted — the builder's sort is
        // a verified no-op here.
        ds.machine_events = t.events;

        ds.build_indexes(threads);
        Ok(ds)
    }
}

/// The machine table both constructors build, by one precedence rule:
/// declared capacities first, then the capacities of each machine's first
/// Add event in `events` order, then default capacities for every other
/// machine the trace references (any lifecycle event, placement or usage
/// series). A machine that only ever emitted a Remove/error event is still
/// a machine the trace knows about — its liveness checkpoints must be
/// reachable through the machine table, and the live-window view counts it
/// identically. Each machine's placements (ascending instance indices) and
/// usage move into its entry; [`TraceDataset::build_indexes`] fills in the
/// rest.
fn machine_table(
    declared: impl IntoIterator<Item = (MachineId, MachineInfo)>,
    events: &[MachineEventRecord],
    placements: BTreeMap<MachineId, Vec<usize>>,
    usage: Vec<(MachineId, MachineUsage)>,
) -> BTreeMap<MachineId, Machine> {
    let entry = |info| Machine {
        info,
        ..Machine::default()
    };
    let declared = declared.into_iter().map(|(id, info)| (id, entry(info)));
    let mut machines: BTreeMap<MachineId, Machine> = declared.collect();
    for ev in events.iter().filter(|ev| ev.event == MachineEvent::Add) {
        let info = MachineInfo {
            capacity_cpu: ev.capacity_cpu,
            capacity_mem: ev.capacity_mem,
            capacity_disk: ev.capacity_disk,
        };
        machines.entry(ev.machine).or_insert_with(|| entry(info));
    }
    for ev in events {
        machines.entry(ev.machine).or_default();
    }
    for (id, instances) in placements {
        machines.entry(id).or_default().instances = instances;
    }
    for (id, usage) in usage {
        machines.entry(id).or_default().usage = Some(usage);
    }
    machines
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

impl TraceDataset {
    /// Builds the query indexes (interval stabbing, liveness, span) from the
    /// validated tables. Called as the last step of both constructors,
    /// which sort the instance table by `(job, task, seq)` (see
    /// [`TraceDataset`]); debug builds check that order here.
    ///
    /// The two global interval indexes and each machine's interval index
    /// are independent tasks, fanned out across the build pool; every task
    /// reads the immutable tables and writes only its own result, so the
    /// indexes are identical at any thread count. The span and the
    /// liveness checkpoints are filled in afterwards, in one pass each.
    fn build_indexes(&mut self, threads: usize) {
        debug_assert!(
            self.instances
                .windows(2)
                .all(|w| (w[0].job, w[0].task, w[0].seq) < (w[1].job, w[1].task, w[1].seq)),
            "instances ascend by (job, task, seq)"
        );
        let machines: Vec<&Machine> = self.machines.values().collect();
        let window = |idx: usize| {
            let rec = &self.instances[idx];
            (rec.start_time, rec.end_time, idx as u32)
        };
        let indexes = batchlens_exec::run_indexed(threads, machines.len() + 2, |part| match part {
            0 => IntervalIndex::build((0..self.instances.len()).map(window)),
            1 => self.build_job_intervals(),
            _ => IntervalIndex::build(machines[part - 2].instances.iter().map(|&i| window(i))),
        });
        let mut indexes = indexes.into_iter();
        self.instance_index = indexes.next().expect("the instance index");
        self.job_intervals = indexes.next().expect("the job index");
        for (machine, index) in self.machines.values_mut().zip(indexes) {
            machine.intervals = index;
        }

        // Union span of instance windows and usage grids.
        let windows = self.instances.iter().filter_map(|rec| rec.window().ok());
        let usage = self.machines.values().filter_map(|m| m.usage.as_ref());
        let grids = usage.filter_map(|usage| usage.view(Metric::Cpu).span());
        self.cached_span = windows.chain(grids).reduce(|a, b| a.union(&b));

        // Liveness checkpoints: events are already time-sorted; the alive
        // rule is `MachineEvent::keeps_alive`. Several events at one
        // instant merge **dead-wins** (alive iff every one keeps the
        // machine alive) — an arrival-order-independent tie-break the
        // online rolling checkpoints apply identically.
        for ev in &self.machine_events {
            let alive = ev.event.keeps_alive();
            let checkpoints = &mut self.machines.entry(ev.machine).or_default().liveness;
            match checkpoints.last_mut() {
                Some((t, a)) if *t == ev.time => *a = *a && alive,
                _ => checkpoints.push((ev.time, alive)),
            }
        }
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
        self.machines.iter().map(move |(&id, machine)| MachineView {
            ds: self,
            id,
            machine,
        })
    }

    /// Looks up one machine.
    pub fn machine(&self, id: MachineId) -> Option<MachineView<'_>> {
        let machine = self.machines.get(&id)?;
        Some(MachineView {
            ds: self,
            id,
            machine,
        })
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

    /// The `server_usage` rows the usage holds, in `(machine, time)` order —
    /// the order the segment store writes. A machine's row `i` is its grid
    /// point `i` and the three values on it, clamped as the builder clamps
    /// a row.
    pub fn usage_records(&self) -> Vec<ServerUsageRecord> {
        self.machines
            .iter()
            .filter_map(|(&machine, m)| Some((machine, m.usage.as_ref()?)))
            .flat_map(|(machine, usage)| {
                usage
                    .times
                    .iter()
                    .enumerate()
                    .map(move |(i, &time)| ServerUsageRecord {
                        time,
                        machine,
                        util: usage.triple_at(i),
                    })
            })
            .collect()
    }

    fn instance_by_idx(&self, idx: usize) -> InstanceRef<'_> {
        InstanceRef {
            record: &self.instances[idx],
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

    /// The task's run of the instance table, which ascends by `(job, task,
    /// seq)`: two binary searches, no per-task list.
    fn instance_run(&self) -> &'a [BatchInstanceRecord] {
        let key = (self.job, self.id);
        let all = self.ds.instances.as_slice();
        let lo = all.partition_point(|r| (r.job, r.task) < key);
        let hi = lo + all[lo..].partition_point(|r| (r.job, r.task) <= key);
        &all[lo..hi]
    }

    /// Iterates over the task's instances in sequence order — its run of
    /// the `(job, task, seq)`-sorted instance table.
    pub fn instances(&self) -> impl Iterator<Item = InstanceRef<'a>> + 'a {
        self.instance_run()
            .iter()
            .map(|record| InstanceRef { record })
    }

    /// Number of instance records attached to this task.
    pub fn instance_count(&self) -> usize {
        self.instance_run().len()
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

/// Borrowed view of one machine: capacities, placements, liveness and
/// usage series. It holds a reference to the machine's entry of the
/// machine table, so no accessor searches a map.
#[derive(Debug, Clone, Copy)]
pub struct MachineView<'a> {
    ds: &'a TraceDataset,
    id: MachineId,
    machine: &'a Machine,
}

impl<'a> MachineView<'a> {
    /// The machine id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Capacity information.
    pub fn info(&self) -> MachineInfo {
        self.machine.info
    }

    /// Instances placed on this machine, in `(job, task, seq)` order.
    pub fn instances(&self) -> impl Iterator<Item = InstanceRef<'a>> + 'a {
        let ds = self.ds;
        self.machine
            .instances
            .iter()
            .map(move |&idx| ds.instance_by_idx(idx))
    }

    /// Distinct jobs with an instance on this machine running at `t` —
    /// O(log n + k) via the per-machine interval index.
    pub fn jobs_at(&self, t: Timestamp) -> Vec<JobId> {
        let mut out: BTreeSet<JobId> = BTreeSet::new();
        self.machine.intervals.stab_with(t, |idx| {
            out.insert(self.ds.instances[idx as usize].job);
        });
        out.into_iter().collect()
    }

    /// How many of this machine's instances are running at `t` — O(log n).
    pub fn running_instances_at(&self, t: Timestamp) -> usize {
        self.machine.intervals.count_at(t)
    }

    /// The machine's usage series for `metric` as a borrowed view of the
    /// dataset's storage, or `None` when the trace has no usage rows for
    /// the machine. The three metrics' views share one time grid (the same
    /// `times()` slice); a reader that keeps an owned series copies the
    /// window it needs ([`SeriesView::to_owned`]).
    pub fn usage(&self, metric: Metric) -> Option<SeriesView<'a>> {
        Some(self.machine.usage.as_ref()?.view(metric))
    }

    /// The machine's utilization triple at `t` (sample-and-hold), or `None`
    /// before its first sample. One guessed search on the machine's grid;
    /// the three values at that index are clamped into a triple.
    pub fn util_at(&self, t: Timestamp) -> Option<UtilizationTriple> {
        self.machine.usage.as_ref()?.util_at_or_before(t)
    }

    /// Whether the machine is alive at `t` according to machine events.
    /// Machines with no events are considered always alive; events sharing
    /// one timestamp merge dead-wins.
    ///
    /// A binary search over the machine's liveness checkpoints
    /// ([`crate::alive_at_checkpoints`]) — O(log e) in the machine's own
    /// event count, not a scan of the global event table.
    pub fn alive_at(&self, t: Timestamp) -> bool {
        alive_at_checkpoints(&self.machine.liveness, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskStatus;
    use proptest::prelude::*;

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

    /// Checks the guessed search against `partition_point` on every sample,
    /// both neighbours of every sample, and the extreme timestamps.
    fn assert_guessed_search_exact(times: &[Timestamp]) -> Result<(), TestCaseError> {
        let probes = times
            .iter()
            .flat_map(|t| {
                let s = t.seconds();
                [s.saturating_sub(1), s, s.saturating_add(1)]
            })
            .chain([i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]);
        for t in probes.map(Timestamp::new) {
            prop_assert_eq!(
                count_at_or_before(times, t),
                times.partition_point(|&s| s <= t),
                "t = {} over {} samples",
                t,
                times.len()
            );
        }
        Ok(())
    }

    fn ascending(start: i64, gaps: &[i64]) -> Vec<Timestamp> {
        std::iter::once(start)
            .chain(gaps.iter().scan(start, |t, &gap| {
                *t = t.checked_add(gap)?;
                Some(*t)
            }))
            .map(Timestamp::new)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Strictly ascending samples whose gaps mix seconds, minutes,
        /// hours and weeks, so the interpolated guess is often far off.
        #[test]
        fn guessed_search_equals_partition_point_on_irregular_gaps(
            start in -1_000_000_000i64..1_000_000_000,
            gaps in prop::collection::vec((1i64..60, 0usize..4), 0..300),
        ) {
            let gaps: Vec<i64> = gaps
                .iter()
                .map(|&(gap, unit)| gap * [1, 60, 3_600, 604_800][unit])
                .collect();
            assert_guessed_search_exact(&ascending(start, &gaps))?;
        }

        /// An even grid with some samples missing.
        #[test]
        fn guessed_search_equals_partition_point_on_grids_with_holes(
            start in -100_000i64..100_000,
            step in 1i64..600,
            n in 1usize..2_000,
            holes in prop::collection::vec(0usize..2_000, 0..40),
        ) {
            let times: Vec<Timestamp> = (0..n)
                .filter(|i| !holes.contains(i))
                .map(|i| Timestamp::new(start + i as i64 * step))
                .collect();
            assert_guessed_search_exact(&times)?;
        }

        /// Samples spread across the whole `i64` range, where a
        /// 64-bit interpolation would overflow.
        #[test]
        fn guessed_search_equals_partition_point_near_the_extremes(
            from_min in 0i64..1_000,
            gaps in prop::collection::vec(1i64..(i64::MAX / 40), 0..80),
        ) {
            assert_guessed_search_exact(&ascending(i64::MIN + from_min, &gaps))?;
            // The mirror image, ending at i64::MAX: `!s` reverses the order.
            let mut mirrored: Vec<Timestamp> = ascending(i64::MIN + from_min, &gaps)
                .into_iter()
                .map(|t| Timestamp::new(!t.seconds()))
                .collect();
            mirrored.reverse();
            assert_guessed_search_exact(&mirrored)?;
        }
    }

    #[test]
    fn guessed_search_edges() {
        let ts = |v: &[i64]| v.iter().copied().map(Timestamp::new).collect::<Vec<_>>();
        for times in [
            ts(&[]),
            ts(&[0]),
            ts(&[i64::MIN]),
            ts(&[i64::MAX]),
            ts(&[i64::MIN, i64::MAX]),
            ts(&[i64::MIN, i64::MIN + 1, 0, i64::MAX - 1, i64::MAX]),
            ts(&[0, 60, 120, 180, 240]),
            ts(&[0, 1, 2, 3, 1_000_000]),
            ts(&[0, 999_997, 999_998, 999_999, 1_000_000]),
            ts(&[5, 5, 5, 7, 7, 9]),
        ] {
            if let Err(e) = assert_guessed_search_exact(&times) {
                panic!("{e}");
            }
        }
        assert_eq!(count_at_or_before(&[], Timestamp::new(i64::MAX)), 0);
    }
}
