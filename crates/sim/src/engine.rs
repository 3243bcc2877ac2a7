use std::collections::BTreeSet;

use batchlens_trace::{
    BatchInstanceRecord, BatchTaskRecord, JobId, MachineEvent, MachineEventRecord, MachineId,
    MachineInfo, ServerUsageRecord, TaskId, TaskStatus, TimeRange, Timestamp, TraceDataset,
    TraceDatasetBuilder, UtilizationTriple,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::anomaly::ClusterEvent;
use crate::config::SchedulerKind;
use crate::rng as dist;
use crate::scheduler::{LeastLoaded, Packing, RoundRobin, Scheduler};
use crate::{Anomaly, JobSpec, SimConfig, SimError, TaskSpec};

/// A configured simulation run: background workload plus scripted jobs and
/// cluster events.
///
/// `Simulation` is a consuming builder ([`Simulation::with_job`] etc. return
/// `self`); [`Simulation::run`] executes it and produces a validated
/// [`TraceDataset`]. [`Simulation::run_with_truth`] additionally returns the
/// injected ground truth so tests and benches can score detectors.
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SimConfig,
    scripted: Vec<JobSpec>,
    cluster_events: Vec<ClusterEvent>,
    /// Additive cluster-wide background load per window, `[cpu, mem, disk]`.
    load_phases: Vec<(TimeRange, [f64; 3])>,
    /// Machines the scheduler must not auto-place on; only jobs explicitly
    /// pinned there use them.
    reserved: Vec<MachineId>,
    /// Scripted hardware failures (emitted as machine events).
    failures: Vec<crate::MachineFailure>,
}

/// What the simulator deliberately planted, for scoring detectors.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// Jobs carrying injected anomalies.
    pub anomalous_jobs: Vec<(JobId, Anomaly)>,
    /// Mass shutdowns `(time, survivors)`.
    pub shutdowns: Vec<(Timestamp, Vec<JobId>)>,
    /// Machines that executed instances of more than one job at some moment
    /// (co-allocation ground truth).
    pub coallocated_machines: Vec<MachineId>,
}

/// One instance after placement — the engine's working record.
#[derive(Debug, Clone)]
struct Placed {
    job: JobId,
    task: TaskId,
    seq: u32,
    total: u32,
    machine: MachineId,
    start: Timestamp,
    end: Timestamp,
    footprint: crate::FootprintProfile,
    status: TaskStatus,
}

impl Simulation {
    /// Creates a simulation from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation {
            cfg,
            scripted: Vec::new(),
            cluster_events: Vec::new(),
            load_phases: Vec::new(),
            reserved: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Read access to the configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Adds one scripted job.
    #[must_use]
    pub fn with_job(mut self, job: JobSpec) -> Self {
        self.scripted.push(job);
        self
    }

    /// Adds several scripted jobs.
    #[must_use]
    pub fn with_jobs(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.scripted.extend(jobs);
        self
    }

    /// Schedules a mass shutdown at `at`, sparing `survivors`.
    #[must_use]
    pub fn with_mass_shutdown(mut self, at: Timestamp, survivors: Vec<JobId>) -> Self {
        self.cluster_events
            .push(ClusterEvent::MassShutdown { at, survivors });
        self
    }

    /// Adds a cluster-wide background load phase (additive per metric).
    #[must_use]
    pub fn with_load_phase(mut self, window: TimeRange, add: [f64; 3]) -> Self {
        self.load_phases.push((window, add));
        self
    }

    /// Reserves machines: the scheduler never auto-places background work on
    /// them, so only explicitly pinned jobs run there. Scenarios use this to
    /// keep `job_8124`'s nodes the least utilized, as in the paper's Fig 3(a).
    #[must_use]
    pub fn with_reserved_machines(mut self, machines: Vec<MachineId>) -> Self {
        self.reserved.extend(machines);
        self
    }

    /// Injects scripted hardware failures; their machine-lifecycle events are
    /// merged into the dataset's `machine_events` table (see
    /// [`crate::failure`]).
    #[must_use]
    pub fn with_failures(mut self, failures: Vec<crate::MachineFailure>) -> Self {
        self.failures.extend(failures);
        self
    }

    /// Runs the simulation, discarding ground truth.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for invalid configuration/specs or if the
    /// produced records fail trace validation.
    pub fn run(&self) -> Result<TraceDataset, SimError> {
        Ok(self.run_with_truth()?.0)
    }

    /// Runs the simulation and returns the dataset together with the
    /// injected `GroundTruth`.
    ///
    /// # Errors
    ///
    /// Same as [`Simulation::run`].
    pub fn run_with_truth(&self) -> Result<(TraceDataset, GroundTruth), SimError> {
        self.cfg.validate()?;
        for spec in &self.scripted {
            spec.validate()?;
        }
        let mut seen = BTreeSet::new();
        for spec in &self.scripted {
            if !seen.insert(spec.job) {
                return Err(SimError::InvalidSpec {
                    message: format!("duplicate scripted job {}", spec.job),
                });
            }
        }

        let mut rng = StdRng::seed_from_u64(self.cfg.seed);

        // 1. Background jobs from the workload model.
        let mut specs = self.scripted.clone();
        specs.extend(self.generate_background(&mut rng, &seen));
        specs.sort_by_key(|s| (s.submit, s.job));

        // 2. Place instances on machines.
        let mut placed = self.place(&specs, &mut rng)?;

        // 3. Apply cluster events (mass shutdowns).
        let mut truth = GroundTruth::default();
        for ev in &self.cluster_events {
            let ClusterEvent::MassShutdown { at, survivors } = ev;
            truth.shutdowns.push((*at, survivors.clone()));
            for p in &mut placed {
                if !survivors.contains(&p.job) && p.start < *at && p.end > *at {
                    p.end = *at;
                    p.status = TaskStatus::Cancelled;
                }
            }
        }
        for spec in &specs {
            if let Some(a) = spec.anomaly {
                truth.anomalous_jobs.push((spec.job, a));
            }
        }

        // 4. Emit batch tables.
        let mut builder = TraceDatasetBuilder::new();
        for m in 0..self.cfg.machines {
            builder.declare_machine(
                MachineId::new(m),
                MachineInfo {
                    capacity_cpu: 1.0,
                    capacity_mem: 1.0,
                    capacity_disk: 1.0,
                },
            );
            builder.push_machine_event(MachineEventRecord {
                time: self.cfg.window.start(),
                machine: MachineId::new(m),
                event: MachineEvent::Add,
                capacity_cpu: 1.0,
                capacity_mem: 1.0,
                capacity_disk: 1.0,
            });
        }
        self.emit_batch_tables(&specs, &placed, &mut builder);

        // 5. Synthesize usage and note co-allocation ground truth.
        self.synthesize_usage(&placed, &mut rng, &mut builder);
        truth.coallocated_machines = coallocated_machines(&placed);

        // Scripted hardware failures → machine lifecycle events.
        for ev in crate::failure::failure_events(&self.failures) {
            if (ev.machine.raw() as usize) < self.cfg.machines as usize {
                builder.push_machine_event(ev);
            }
        }

        // SoftError events for machines hit by a shutdown (flavour for the
        // machine_events table; usage reporting continues, as in the paper).
        for (at, survivors) in &truth.shutdowns {
            let mut hit: BTreeSet<MachineId> = BTreeSet::new();
            for p in &placed {
                if p.status == TaskStatus::Cancelled && p.end == *at && !survivors.contains(&p.job)
                {
                    hit.insert(p.machine);
                }
            }
            for m in hit {
                builder.push_machine_event(MachineEventRecord {
                    time: *at,
                    machine: m,
                    event: MachineEvent::SoftError,
                    capacity_cpu: 0.0,
                    capacity_mem: 0.0,
                    capacity_disk: 0.0,
                });
            }
        }

        Ok((builder.build()?, truth))
    }

    /// Generates background jobs from the workload model.
    fn generate_background(&self, rng: &mut StdRng, taken: &BTreeSet<JobId>) -> Vec<JobSpec> {
        let w = &self.cfg.workload;
        let hours = self.cfg.window.duration().as_secs_f64() / 3600.0;
        let count = w.sample_job_count(rng, hours);
        let mut next_id = 10_000u32;
        let mut out = Vec::with_capacity(count as usize);
        let start_s = self.cfg.window.start().seconds();
        let end_s = self.cfg.window.end().seconds();
        for _ in 0..count {
            while taken.contains(&JobId::new(next_id)) {
                next_id += 1;
            }
            let job = JobId::new(next_id);
            next_id += 1;

            let submit = Timestamp::new(dist::uniform(rng, start_s as f64, end_s as f64) as i64);
            let n_tasks = w.sample_task_count(rng);
            let tasks: Vec<TaskSpec> = (0..n_tasks)
                .map(|_| TaskSpec {
                    instances: w.sample_instance_count(rng),
                    duration: w.sample_duration(rng),
                    footprint: w.sample_footprint(rng),
                    start_jitter: 5,
                    end_jitter: 45,
                })
                .collect();
            let chain = n_tasks > 1 && rng.random::<f64>() < w.chain_probability;
            let spec = if chain {
                JobSpec::chained_tasks(job, submit, tasks)
            } else {
                JobSpec::parallel_tasks(job, submit, tasks)
            };
            out.push(spec);
        }
        out
    }

    /// Places every instance of every spec onto a machine.
    fn place(&self, specs: &[JobSpec], rng: &mut StdRng) -> Result<Vec<Placed>, SimError> {
        let n_machines = self.cfg.machines as usize;
        let bucket = self.cfg.batch_resolution.as_seconds();
        let window_s = self.cfg.window.duration().as_seconds();
        // Extra slack: tasks may end past the window (they get truncated to
        // the load grid, not the records).
        let n_buckets = ((window_s * 2) / bucket).max(1) as usize;
        let mut active: Vec<Vec<u32>> = vec![vec![0u32; n_machines]; n_buckets];
        // Reserved machines carry a sentinel load so every policy avoids them.
        const RESERVED_SENTINEL: u32 = 1 << 30;
        for m in &self.reserved {
            let idx = m.raw() as usize;
            if idx < n_machines {
                for row in &mut active {
                    row[idx] = RESERVED_SENTINEL;
                }
            }
        }

        let mut scheduler: Box<dyn Scheduler> = match self.cfg.scheduler {
            SchedulerKind::LeastLoaded => Box::new(LeastLoaded),
            SchedulerKind::RoundRobin => Box::new(RoundRobin::new()),
            SchedulerKind::Packing => Box::new(Packing::default()),
        };

        let origin = self.cfg.window.start().seconds();
        let bucket_of =
            |t: Timestamp| -> usize { (((t.seconds() - origin).max(0)) / bucket) as usize };

        let mut placed = Vec::new();
        for spec in specs {
            let durations: Vec<i64> = spec.tasks.iter().map(|t| t.duration).collect();
            let windows = spec.dag.schedule(&durations)?;
            let straggler = spec.anomaly.and_then(|a| a.straggler_factor());
            let mut pin_cursor = 0usize;

            for (task_idx, (task, &(start_off, _))) in
                spec.tasks.iter().zip(windows.iter()).enumerate()
            {
                let footprint = match spec.anomaly {
                    Some(a) => a.apply_to_footprint(task.footprint),
                    None => task.footprint,
                };
                let task_start = spec.submit + batchlens_trace::TimeDelta::seconds(start_off);
                for seq in 0..task.instances {
                    let sj = if task.start_jitter > 0 {
                        rng.random_range(0..=task.start_jitter)
                    } else {
                        0
                    };
                    let ej = if task.end_jitter > 0 {
                        rng.random_range(-task.end_jitter..=task.end_jitter)
                    } else {
                        0
                    };
                    let mut duration = task.duration + ej;
                    // One straggler per task: the first instance runs long.
                    if seq == 0 {
                        if let Some(factor) = straggler {
                            duration = (task.duration as f64 * factor) as i64;
                        }
                    }
                    let start = task_start + batchlens_trace::TimeDelta::seconds(sj);
                    let end = start + batchlens_trace::TimeDelta::seconds(duration.max(1));

                    let machine = match &spec.pinned_machines {
                        Some(pins) => {
                            // Wrap pinned ids into the cluster so a scenario's
                            // fixed pin range stays valid at any cluster size.
                            let raw = pins[pin_cursor % pins.len()].raw() as usize;
                            pin_cursor += 1;
                            MachineId::new((raw % n_machines) as u32)
                        }
                        None => {
                            let b = bucket_of(start).min(n_buckets - 1);
                            MachineId::new(scheduler.pick(&active[b]) as u32)
                        }
                    };

                    // Update the load grid across the instance's span.
                    let b0 = bucket_of(start).min(n_buckets - 1);
                    let b1 = bucket_of(end).min(n_buckets - 1);
                    for row in active.iter_mut().take(b1 + 1).skip(b0) {
                        row[machine.raw() as usize] += 1;
                    }

                    placed.push(Placed {
                        job: spec.job,
                        task: TaskId::new(task_idx as u32 + 1),
                        seq,
                        total: task.instances,
                        machine,
                        start,
                        end,
                        footprint,
                        status: if end <= self.cfg.window.end() {
                            TaskStatus::Terminated
                        } else {
                            TaskStatus::Running
                        },
                    });
                }
            }
        }
        Ok(placed)
    }

    /// Emits `batch_task` + `batch_instance` records from placements.
    fn emit_batch_tables(
        &self,
        specs: &[JobSpec],
        placed: &[Placed],
        builder: &mut TraceDatasetBuilder,
    ) {
        for spec in specs {
            for (task_idx, task) in spec.tasks.iter().enumerate() {
                let task_id = TaskId::new(task_idx as u32 + 1);
                let win_end = self.cfg.window.end();
                // Instances that never start within the observation window are
                // not in the trace (the window simply ends before them).
                let mine: Vec<&Placed> = placed
                    .iter()
                    .filter(|p| p.job == spec.job && p.task == task_id && p.start < win_end)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                // The observation window cuts off at its end: instances still
                // running at `window.end()` are recorded with a truncated end
                // and `Running` status, exactly as the real 24-hour v2017
                // trace reports boundary jobs. (The footprint shape still uses
                // the untruncated lifetime via `Placed::end`.)
                let rec_end = |p: &Placed| p.end.min(win_end);
                let rec_status = |p: &Placed| {
                    if p.status == TaskStatus::Cancelled {
                        TaskStatus::Cancelled
                    } else if p.end > win_end {
                        TaskStatus::Running
                    } else {
                        p.status
                    }
                };
                let create = mine.iter().map(|p| p.start).min().expect("non-empty");
                let modify = mine.iter().map(|p| rec_end(p)).max().expect("non-empty");
                let status = if mine.iter().any(|p| p.status == TaskStatus::Cancelled) {
                    TaskStatus::Cancelled
                } else if mine.iter().any(|p| p.end > win_end) {
                    TaskStatus::Running
                } else {
                    TaskStatus::Terminated
                };
                let fp = mine[0].footprint;
                builder.push_task(BatchTaskRecord {
                    create_time: create,
                    modify_time: modify,
                    job: spec.job,
                    task: task_id,
                    instance_count: task.instances,
                    status,
                    plan_cpu: fp.cpu.max(),
                    plan_mem: fp.mem.max(),
                });
                for p in &mine {
                    builder.push_instance(BatchInstanceRecord {
                        start_time: p.start,
                        end_time: rec_end(p),
                        job: p.job,
                        task: p.task,
                        seq: p.seq,
                        total: p.total,
                        machine: p.machine,
                        status: rec_status(p),
                        cpu_avg: p.footprint.cpu.mean(),
                        cpu_max: p.footprint.cpu.max(),
                        mem_avg: p.footprint.mem.mean(),
                        mem_max: p.footprint.mem.max(),
                    });
                }
            }
        }
    }

    /// Synthesizes per-machine usage series: baseline AR(1) walk + load
    /// phases + instance footprints + Gaussian noise, clamped to `0..=1`.
    #[allow(clippy::needless_range_loop)] // metric index keys several arrays
    fn synthesize_usage(
        &self,
        placed: &[Placed],
        rng: &mut StdRng,
        builder: &mut TraceDatasetBuilder,
    ) {
        let res = self.cfg.usage_resolution.as_seconds();
        let start_s = self.cfg.window.start().seconds();
        let n_points = (self.cfg.window.duration().as_seconds() / res).max(1) as usize;
        let n_machines = self.cfg.machines as usize;

        // Group instances per machine.
        let mut by_machine: Vec<Vec<&Placed>> = vec![Vec::new(); n_machines];
        for p in placed {
            let m = p.machine.raw() as usize;
            if m < n_machines {
                by_machine[m].push(p);
            }
        }

        let mut values = [0.0f64; 3]; // scratch
        for (m, instances) in by_machine.iter().enumerate() {
            // Per-machine reporting offset inside one sampling period, as
            // in the real trace (machines are not globally grid-aligned).
            // 131 is coprime with the common 60/300 s resolutions, so
            // offsets spread over the whole period as `m` grows.
            let off = if self.cfg.stagger_reporting {
                (m as i64 * 131) % res
            } else {
                0
            };
            let grid_start = start_s + off;

            // Per-machine personality: slight offset so machines differ.
            let spread = self.cfg.personality_spread;
            let personality: [f64; 3] = [
                dist::uniform(rng, -spread, spread),
                dist::uniform(rng, -spread, spread),
                dist::uniform(rng, -spread * 0.7, spread * 0.7),
            ];
            let mut walk = [0.0f64; 3];

            // Accumulate footprint contributions over the machine's grid.
            let mut contrib = vec![[0.0f64; 3]; n_points];
            for p in instances {
                let dur = (p.end - p.start).as_secs_f64().max(1.0);
                // How far past the end this footprint still matters.
                let tail_s = if p.footprint.has_tail() {
                    (dur * 1.5) as i64
                } else {
                    0
                };
                let i0 = (((p.start.seconds() - grid_start).max(0)) / res) as usize;
                let last = p.end.seconds() + tail_s;
                let i1 = ((((last - grid_start) / res) + 1).max(0) as usize).min(n_points);
                for (i, c) in contrib.iter_mut().enumerate().take(i1).skip(i0) {
                    let t = grid_start + i as i64 * res;
                    let prog = (t - p.start.seconds()) as f64 / dur;
                    for k in 0..3 {
                        c[k] += p.footprint.by_index(k).eval(prog);
                    }
                }
            }

            for (i, c) in contrib.iter().enumerate() {
                let t = Timestamp::new(grid_start + i as i64 * res);
                // Additive load phases, evaluated at the machine's actual
                // (staggered) sample time.
                let mut phase = [0.0f64; 3];
                for (window, add) in &self.load_phases {
                    if window.contains(t) {
                        for k in 0..3 {
                            phase[k] += add[k];
                        }
                    }
                }
                for k in 0..3 {
                    // AR(1) baseline wander, pulled back toward zero.
                    walk[k] = 0.97 * walk[k] + dist::normal(rng, 0.0, self.cfg.walk_sigma);
                    let noise = dist::normal(rng, 0.0, self.cfg.noise_sigma);
                    values[k] =
                        self.cfg.baseline[k] + personality[k] + phase[k] + walk[k] + c[k] + noise;
                }
                builder.push_usage(ServerUsageRecord {
                    time: t,
                    machine: MachineId::new(m as u32),
                    util: UtilizationTriple::clamped(values[0], values[1], values[2]),
                });
            }
        }
    }
}

/// Machines that host instances of at least two distinct jobs whose windows
/// overlap — the ground truth behind the hover-linking interaction.
fn coallocated_machines(placed: &[Placed]) -> Vec<MachineId> {
    use std::collections::BTreeMap;
    let mut by_machine: BTreeMap<MachineId, Vec<&Placed>> = BTreeMap::new();
    for p in placed {
        by_machine.entry(p.machine).or_default().push(p);
    }
    let mut out = Vec::new();
    'machines: for (m, list) in by_machine {
        for (i, a) in list.iter().enumerate() {
            for b in &list[i + 1..] {
                if a.job != b.job && a.start < b.end && b.start < a.end {
                    out.push(m);
                    continue 'machines;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_trace::stats::DatasetStats;
    use batchlens_trace::Metric;

    #[test]
    fn small_run_produces_consistent_dataset() {
        let ds = Simulation::new(SimConfig::small(1)).run().unwrap();
        assert!(ds.job_count() > 0, "no jobs generated");
        assert_eq!(ds.machine_count(), 20);
        // Every machine has usage over the window.
        for m in ds.machines() {
            let cpu = m.usage(Metric::Cpu).unwrap();
            assert_eq!(cpu.len(), 7200 / 60);
        }
        // Hierarchy integrity comes from the builder's strict mode passing.
        let st = DatasetStats::compute(&ds);
        assert!(st.instances >= st.tasks);
        assert!(st.tasks >= st.jobs);
    }

    #[test]
    fn reporting_grids_are_staggered_per_machine() {
        let ds = Simulation::new(SimConfig::small(1)).run().unwrap();
        let res = SimConfig::small(1).usage_resolution.as_seconds();
        // Machines report at distinct sub-period offsets…
        let offsets: BTreeSet<i64> = ds
            .machines()
            .map(|m| m.usage(Metric::Cpu).unwrap().times()[0].seconds() % res)
            .collect();
        assert!(offsets.len() > 1, "grids still globally aligned");
        // …each on its own regular grid.
        for m in ds.machines() {
            let times = m.usage(Metric::Cpu).unwrap().times().to_vec();
            let off = times[0].seconds() % res;
            assert!(times.iter().all(|t| t.seconds() % res == off));
        }
        // Opting out restores the aligned grid.
        let mut cfg = SimConfig::small(1);
        cfg.stagger_reporting = false;
        let aligned = Simulation::new(cfg).run().unwrap();
        for m in aligned.machines() {
            assert_eq!(m.usage(Metric::Cpu).unwrap().times()[0].seconds() % res, 0);
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = Simulation::new(SimConfig::small(7)).run().unwrap();
        let b = Simulation::new(SimConfig::small(7)).run().unwrap();
        assert_eq!(a.job_count(), b.job_count());
        assert_eq!(a.instance_count(), b.instance_count());
        let ma = a.machine(MachineId::new(3)).unwrap();
        let mb = b.machine(MachineId::new(3)).unwrap();
        assert_eq!(
            ma.usage(Metric::Cpu).unwrap().values(),
            mb.usage(Metric::Cpu).unwrap().values()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::new(SimConfig::small(1)).run().unwrap();
        let b = Simulation::new(SimConfig::small(2)).run().unwrap();
        let ma = a.machine(MachineId::new(0)).unwrap();
        let mb = b.machine(MachineId::new(0)).unwrap();
        assert_ne!(
            ma.usage(Metric::Cpu).unwrap().values(),
            mb.usage(Metric::Cpu).unwrap().values()
        );
    }

    #[test]
    fn scripted_job_appears_with_exact_shape() {
        let spec = JobSpec::parallel_tasks(
            JobId::new(6639),
            Timestamp::new(1000),
            vec![
                TaskSpec::steady(3, 600, 0.2, 0.2, 0.1),
                TaskSpec::steady(2, 1200, 0.2, 0.2, 0.1),
            ],
        );
        let mut cfg = SimConfig::small(3);
        cfg.workload.jobs_per_hour = 0.0; // only the scripted job
        let ds = Simulation::new(cfg).with_job(spec).run().unwrap();
        assert_eq!(ds.job_count(), 1);
        let job = ds.job(JobId::new(6639)).unwrap();
        assert_eq!(job.task_count(), 2);
        assert_eq!(job.instance_count(), 5);
        assert!(job.running_at(Timestamp::new(1100)));
    }

    #[test]
    fn duplicate_scripted_ids_rejected() {
        let j = |id| {
            JobSpec::single_task(
                JobId::new(id),
                Timestamp::ZERO,
                TaskSpec::steady(1, 100, 0.1, 0.1, 0.1),
            )
        };
        let sim = Simulation::new(SimConfig::small(0)).with_jobs([j(5), j(5)]);
        assert!(matches!(sim.run(), Err(SimError::InvalidSpec { .. })));
    }

    #[test]
    fn mass_shutdown_truncates_and_spares_survivors() {
        let victim = JobSpec::single_task(
            JobId::new(100),
            Timestamp::new(0),
            TaskSpec::steady(2, 5000, 0.2, 0.2, 0.1),
        );
        let survivor = JobSpec::single_task(
            JobId::new(11599),
            Timestamp::new(0),
            TaskSpec::steady(2, 5000, 0.2, 0.2, 0.1),
        );
        let mut cfg = SimConfig::small(4);
        cfg.workload.jobs_per_hour = 0.0;
        let (ds, truth) = Simulation::new(cfg)
            .with_jobs([victim, survivor])
            .with_mass_shutdown(Timestamp::new(2000), vec![JobId::new(11599)])
            .run_with_truth()
            .unwrap();

        let at_2100 = ds.jobs_running_at(Timestamp::new(2100));
        let ids: Vec<JobId> = at_2100.iter().map(|j| j.id()).collect();
        assert_eq!(ids, vec![JobId::new(11599)]);
        // Victim instances are cancelled at the shutdown time.
        let victim_job = ds.job(JobId::new(100)).unwrap();
        for task in victim_job.tasks() {
            for inst in task.instances() {
                assert_eq!(inst.record.status, TaskStatus::Cancelled);
                assert_eq!(inst.record.end_time, Timestamp::new(2000));
            }
        }
        assert_eq!(truth.shutdowns.len(), 1);
        // Usage reporting continues for affected machines after the event
        // (the paper's "general metrics still exist" observation).
        let m = victim_job.machines()[0];
        let mv = ds.machine(m).unwrap();
        assert!(mv.util_at(Timestamp::new(2500)).is_some());
    }

    #[test]
    fn pinned_jobs_land_on_their_machines() {
        let pins = vec![MachineId::new(1), MachineId::new(3)];
        let spec = JobSpec::single_task(
            JobId::new(7901),
            Timestamp::new(100),
            TaskSpec::steady(6, 500, 0.3, 0.3, 0.1),
        )
        .pinned_to(pins.clone());
        let mut cfg = SimConfig::small(5);
        cfg.workload.jobs_per_hour = 0.0;
        let ds = Simulation::new(cfg).with_job(spec).run().unwrap();
        let job = ds.job(JobId::new(7901)).unwrap();
        assert_eq!(job.machines(), pins);
    }

    #[test]
    fn load_phase_raises_utilization() {
        let mut cfg = SimConfig::small(6);
        cfg.workload.jobs_per_hour = 0.0;
        cfg.noise_sigma = 0.0;
        let window = TimeRange::new(Timestamp::new(3600), Timestamp::new(7200)).unwrap();
        let ds = Simulation::new(cfg)
            .with_load_phase(window, [0.4, 0.3, 0.2])
            .run()
            .unwrap();
        let m = ds.machine(MachineId::new(0)).unwrap();
        let cpu = m.usage(Metric::Cpu).unwrap();
        let early = cpu.stats_in(&TimeRange::new(Timestamp::ZERO, Timestamp::new(3600)).unwrap());
        let late = cpu.stats_in(&window);
        assert!(late.unwrap().mean > early.unwrap().mean + 0.3);
    }

    #[test]
    fn end_spike_peaks_near_job_end() {
        let spec = JobSpec::single_task(
            JobId::new(7901),
            Timestamp::new(1800),
            TaskSpec::steady(1, 2400, 0.1, 0.1, 0.05),
        )
        .with_anomaly(Anomaly::end_spike())
        .pinned_to(vec![MachineId::new(2)]);
        let mut cfg = SimConfig::small(8);
        cfg.workload.jobs_per_hour = 0.0;
        cfg.noise_sigma = 0.0;
        cfg.personality_spread = 0.0;
        cfg.walk_sigma = 0.0;
        let ds = Simulation::new(cfg).with_job(spec).run().unwrap();
        let m = ds.machine(MachineId::new(2)).unwrap();
        let cpu = m.usage(Metric::Cpu).unwrap();
        // Peak CPU sample should fall within ±2 samples of the job end (4200).
        let (peak_t, _) = cpu
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let diff = (peak_t.seconds() - 4200).abs();
        assert!(diff <= 240, "peak at {peak_t}, expected near t4200");
    }

    #[test]
    fn thrashing_decouples_cpu_and_mem() {
        let spec = JobSpec::single_task(
            JobId::new(11939),
            Timestamp::new(600),
            TaskSpec::steady(4, 4000, 0.1, 0.1, 0.05),
        )
        .with_anomaly(Anomaly::thrashing())
        .pinned_to(vec![MachineId::new(1)]);
        let mut cfg = SimConfig::small(9);
        cfg.workload.jobs_per_hour = 0.0;
        cfg.noise_sigma = 0.0;
        let ds = Simulation::new(cfg).with_job(spec).run().unwrap();
        let m = ds.machine(MachineId::new(1)).unwrap();
        let win_late = TimeRange::new(Timestamp::new(3000), Timestamp::new(4500)).unwrap();
        let cpu_late = m
            .usage(Metric::Cpu)
            .unwrap()
            .stats_in(&win_late)
            .unwrap()
            .mean;
        let mem_late = m
            .usage(Metric::Memory)
            .unwrap()
            .stats_in(&win_late)
            .unwrap()
            .mean;
        assert!(
            mem_late > cpu_late + 0.3,
            "mem {mem_late} vs cpu {cpu_late}"
        );
    }

    #[test]
    fn truth_reports_coallocation() {
        let a = JobSpec::single_task(
            JobId::new(1),
            Timestamp::new(0),
            TaskSpec::steady(1, 1000, 0.1, 0.1, 0.1),
        )
        .pinned_to(vec![MachineId::new(5)]);
        let b = JobSpec::single_task(
            JobId::new(2),
            Timestamp::new(500),
            TaskSpec::steady(1, 1000, 0.1, 0.1, 0.1),
        )
        .pinned_to(vec![MachineId::new(5)]);
        let mut cfg = SimConfig::small(10);
        cfg.workload.jobs_per_hour = 0.0;
        let (_, truth) = Simulation::new(cfg)
            .with_jobs([a, b])
            .run_with_truth()
            .unwrap();
        assert_eq!(truth.coallocated_machines, vec![MachineId::new(5)]);
    }

    #[test]
    fn injected_failures_appear_as_machine_events() {
        use crate::MachineFailure;
        use batchlens_trace::{MachineEvent, TimeDelta};
        let mut cfg = SimConfig::small(12);
        cfg.workload.jobs_per_hour = 0.0;
        let fail = MachineFailure {
            machine: MachineId::new(2),
            at: Timestamp::new(1000),
            hard: true,
            recover_after: Some(TimeDelta::minutes(10)),
        };
        let ds = Simulation::new(cfg)
            .with_failures(vec![fail])
            .run()
            .unwrap();
        let m = ds.machine(MachineId::new(2)).unwrap();
        // Alive at start, dead after the crash, alive again after recovery.
        assert!(m.alive_at(Timestamp::new(500)));
        assert!(!m.alive_at(Timestamp::new(1200)));
        assert!(m.alive_at(Timestamp::new(2000)));
        // The events table carries a hard error and a remove.
        let kinds: Vec<MachineEvent> = ds
            .machine_events()
            .iter()
            .filter(|e| e.machine == MachineId::new(2))
            .map(|e| e.event)
            .collect();
        assert!(kinds.contains(&MachineEvent::HardError));
        assert!(kinds.contains(&MachineEvent::Remove));
    }

    #[test]
    fn straggler_extends_one_instance() {
        let spec = JobSpec::single_task(
            JobId::new(42),
            Timestamp::new(0),
            TaskSpec {
                instances: 4,
                duration: 600,
                footprint: crate::FootprintProfile::steady(0.1, 0.1, 0.1),
                start_jitter: 0,
                end_jitter: 0,
            },
        )
        .with_anomaly(Anomaly::Straggler { factor: 3.0 });
        let mut cfg = SimConfig::small(11);
        cfg.workload.jobs_per_hour = 0.0;
        let ds = Simulation::new(cfg).with_job(spec).run().unwrap();
        let job = ds.job(JobId::new(42)).unwrap();
        let task = job.tasks().next().unwrap();
        let ends: Vec<i64> = task
            .instances()
            .map(|i| i.record.end_time.seconds())
            .collect();
        assert_eq!(ends.iter().filter(|&&e| e == 1800).count(), 1);
        assert_eq!(ends.iter().filter(|&&e| e == 600).count(), 3);
    }
}
