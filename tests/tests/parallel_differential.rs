//! Differential proptests for the parallel execution layer: every parallel
//! path must be **bit-identical to the serial path** at any thread count.
//!
//! Thread counts {1, 2, 7} cover the serial fallback, the minimal pool and
//! an odd oversubscribed pool (more workers than this container has cores),
//! so scheduling order varies wildly between runs — any dependence on it
//! would flake here.

use batchlens::analytics::aggregate::ClusterTimeline;
use batchlens::analytics::detect::{detect_all_machines, Ensemble, ThresholdDetector};
use batchlens::sim::{SimConfig, Simulation};
use batchlens::trace::{
    BatchInstanceRecord, BatchTaskRecord, JobId, MachineId, ServerUsageRecord, TaskId, TaskStatus,
    TimeSeries, Timestamp, TraceDataset, TraceDatasetBuilder, TraceError, UtilizationTriple,
};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// A random record soup: tasks for every referenced job, instances over a
/// handful of machines, usage samples (deduplicated per machine/time so the
/// success path is exercised — error parity has its own tests below).
#[derive(Debug, Clone)]
struct Soup {
    tasks: Vec<BatchTaskRecord>,
    instances: Vec<BatchInstanceRecord>,
    usage: Vec<ServerUsageRecord>,
}

fn soup_strategy() -> impl Strategy<Value = Soup> {
    (
        prop::collection::vec(
            // (job, task, machine, start, duration)
            (0u32..6, 1u32..4, 0u32..8, 0i64..5_000, 1i64..4_000),
            1..60,
        ),
        prop::collection::vec(
            // (machine, time, cpu)
            (0u32..8, 0i64..8_000, 0.0f64..1.0),
            1..300,
        ),
    )
        .prop_map(|(inst_rows, usage_samples)| {
            let mut tasks = Vec::new();
            let mut instances = Vec::new();
            let mut seen_task = std::collections::BTreeSet::new();
            let mut seq_of = std::collections::BTreeMap::new();
            for (job, task, machine, start, dur) in inst_rows {
                if seen_task.insert((job, task)) {
                    tasks.push(BatchTaskRecord {
                        create_time: Timestamp::new(0),
                        modify_time: Timestamp::new(10_000),
                        job: JobId::new(job),
                        task: TaskId::new(task),
                        instance_count: 1,
                        status: TaskStatus::Terminated,
                        plan_cpu: 1.0,
                        plan_mem: 0.5,
                    });
                }
                let seq = seq_of.entry((job, task)).or_insert(0u32);
                instances.push(BatchInstanceRecord {
                    start_time: Timestamp::new(start),
                    end_time: Timestamp::new(start + dur),
                    job: JobId::new(job),
                    task: TaskId::new(task),
                    seq: *seq,
                    total: 1,
                    machine: MachineId::new(machine),
                    status: TaskStatus::Terminated,
                    cpu_avg: 0.4,
                    cpu_max: 0.6,
                    mem_avg: 0.3,
                    mem_max: 0.5,
                });
                *seq += 1;
            }
            let mut seen_usage = std::collections::BTreeSet::new();
            let usage = usage_samples
                .into_iter()
                .filter(|&(machine, t, _)| seen_usage.insert((machine, t)))
                .map(|(machine, t, cpu)| ServerUsageRecord {
                    time: Timestamp::new(t),
                    machine: MachineId::new(machine),
                    util: UtilizationTriple::clamped(cpu, cpu * 0.7, cpu * 0.4),
                })
                .collect();
            Soup {
                tasks,
                instances,
                usage,
            }
        })
}

fn build_with_threads(soup: &Soup, threads: usize) -> Result<TraceDataset, TraceError> {
    let mut b = TraceDatasetBuilder::new();
    b.par_threads(threads);
    b.extend_tables(
        soup.tasks.iter().copied(),
        soup.instances.iter().copied(),
        soup.usage.iter().cloned(),
        std::iter::empty(),
    );
    b.build()
}

/// Short random series on irregular grids, enough of them to cross the
/// 64-series chunk boundary of the parallel sweep tree.
fn series_set() -> impl Strategy<Value = Vec<TimeSeries>> {
    prop::collection::vec(
        prop::collection::vec((0i64..5_000, -2.0f64..2.0), 1..25),
        1..140,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|mut samples| {
                samples.sort_by_key(|(t, _)| *t);
                samples.dedup_by_key(|(t, _)| *t);
                samples
                    .into_iter()
                    .map(|(t, v)| (Timestamp::new(t), v))
                    .collect()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel dataset build produces a bit-identical dataset at every
    /// thread count (indexes, series, spans — full structural equality).
    #[test]
    fn dataset_build_parallel_equals_serial(soup in soup_strategy()) {
        let serial = build_with_threads(&soup, 1).expect("soup is valid");
        for threads in THREAD_COUNTS {
            let par = build_with_threads(&soup, threads).expect("soup is valid");
            prop_assert_eq!(&par, &serial, "threads={}", threads);
        }
    }

    /// The chunk-merged parallel sweeps are bit-identical at every thread
    /// count, and max (associative) additionally reproduces the serial
    /// multiset sweep bit for bit at any chunk count.
    #[test]
    fn timeline_sweeps_parallel_equal_serial(series in series_set()) {
        let refs: Vec<&TimeSeries> = series.iter().collect();
        let mean1 = TimeSeries::mean_of_par(refs.iter().copied(), 1);
        let sum1 = TimeSeries::sum_of_par(refs.iter().copied(), 1);
        let max1 = TimeSeries::max_of_par(refs.iter().copied(), 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&TimeSeries::mean_of_par(refs.iter().copied(), threads), &mean1);
            prop_assert_eq!(&TimeSeries::sum_of_par(refs.iter().copied(), threads), &sum1);
            prop_assert_eq!(&TimeSeries::max_of_par(refs.iter().copied(), threads), &max1);
        }
        prop_assert_eq!(&max1, &TimeSeries::max_of(refs.iter().copied()));
        // Mean/sum associate per chunk: same grid, same values up to float
        // rounding of the fixed combine tree.
        let serial_mean = TimeSeries::mean_of(refs.iter().copied());
        prop_assert_eq!(mean1.times(), serial_mean.times());
        for (a, b) in mean1.values().iter().zip(serial_mean.values()) {
            prop_assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{} vs {}", a, b);
        }
        // At or below one chunk the tree *is* the serial sweep.
        if refs.len() <= 64 {
            prop_assert_eq!(&mean1, &serial_mean);
            prop_assert_eq!(&sum1, &TimeSeries::sum_of(refs.iter().copied()));
        }
    }

    /// Batch detection fanned out over every machine is bit-identical to
    /// the serial per-machine loop at every thread count.
    #[test]
    fn detect_all_machines_parallel_equals_serial(soup in soup_strategy()) {
        let ds = build_with_threads(&soup, 1).expect("soup is valid");
        let detector = ThresholdDetector { high: 0.5, min_samples: 1 };
        let serial = detect_all_machines(&ds, &detector, None, 1);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(
                &detect_all_machines(&ds, &detector, None, threads),
                &serial,
                "threads={}",
                threads
            );
        }
    }
}

/// `ClusterTimeline` over a real simulated cluster (wider than one sweep
/// chunk) is bit-identical at every thread count.
#[test]
fn cluster_timeline_bit_identical_across_thread_counts() {
    let mut cfg = SimConfig::small(5);
    cfg.machines = 150; // > one 64-series chunk per metric
    let ds = Simulation::new(cfg).run().unwrap();
    let serial = ClusterTimeline::build_with_threads(&ds, 1);
    for threads in [2usize, 7] {
        assert_eq!(
            ClusterTimeline::build_with_threads(&ds, threads),
            serial,
            "threads={threads}"
        );
    }
}

/// A full simulated dataset (the production path: `Simulation::run` goes
/// through the parallel builder) is bit-identical at every thread count.
#[test]
fn simulated_dataset_bit_identical_across_thread_counts() {
    let ds1 = Simulation::new(SimConfig::small(9)).run().unwrap();
    // `Simulation::run` uses the process default; rebuild its records
    // through explicit thread counts via the ensemble detector path instead:
    // compare cluster-wide detection, which touches every index and series.
    let ensemble = Ensemble::standard();
    let serial = detect_all_machines(&ds1, &ensemble, None, 1);
    for threads in [2usize, 7] {
        assert_eq!(detect_all_machines(&ds1, &ensemble, None, threads), serial);
    }
}

/// Builder errors must propagate as `Err` from worker threads — never as a
/// panic — and name the same offending record at every thread count.
#[test]
fn builder_errors_propagate_from_workers() {
    // Duplicate usage timestamps on one machine, buried in a large table so
    // the sharded (actually multi-threaded) path is exercised.
    let mut b = TraceDatasetBuilder::new();
    b.par_threads(7);
    for m in 0..40u32 {
        for i in 0..600i64 {
            b.push_usage(ServerUsageRecord {
                time: Timestamp::new(i * 60),
                machine: MachineId::new(m),
                util: UtilizationTriple::clamped(0.3, 0.3, 0.3),
            });
        }
    }
    b.push_usage(ServerUsageRecord {
        time: Timestamp::new(120), // duplicate on machine 17
        machine: MachineId::new(17),
        util: UtilizationTriple::clamped(0.9, 0.9, 0.9),
    });
    let err = b.build().expect_err("duplicate usage timestamp");
    assert!(
        matches!(err, TraceError::UnorderedSamples { .. }),
        "{err:?}"
    );

    // Duplicate instances far enough into the sorted table to cross the
    // validation shard boundary (8192 records per shard).
    let mut b = TraceDatasetBuilder::new();
    b.par_threads(7);
    b.allow_dangling_instances();
    let inst = |job: u32, seq: u32| BatchInstanceRecord {
        start_time: Timestamp::new(0),
        end_time: Timestamp::new(100),
        job: JobId::new(job),
        task: TaskId::new(1),
        seq,
        total: 1,
        machine: MachineId::new(job % 16),
        status: TaskStatus::Terminated,
        cpu_avg: 0.1,
        cpu_max: 0.2,
        mem_avg: 0.1,
        mem_max: 0.2,
    };
    for job in 0..20_000u32 {
        b.push_instance(inst(job, 0));
    }
    b.push_instance(inst(19_997, 0)); // duplicate near the table's end
    let errs: Vec<TraceError> = [1usize, 2, 7]
        .into_iter()
        .map(|threads| {
            let mut b = b.clone();
            b.par_threads(threads);
            b.build().expect_err("duplicate instance")
        })
        .collect();
    assert!(
        matches!(&errs[0], TraceError::DuplicateInstance { .. }),
        "{errs:?}"
    );
    assert_eq!(errs[1], errs[0], "error differs at 2 threads");
    assert_eq!(errs[2], errs[0], "error differs at 7 threads");
}

/// The SLA checker and behavior-vector fan-outs also honor the determinism
/// contract (they ride the same pool).
#[test]
fn sla_and_behavior_fan_outs_are_deterministic() {
    use batchlens::analytics::behavior::behavior_vectors_with_threads;
    use batchlens::analytics::sla::{check_with_threads, SlaPolicy};
    let ds = Simulation::new(SimConfig::small(3)).run().unwrap();
    let window = ds.span().unwrap();
    let policy = SlaPolicy::default();
    let sla1 = check_with_threads(&ds, &policy, 1);
    let beh1 = behavior_vectors_with_threads(&ds, &window, 1);
    for threads in [2usize, 7] {
        assert_eq!(check_with_threads(&ds, &policy, threads), sla1);
        assert_eq!(behavior_vectors_with_threads(&ds, &window, threads), beh1);
    }
}
