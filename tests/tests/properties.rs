//! Property-based tests on core invariants across the workspace.

use batchlens::layout::annotation::cluster_1d;
use batchlens::layout::enclose::enclose;
use batchlens::layout::line::{douglas_peucker, lttb};
use batchlens::layout::pack::pack_siblings;
use batchlens::layout::{Brush, Circle, LinearScale};
use batchlens::trace::{TimeRange, TimeSeries, Timestamp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Packed circles never overlap (the core layout invariant).
    #[test]
    fn packed_circles_are_disjoint(radii in prop::collection::vec(0.1f64..20.0, 1..40)) {
        let mut circles: Vec<Circle> = radii.iter().map(|&r| Circle::new(0.0, 0.0, r)).collect();
        pack_siblings(&mut circles);
        for i in 0..circles.len() {
            for j in i + 1..circles.len() {
                let a = &circles[i];
                let b = &circles[j];
                let d = ((a.x - b.x).powi(2) + (a.y - b.y).powi(2)).sqrt();
                prop_assert!(d + 1e-5 >= a.r + b.r, "overlap between {a:?} and {b:?}");
            }
        }
    }

    /// The enclosing circle contains every input circle.
    #[test]
    fn enclosure_contains_all(
        data in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0, 0.1f64..10.0), 1..30)
    ) {
        let circles: Vec<Circle> = data.iter().map(|&(x, y, r)| Circle::new(x, y, r)).collect();
        let e = enclose(&circles).unwrap();
        for c in &circles {
            let d = ((c.x - e.x).powi(2) + (c.y - e.y).powi(2)).sqrt();
            prop_assert!(d + c.r <= e.r + 1e-4, "circle {c:?} escapes {e:?}");
        }
    }

    /// A linear scale and its inverse round-trip (non-degenerate domain).
    #[test]
    fn scale_inverts(
        d0 in -1000.0f64..1000.0,
        span in 0.5f64..1000.0,
        r0 in -500.0f64..500.0,
        rspan in 0.5f64..500.0,
        v in -2000.0f64..2000.0,
    ) {
        let s = LinearScale::new((d0, d0 + span), (r0, r0 + rspan));
        let back = s.invert(s.scale(v));
        prop_assert!((back - v).abs() < 1e-6, "round trip {v} -> {back}");
    }

    /// LTTB never exceeds its point budget and keeps the endpoints.
    #[test]
    fn lttb_budget_and_endpoints(
        values in prop::collection::vec(-1.0f64..1.0, 5..500),
        threshold in 3usize..50,
    ) {
        let points: Vec<(f64, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
        let out = lttb(&points, threshold);
        prop_assert!(out.len() <= threshold.max(points.len().min(threshold)));
        prop_assert!(out.len() <= points.len());
        prop_assert_eq!(out[0], points[0]);
        prop_assert_eq!(*out.last().unwrap(), *points.last().unwrap());
        // x strictly increasing.
        for w in out.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    /// Douglas-Peucker keeps every original point within epsilon of the
    /// simplified polyline.
    #[test]
    fn douglas_peucker_error_bound(
        values in prop::collection::vec(-5.0f64..5.0, 3..200),
        eps in 0.05f64..2.0,
    ) {
        let points: Vec<(f64, f64)> =
            values.iter().enumerate().map(|(i, &v)| (i as f64, v)).collect();
        let out = douglas_peucker(&points, eps);
        prop_assert!(out.len() >= 2);
        // Douglas-Peucker bounds the *perpendicular distance to the line* of
        // the segment spanning each point's x-range (not the distance to the
        // clamped segment, which differs for steep slopes). Verify that.
        for &(px, py) in &points {
            // x is monotonic, so find the output segment containing px.
            let mut perp = f64::INFINITY;
            for w in out.windows(2) {
                let (x0, y0) = w[0];
                let (x1, y1) = w[1];
                if px >= x0 - 1e-9 && px <= x1 + 1e-9 {
                    let dx = x1 - x0;
                    let dy = y1 - y0;
                    let len = dx.hypot(dy).max(f64::EPSILON);
                    perp = ((px - x0) * dy - (py - y0) * dx).abs() / len;
                    break;
                }
            }
            prop_assert!(perp <= eps + 1e-6, "point off by {perp} > {eps}");
        }
    }

    /// A brush selection always stays inside its extent and is non-inverted.
    #[test]
    fn brush_selection_stays_valid(
        e0 in -100.0f64..100.0,
        espan in 1.0f64..200.0,
        a in -300.0f64..300.0,
        b in -300.0f64..300.0,
    ) {
        let mut brush = Brush::new((e0, e0 + espan));
        brush.select(a, b);
        if let Some((lo, hi)) = brush.selection() {
            prop_assert!(lo <= hi);
            prop_assert!(lo >= e0 - 1e-9 && hi <= e0 + espan + 1e-9);
        }
        // Pan and zoom preserve the invariant.
        brush.pan(50.0);
        brush.zoom(1.5);
        if let Some((lo, hi)) = brush.selection() {
            prop_assert!(lo >= e0 - 1e-9 && hi <= e0 + espan + 1e-9);
        }
    }

    /// 1-D clustering: members are partitioned and every cluster is internally
    /// gap-connected.
    #[test]
    fn clusters_partition_and_connect(
        positions in prop::collection::vec(0.0f64..1000.0, 0..100),
        gap in 0.1f64..50.0,
    ) {
        let clusters = cluster_1d(&positions, gap);
        let total: usize = clusters.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, positions.len());
        // Within a cluster, consecutive sorted members are within gap.
        for c in &clusters {
            let mut ps: Vec<f64> = c.members.iter().map(|&i| positions[i]).collect();
            ps.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for w in ps.windows(2) {
                prop_assert!(w[1] - w[0] <= gap + 1e-9);
            }
        }
    }

    /// TimeSeries resample preserves the time ordering and never invents
    /// samples outside the source span.
    #[test]
    fn resample_stays_in_span(
        values in prop::collection::vec(0.0f64..1.0, 2..200),
        res in 30i64..600,
    ) {
        let series: TimeSeries =
            values.iter().enumerate().map(|(i, &v)| (Timestamp::new(i as i64 * 60), v)).collect();
        let resampled = series
            .resample(batchlens::trace::TimeDelta::seconds(res), batchlens::trace::Resample::Mean)
            .unwrap_or_else(|_| TimeSeries::new());
        // Monotone timestamps.
        for w in resampled.times().windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Values stay within the original [min, max].
        if let Some(src) = series.stats() {
            for v in resampled.values() {
                prop_assert!(*v >= src.min - 1e-9 && *v <= src.max + 1e-9);
            }
        }
    }

    /// The sweep-based mean and the two-cursor difference agree with the
    /// naive union-grid/binary-search reference implementations on random
    /// irregular grids.
    #[test]
    fn sweep_kernels_match_naive(
        grids in prop::collection::vec(
            prop::collection::vec((1i64..120, -2.0f64..2.0), 1..60),
            0..12,
        ),
    ) {
        // Cumulative-sum the gaps so each series gets its own irregular,
        // strictly increasing grid.
        let series: Vec<TimeSeries> = grids
            .iter()
            .map(|gaps| {
                let mut t = 0i64;
                gaps.iter()
                    .map(|&(gap, v)| {
                        t += gap;
                        (Timestamp::new(t), v)
                    })
                    .collect()
            })
            .collect();
        let views = || series.iter().map(TimeSeries::view);

        let mean = TimeSeries::mean_of(views());
        let naive_mean = batchlens::trace::naive::mean_of(views());
        prop_assert_eq!(mean.times(), naive_mean.times());
        for (a, b) in mean.values().iter().zip(naive_mean.values()) {
            prop_assert!((a - b).abs() < 1e-9, "mean {a} vs {b}");
        }

        if series.len() >= 2 {
            prop_assert_eq!(
                series[0].sub_series(&series[1]),
                batchlens::trace::naive::sub_series(&series[0], &series[1])
            );
        }
    }

    /// Selection-based quantiles agree with the sort-based definition.
    #[test]
    fn quantile_matches_sorted_definition(
        values in prop::collection::vec(-10.0f64..10.0, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let series: TimeSeries = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (Timestamp::new(i as i64), v))
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        let expected = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
        let got = series.quantile(q).unwrap();
        prop_assert!((got - expected).abs() < 1e-9, "q={q}: {got} vs {expected}");
    }

    /// The dataset's indexed snapshot queries agree with linear scans over
    /// the instance table, for random interval layouts.
    #[test]
    fn indexed_dataset_queries_match_scans(
        rows in prop::collection::vec(
            (0i64..2000, 0i64..500, 1u32..6, 1u32..4, 0u32..8),
            1..80,
        ),
        probes in prop::collection::vec(-50i64..2600, 1..20),
    ) {
        use batchlens::trace::{
            BatchInstanceRecord, InstanceStatus, JobId, MachineId, TaskId,
            TraceDatasetBuilder,
        };
        let mut b = TraceDatasetBuilder::new();
        b.allow_dangling_instances();
        for (seq, &(start, dur, job, task, machine)) in rows.iter().enumerate() {
            b.push_instance(BatchInstanceRecord {
                start_time: Timestamp::new(start),
                end_time: Timestamp::new(start + dur),
                job: JobId::new(job),
                task: TaskId::new(task),
                seq: seq as u32,
                total: rows.len() as u32,
                machine: MachineId::new(machine),
                status: InstanceStatus::Terminated,
                cpu_avg: 0.1,
                cpu_max: 0.2,
                mem_avg: 0.1,
                mem_max: 0.2,
            });
        }
        let ds = b.build().unwrap();
        for &t in &probes {
            let t = Timestamp::new(t);
            let mut scan_jobs: Vec<JobId> = ds
                .instance_records()
                .iter()
                .filter(|r| r.running_at(t))
                .map(|r| r.job)
                .collect();
            scan_jobs.sort_unstable();
            scan_jobs.dedup();
            let indexed: Vec<JobId> =
                ds.jobs_running_at(t).iter().map(|j| j.id()).collect();
            prop_assert_eq!(indexed, scan_jobs, "jobs_running_at {}", t);

            let scan_count =
                ds.instance_records().iter().filter(|r| r.running_at(t)).count();
            prop_assert_eq!(ds.running_instance_count_at(t), scan_count);
            prop_assert_eq!(ds.instances_running_at(t).len(), scan_count);

            for m in ds.machines() {
                let mut scan_m: Vec<JobId> = m
                    .instances()
                    .filter(|i| i.record.running_at(t))
                    .map(|i| i.record.job)
                    .collect();
                scan_m.sort_unstable();
                scan_m.dedup();
                prop_assert_eq!(m.jobs_at(t), scan_m, "jobs_at {} m{}", t, m.id());
                prop_assert_eq!(
                    m.running_instances_at(t),
                    m.instances().filter(|i| i.record.running_at(t)).count()
                );
            }
        }
    }

    /// Machine liveness from the indexed checkpoints agrees with an event
    /// scan, for random event sequences.
    #[test]
    fn alive_at_matches_event_scan(
        events in prop::collection::vec((0i64..1000, 0u32..4, 0u32..5), 0..40),
        probes in prop::collection::vec(-10i64..1100, 1..15),
    ) {
        use batchlens::trace::{
            MachineEvent, MachineEventRecord, MachineId, TraceDatasetBuilder,
        };
        let kind = |k: u32| match k {
            0 => MachineEvent::Add,
            1 => MachineEvent::SoftError,
            2 => MachineEvent::HardError,
            _ => MachineEvent::Remove,
        };
        let mut b = TraceDatasetBuilder::new();
        for &(t, k, m) in &events {
            b.push_machine_event(MachineEventRecord {
                time: Timestamp::new(t),
                machine: MachineId::new(m),
                event: kind(k),
                capacity_cpu: 1.0,
                capacity_mem: 1.0,
                capacity_disk: 1.0,
            });
        }
        let ds = b.build().unwrap();
        for &t in &probes {
            let t = Timestamp::new(t);
            for m in ds.machines() {
                // Reference: walk this machine's events in time order;
                // events sharing one timestamp merge dead-wins (alive iff
                // every one keeps the machine alive), order-independently.
                let mut alive = true;
                let mut merged_at = None;
                for ev in ds.machine_events().iter().filter(|e| e.machine == m.id()) {
                    if ev.time > t {
                        break;
                    }
                    if merged_at == Some(ev.time) {
                        alive = alive && ev.event.keeps_alive();
                    } else {
                        alive = ev.event.keeps_alive();
                        merged_at = Some(ev.time);
                    }
                }
                prop_assert_eq!(m.alive_at(t), alive, "machine {} at {}", m.id(), t);
            }
        }
    }

    /// TimeRange intersection is commutative and contained in both operands.
    #[test]
    fn range_intersection_is_contained(
        a0 in -1000i64..1000, aspan in 0i64..1000,
        b0 in -1000i64..1000, bspan in 0i64..1000,
    ) {
        let a = TimeRange::new(Timestamp::new(a0), Timestamp::new(a0 + aspan)).unwrap();
        let b = TimeRange::new(Timestamp::new(b0), Timestamp::new(b0 + bspan)).unwrap();
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        prop_assert_eq!(ab, ba);
        if let Some(i) = ab {
            prop_assert!(i.start() >= a.start() && i.end() <= a.end());
            prop_assert!(i.start() >= b.start() && i.end() <= b.end());
        }
    }
}
