//! The "no visualization structures" baseline: answering the case study's
//! questions by scanning the raw tables, the way an administrator grepping
//! CSV dumps would.
//!
//! BatchLens's contribution is *not* a faster algorithm — it is an indexed,
//! linked-view representation. The honest comparison for the benches is
//! therefore indexed queries ([`crate::hierarchy`], [`crate::coalloc`])
//! versus these deliberately naive full scans over unindexed record slices.

use std::collections::BTreeMap;

use batchlens_trace::{
    BatchInstanceRecord, JobId, MachineId, ServerUsageRecord, Timestamp, TraceDataset,
};

/// Flattens a dataset's usage series back into raw `server_usage` rows —
/// the input shape the baseline works with.
pub fn export_usage_records(ds: &TraceDataset) -> Vec<ServerUsageRecord> {
    let mut out = ds.usage_records();
    // Raw dumps are time-ordered, machine-interleaved.
    out.sort_by_key(|r| (r.time, r.machine));
    out
}

/// Raw scan: which jobs run at `t`? (Full pass over every instance row.)
pub fn jobs_running_at_raw(instances: &[BatchInstanceRecord], t: Timestamp) -> Vec<JobId> {
    let mut out: Vec<JobId> = instances
        .iter()
        .filter(|r| r.running_at(t))
        .map(|r| r.job)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Raw scan: the latest usage row at or before `t` for every machine.
/// (Full pass over every usage row.)
pub fn util_at_raw(
    usage: &[ServerUsageRecord],
    t: Timestamp,
) -> BTreeMap<MachineId, ServerUsageRecord> {
    let mut latest: BTreeMap<MachineId, ServerUsageRecord> = BTreeMap::new();
    for r in usage {
        if r.time <= t {
            match latest.get(&r.machine) {
                Some(prev) if prev.time >= r.time => {}
                _ => {
                    latest.insert(r.machine, *r);
                }
            }
        }
    }
    latest
}

/// Raw scan: mean utilization of each running job's machines at `t` and the
/// job with the highest mean — the "which job should I look at first"
/// question, answered without any index.
pub fn busiest_job_raw(
    instances: &[BatchInstanceRecord],
    usage: &[ServerUsageRecord],
    t: Timestamp,
) -> Option<(JobId, f64)> {
    let running = jobs_running_at_raw(instances, t);
    let latest = util_at_raw(usage, t);
    let mut best: Option<(JobId, f64)> = None;
    for job in running {
        // Another full pass per job: collect its machines.
        let mut machines: Vec<MachineId> = instances
            .iter()
            .filter(|r| r.job == job && r.running_at(t))
            .map(|r| r.machine)
            .collect();
        machines.sort_unstable();
        machines.dedup();
        let mut sum = 0.0;
        let mut n = 0usize;
        for m in &machines {
            if let Some(rec) = latest.get(m) {
                sum += rec.util.mean().fraction();
                n += 1;
            }
        }
        if n > 0 {
            let mean = sum / n as f64;
            if best.is_none_or(|(_, b)| mean > b) {
                best = Some((job, mean));
            }
        }
    }
    best
}

/// Raw scan: machines executing two or more distinct jobs at `t` —
/// the co-allocation question with a quadratic-ish scan.
pub fn shared_machines_raw(instances: &[BatchInstanceRecord], t: Timestamp) -> Vec<MachineId> {
    let mut machine_jobs: BTreeMap<MachineId, Vec<JobId>> = BTreeMap::new();
    for r in instances {
        if r.running_at(t) {
            let jobs = machine_jobs.entry(r.machine).or_default();
            if !jobs.contains(&r.job) {
                jobs.push(r.job);
            }
        }
    }
    machine_jobs
        .into_iter()
        .filter(|(_, jobs)| jobs.len() >= 2)
        .map(|(m, _)| m)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalloc::CoallocationIndex;
    use crate::hierarchy::HierarchySnapshot;
    use batchlens_sim::scenario;

    #[test]
    fn raw_scan_agrees_with_indexed_queries() {
        let ds = scenario::fig3b(41).run().unwrap();
        let instances = ds.instance_records().to_vec();
        let usage = export_usage_records(&ds);
        let t = scenario::T_FIG3B;

        // Jobs running.
        let raw_jobs = jobs_running_at_raw(&instances, t);
        let indexed_jobs: Vec<JobId> = ds.jobs_running_at(t).iter().map(|j| j.id()).collect();
        assert_eq!(raw_jobs, indexed_jobs);

        // Shared machines.
        let raw_shared = shared_machines_raw(&instances, t);
        let idx = CoallocationIndex::at(&ds, t);
        let indexed_shared: Vec<MachineId> =
            idx.shared_machines().iter().map(|s| s.machine).collect();
        assert_eq!(raw_shared, indexed_shared);

        // Per-machine utilization.
        let latest = util_at_raw(&usage, t);
        for machine in ds.machines() {
            let indexed = machine.util_at(t);
            let raw = latest.get(&machine.id()).map(|r| r.util);
            match (indexed, raw) {
                (Some(a), Some(b)) => {
                    assert!((a.cpu.fraction() - b.cpu.fraction()).abs() < 1e-9);
                }
                (None, None) => {}
                other => panic!("disagreement on {}: {other:?}", machine.id()),
            }
        }
    }

    #[test]
    fn busiest_job_matches_snapshot_ranking() {
        let ds = scenario::fig3b(42).run().unwrap();
        let instances = ds.instance_records().to_vec();
        let usage = export_usage_records(&ds);
        let t = scenario::T_FIG3B;
        let (raw_job, _) = busiest_job_raw(&instances, &usage, t).unwrap();
        let snap = HierarchySnapshot::at(&ds, t);
        let ranked = snap.jobs_by_mean_util();
        let indexed_busiest = ranked.last().unwrap().0;
        assert_eq!(raw_job, indexed_busiest);
    }

    #[test]
    fn empty_inputs() {
        assert!(jobs_running_at_raw(&[], Timestamp::ZERO).is_empty());
        assert!(util_at_raw(&[], Timestamp::ZERO).is_empty());
        assert!(busiest_job_raw(&[], &[], Timestamp::ZERO).is_none());
        assert!(shared_machines_raw(&[], Timestamp::ZERO).is_empty());
    }
}
