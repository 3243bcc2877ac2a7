//! Round-trips a simulated trace through the Alibaba-v2017 CSV codec:
//! simulate → write the four tables as CSV → parse them back → rebuild the
//! dataset → confirm the statistics match.
//!
//! This demonstrates that `batchlens-sim` emits exactly the v2017 schema
//! `batchlens-trace` consumes, so the reproduction could ingest the real
//! dump unchanged.
//!
//! Run with: `cargo run -p batchlens --example trace_export`

use batchlens::sim::{SimConfig, Simulation};
use batchlens::trace::csv;
use batchlens::trace::stats::DatasetStats;
use batchlens::trace::{
    BatchInstanceRecord, BatchTaskRecord, MachineEventRecord, ServerUsageRecord,
    TraceDatasetBuilder,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Simulation::new(SimConfig::small(99)).run()?;
    let before = DatasetStats::compute(&dataset);
    println!(
        "original: {} jobs, {} instances",
        before.jobs, before.instances
    );

    // Flatten the dataset back into the four v2017 tables.
    let tasks: Vec<BatchTaskRecord> = dataset.task_records().copied().collect();
    let instances: Vec<BatchInstanceRecord> = dataset.instance_records().to_vec();
    let usage: Vec<ServerUsageRecord> = dataset.usage_records();
    let events: Vec<MachineEventRecord> = dataset.machine_events().to_vec();

    // Serialize.
    let task_csv = csv::write_batch_tasks(&tasks);
    let inst_csv = csv::write_batch_instances(&instances);
    let usage_csv = csv::write_server_usage(&usage);
    let event_csv = csv::write_machine_events(&events);

    let dir = std::env::temp_dir().join("batchlens_trace");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("batch_task.csv"), &task_csv)?;
    std::fs::write(dir.join("batch_instance.csv"), &inst_csv)?;
    std::fs::write(dir.join("server_usage.csv"), &usage_csv)?;
    std::fs::write(dir.join("machine_events.csv"), &event_csv)?;
    println!(
        "wrote 4 CSV tables to {} ({} KiB total)",
        dir.display(),
        (task_csv.len() + inst_csv.len() + usage_csv.len() + event_csv.len()) / 1024
    );

    // Parse back and rebuild.
    let tasks2 = csv::parse_batch_tasks(&task_csv)?;
    let instances2 = csv::parse_batch_instances(&inst_csv)?;
    let usage2 = csv::parse_server_usage(&usage_csv)?;
    let events2 = csv::parse_machine_events(&event_csv)?;

    let mut builder = TraceDatasetBuilder::new();
    builder.extend_tables(tasks2, instances2, usage2, events2);
    let rebuilt = builder.build()?;
    let after = DatasetStats::compute(&rebuilt);

    println!(
        "rebuilt : {} jobs, {} instances",
        after.jobs, after.instances
    );
    assert_eq!(before.jobs, after.jobs);
    assert_eq!(before.instances, after.instances);
    assert_eq!(before.tasks, after.tasks);
    println!("\nround-trip preserved the hierarchy ✓");

    Ok(())
}
