//! Property and integration tests for the Alibaba-v2017 CSV codec and the
//! WAL frame codec ([`batchlens::trace::wal`]).

use batchlens::trace::wal::{self, WalRecord};
use batchlens::trace::{
    csv, BatchInstanceRecord, BatchTaskRecord, InstanceStatus, JobId, MachineEvent,
    MachineEventRecord, MachineId, ServerUsageRecord, TaskId, TaskStatus, Timestamp,
    UtilizationTriple,
};
use proptest::prelude::*;

fn task_strategy() -> impl Strategy<Value = BatchTaskRecord> {
    (0i64..86400, 0i64..5000, 1u32..10000, 1u32..50, 1u32..100).prop_map(
        |(create, dur, job, task, n)| BatchTaskRecord {
            create_time: Timestamp::new(create),
            modify_time: Timestamp::new(create + dur),
            job: JobId::new(job),
            task: TaskId::new(task),
            instance_count: n,
            status: TaskStatus::Terminated,
            plan_cpu: 1.0,
            plan_mem: 0.5,
        },
    )
}

fn instance_strategy() -> impl Strategy<Value = BatchInstanceRecord> {
    (
        0i64..86400,
        1i64..5000,
        1u32..10000,
        1u32..50,
        0u32..100,
        0u32..2000,
    )
        .prop_map(
            |(start, dur, job, task, seq, machine)| BatchInstanceRecord {
                start_time: Timestamp::new(start),
                end_time: Timestamp::new(start + dur),
                job: JobId::new(job),
                task: TaskId::new(task),
                seq,
                total: seq + 1,
                machine: MachineId::new(machine),
                status: InstanceStatus::Terminated,
                cpu_avg: 0.4,
                cpu_max: 0.8,
                mem_avg: 0.3,
                mem_max: 0.5,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batch_task_csv_round_trips(tasks in prop::collection::vec(task_strategy(), 0..50)) {
        let text = csv::write_batch_tasks(&tasks);
        let parsed = csv::parse_batch_tasks(&text).unwrap();
        prop_assert_eq!(parsed, tasks);
    }

    #[test]
    fn batch_instance_csv_round_trips(
        instances in prop::collection::vec(instance_strategy(), 0..50)
    ) {
        let text = csv::write_batch_instances(&instances);
        let parsed = csv::parse_batch_instances(&text).unwrap();
        prop_assert_eq!(parsed, instances);
    }

    #[test]
    fn server_usage_csv_round_trips_at_precision(
        rows in prop::collection::vec(
            (0i64..86400, 0u32..2000, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
            0..100,
        )
    ) {
        let usage: Vec<ServerUsageRecord> = rows
            .iter()
            .map(|&(t, m, c, mem, d)| ServerUsageRecord {
                time: Timestamp::new(t),
                machine: MachineId::new(m),
                util: UtilizationTriple::clamped(c, mem, d),
            })
            .collect();
        let text = csv::write_server_usage(&usage);
        let parsed = csv::parse_server_usage(&text).unwrap();
        prop_assert_eq!(parsed.len(), usage.len());
        for (a, b) in parsed.iter().zip(&usage) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.machine, b.machine);
            // Centipercent write precision.
            prop_assert!((a.util.cpu.fraction() - b.util.cpu.fraction()).abs() < 1e-4);
            prop_assert!((a.util.mem.fraction() - b.util.mem.fraction()).abs() < 1e-4);
            prop_assert!((a.util.disk.fraction() - b.util.disk.fraction()).abs() < 1e-4);
        }
    }
}

/// Every WAL record variant, built from a selector plus extreme-leaning
/// field values. `f64` fields go through `to_bits`/`from_bits`, so the
/// strategy mixes ordinary fractions with subnormals and infinities
/// (NaN is pinned separately — `PartialEq` can't witness it).
fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    (
        0u8..6,
        0u32..1_000,
        -86_400i64..86_400,
        0i64..5_000,
        0.0f64..1.0,
        0u32..8,
    )
        .prop_map(|(kind, id, t, dur, frac, e)| {
            let machine = MachineId::new(id % 64);
            let job = JobId::new(id);
            let task = TaskId::new(1 + (e % 4));
            // Exercise the full f64 wire width, not just [0, 1].
            let weird = match e % 4 {
                0 => frac,
                1 => frac * f64::MIN_POSITIVE, // subnormal after the multiply
                2 => f64::INFINITY,
                _ => -frac * 1e300,
            };
            match kind {
                0 => WalRecord::Usage(ServerUsageRecord {
                    time: Timestamp::new(t),
                    machine,
                    util: UtilizationTriple::clamped(frac, frac * 0.5, frac * 0.25),
                }),
                1 => WalRecord::Instance(BatchInstanceRecord {
                    start_time: Timestamp::new(t),
                    end_time: Timestamp::new(t + dur),
                    job,
                    task,
                    seq: e,
                    total: e + 1,
                    machine,
                    status: match e % 5 {
                        0 => TaskStatus::Waiting,
                        1 => TaskStatus::Running,
                        2 => TaskStatus::Terminated,
                        3 => TaskStatus::Failed,
                        _ => TaskStatus::Cancelled,
                    },
                    cpu_avg: weird,
                    cpu_max: frac,
                    mem_avg: -0.0,
                    mem_max: weird,
                }),
                2 => WalRecord::InstanceStarted {
                    job,
                    task,
                    seq: e,
                    machine,
                    at: Timestamp::new(t),
                },
                3 => WalRecord::InstanceFinished {
                    job,
                    task,
                    seq: e,
                    at: Timestamp::new(t),
                },
                4 => WalRecord::MachineEvent(MachineEventRecord {
                    time: Timestamp::new(t),
                    machine,
                    event: match e % 4 {
                        0 => MachineEvent::Add,
                        1 => MachineEvent::SoftError,
                        2 => MachineEvent::HardError,
                        _ => MachineEvent::Remove,
                    },
                    capacity_cpu: weird,
                    capacity_mem: frac,
                    capacity_disk: frac * 2.0,
                }),
                // Tag 6: no monitor writes it any more, but logs written
                // before alert cursors hold it and must still decode.
                _ => WalRecord::AlertsDrained,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every record type round-trips bit-exactly through the payload codec.
    #[test]
    fn wal_payload_round_trips(rec in wal_record_strategy()) {
        let payload = rec.encode_payload();
        let decoded = WalRecord::decode_payload(&payload);
        prop_assert_eq!(decoded.as_ref(), Some(&rec));
        // And through full frames at arbitrary sequence numbers: the frame
        // is header ‖ payload, so the payload slice must round-trip the
        // same way after framing.
        let frame = wal::encode_frame(u64::MAX - 7, &rec);
        prop_assert_eq!(frame.len(), wal::FRAME_HEADER_BYTES + payload.len());
        prop_assert_eq!(&frame[wal::FRAME_HEADER_BYTES..], payload.as_slice());
    }

    /// Flipping any single bit of an encoded frame is always detected:
    /// either the CRC mismatches, the framing fails, or — for a flip in the
    /// length field — the frame no longer parses at its claimed size. A
    /// corrupted frame never silently decodes to a *different* record.
    #[test]
    fn wal_single_bit_corruption_always_detected(
        rec in wal_record_strategy(),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let seq = 42u64;
        let mut frame = wal::encode_frame(seq, &rec);
        let idx = ((byte_frac * frame.len() as f64) as usize).min(frame.len() - 1);
        frame[idx] ^= 1 << bit;

        // Re-run the reader's validation chain on the corrupted frame.
        let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        let valid = len > 0
            && len <= wal::MAX_PAYLOAD_BYTES as usize
            && frame.len() == wal::FRAME_HEADER_BYTES + len
            && {
                let stored = u32::from_le_bytes(frame[12..16].try_into().unwrap());
                let mut crc = wal::Crc32::new();
                crc.update(&frame[0..12]);
                crc.update(&frame[wal::FRAME_HEADER_BYTES..]);
                crc.finish() == stored
            }
            && WalRecord::decode_payload(&frame[wal::FRAME_HEADER_BYTES..])
                .is_some_and(|d| d == rec);
        prop_assert!(
            !valid,
            "bit {} of byte {} flipped yet the frame still validated",
            bit,
            idx
        );
    }
}

/// `f64` payload fields survive the wire bit-for-bit — including NaN, which
/// `PartialEq` can't see, so this pins the bits directly.
#[test]
fn wal_f64_fields_are_bit_exact() {
    let nan = f64::from_bits(0x7ff8_0000_dead_beef);
    let rec = WalRecord::Instance(BatchInstanceRecord {
        start_time: Timestamp::new(-1),
        end_time: Timestamp::new(i64::MAX),
        job: JobId::new(u32::MAX),
        task: TaskId::new(0),
        seq: u32::MAX,
        total: u32::MAX,
        machine: MachineId::new(u32::MAX),
        status: TaskStatus::Failed,
        cpu_avg: nan,
        cpu_max: f64::NEG_INFINITY,
        mem_avg: -0.0,
        mem_max: f64::MIN_POSITIVE / 4.0, // subnormal
    });
    let decoded = WalRecord::decode_payload(&rec.encode_payload()).expect("decodes");
    let WalRecord::Instance(d) = decoded else {
        panic!("wrong variant");
    };
    assert_eq!(d.cpu_avg.to_bits(), nan.to_bits(), "NaN payload preserved");
    assert_eq!(d.cpu_max.to_bits(), f64::NEG_INFINITY.to_bits());
    assert_eq!(d.mem_avg.to_bits(), (-0.0f64).to_bits(), "signed zero");
    assert_eq!(d.mem_max.to_bits(), (f64::MIN_POSITIVE / 4.0).to_bits());
    assert_eq!(d.start_time, Timestamp::new(-1));
    assert_eq!(d.end_time, Timestamp::new(i64::MAX));
}

/// Truncating a frame at every possible byte boundary is detected as torn
/// (never a decode to a wrong record), exhaustively for one of each tag.
#[test]
fn wal_truncation_detected_at_every_boundary() {
    let records = [
        WalRecord::Usage(ServerUsageRecord {
            time: Timestamp::new(9),
            machine: MachineId::new(3),
            util: UtilizationTriple::clamped(0.5, 0.25, 0.125),
        }),
        WalRecord::InstanceStarted {
            job: JobId::new(1),
            task: TaskId::new(2),
            seq: 3,
            machine: MachineId::new(4),
            at: Timestamp::new(5),
        },
        WalRecord::AlertsDrained,
    ];
    for rec in &records {
        let payload = rec.encode_payload();
        for cut in 0..payload.len() {
            assert_eq!(
                WalRecord::decode_payload(&payload[..cut]),
                None,
                "truncated payload must not decode"
            );
        }
        // Payloads are length-delimited by the frame header, so a payload
        // with trailing garbage must be rejected too (exhaustion check).
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(WalRecord::decode_payload(&padded), None);
    }
}

/// A simulated dataset survives a full CSV round-trip with identical stats.
#[test]
fn simulated_dataset_round_trips() {
    use batchlens::sim::{SimConfig, Simulation};
    use batchlens::trace::stats::DatasetStats;
    use batchlens::trace::{Metric, TraceDatasetBuilder};

    let ds = Simulation::new(SimConfig::small(314)).run().unwrap();
    let before = DatasetStats::compute(&ds);

    let tasks: Vec<_> = ds.task_records().copied().collect();
    let instances = ds.instance_records().to_vec();
    let usage: Vec<ServerUsageRecord> = ds
        .machines()
        .flat_map(|m| {
            let times = m
                .usage(Metric::Cpu)
                .map(|s| s.times().to_vec())
                .unwrap_or_default();
            times.into_iter().filter_map(move |t| {
                m.util_at(t).map(|util| ServerUsageRecord {
                    time: t,
                    machine: m.id(),
                    util,
                })
            })
        })
        .collect();
    let events = ds.machine_events().to_vec();

    let task_text = csv::write_batch_tasks(&tasks);
    let inst_text = csv::write_batch_instances(&instances);
    let usage_text = csv::write_server_usage(&usage);
    let event_text = csv::write_machine_events(&events);

    let mut b = TraceDatasetBuilder::new();
    b.extend_tables(
        csv::parse_batch_tasks(&task_text).unwrap(),
        csv::parse_batch_instances(&inst_text).unwrap(),
        csv::parse_server_usage(&usage_text).unwrap(),
        csv::parse_machine_events(&event_text).unwrap(),
    );
    let rebuilt = b.build().unwrap();
    let after = DatasetStats::compute(&rebuilt);

    assert_eq!(before.jobs, after.jobs);
    assert_eq!(before.tasks, after.tasks);
    assert_eq!(before.instances, after.instances);
    assert_eq!(before.machines, after.machines);
}
