//! Per-session alert cursors over a [`StreamMonitor`]'s retained alert
//! buffer.

use batchlens::stream::{AlertBatch, StreamMonitor};

/// A non-destructive, independently positioned cursor over the alert
/// sequence of one [`StreamMonitor`].
///
/// # Contract
///
/// * **Non-destructive.** Polling never consumes from the monitor: it
///   reads via [`StreamMonitor::alerts_since`], so any number of cursors
///   (and a separate draining consumer) coexist without stealing each
///   other's alerts.
/// * **Exactly-once per cursor.** The cursor remembers the next sequence
///   number it has not yet seen and advances it to the batch's
///   `next_seq` on every poll: each alert the monitor ever retains is
///   delivered to each cursor at most once, and exactly once while the
///   cursor keeps up with the retention capacity.
/// * **Independently positioned.** Two cursors over the same monitor
///   advance separately; a fast poller and a slow poller each see the
///   full sequence from their own position.
/// * **Gaps are observed, never silent.** A cursor that lags behind the
///   monitor's bounded retention (alerts evicted by
///   [`StreamMonitor::alerts_overflowed`] before this cursor read them)
///   is told how many alerts it can no longer read: each poll's `missed`
///   count is accumulated into [`AlertCursor::missed`], and the
///   invariant `position() == delivered() + missed() + <start offset>`
///   holds at all times (start offset is 0 for [`AlertCursor::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertCursor {
    /// The first sequence number this cursor has not yet observed.
    next_seq: u64,
    /// Alerts delivered through this cursor so far.
    delivered: u64,
    /// Alerts this cursor can never read: evicted from the bounded
    /// retention buffer before it polled.
    missed: u64,
}

impl AlertCursor {
    /// A cursor positioned at the beginning of the alert sequence: the
    /// first poll delivers the monitor's whole retained buffer (and
    /// reports anything already evicted as missed).
    pub fn new() -> AlertCursor {
        AlertCursor::at(0)
    }

    /// A cursor positioned at sequence number `seq`. Use
    /// `AlertCursor::at(monitor.next_alert_seq())` for a cursor that only
    /// observes alerts fired after its creation.
    pub fn at(seq: u64) -> AlertCursor {
        AlertCursor {
            next_seq: seq,
            delivered: 0,
            missed: 0,
        }
    }

    /// Reads everything retained at or past this cursor's position and
    /// advances past it. Returns the batch exactly as the monitor
    /// reported it (alerts in firing order, `missed` = gap to this
    /// cursor's position).
    pub fn poll(&mut self, monitor: &StreamMonitor) -> AlertBatch {
        let batch = monitor.alerts_since(self.next_seq);
        self.next_seq = batch.next_seq;
        self.delivered += batch.alerts.len() as u64;
        self.missed += batch.missed;
        batch
    }

    /// The next sequence number this cursor will read.
    pub fn position(&self) -> u64 {
        self.next_seq
    }

    /// Total alerts delivered through this cursor.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total alerts this cursor missed (evicted before it polled).
    pub fn missed(&self) -> u64 {
        self.missed
    }
}

impl Default for AlertCursor {
    fn default() -> Self {
        AlertCursor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens::stream::{StreamConfig, StreamMonitor};
    use batchlens_trace::{MachineId, ServerUsageRecord, Timestamp, UtilizationTriple};

    /// Drives the monitor's saturation detector into firing: a run of
    /// fully saturated CPU samples on one machine.
    fn fire_alerts(monitor: &StreamMonitor, machine: u32, t0: i64, n: usize) {
        for k in 0..n {
            monitor.ingest(ServerUsageRecord {
                time: Timestamp::new(t0 + (k as i64) * 60),
                machine: MachineId::new(machine),
                util: UtilizationTriple::clamped(0.95, 0.3, 0.3),
            });
        }
    }

    fn tiny_monitor(capacity: usize) -> StreamMonitor {
        StreamMonitor::new(StreamConfig {
            alert_capacity: capacity,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn two_cursors_advance_independently() {
        let monitor = tiny_monitor(64);
        fire_alerts(&monitor, 1, 0, 30);
        let fired = monitor.next_alert_seq();
        assert!(fired > 0, "scenario must fire alerts");

        let mut fast = AlertCursor::new();
        let mut slow = AlertCursor::new();
        let first = fast.poll(&monitor);
        assert_eq!(first.alerts.len() as u64, fired);
        assert_eq!(fast.position(), fired);
        // Polling again delivers nothing new — exactly-once per cursor.
        assert!(fast.poll(&monitor).alerts.is_empty());
        // The slow cursor still sees everything from its own position.
        let late = slow.poll(&monitor);
        assert_eq!(late.alerts.len() as u64, fired);
        assert_eq!(late.alerts, first.alerts);
        // Sequence numbers are contiguous in a batch.
        for pair in first.alerts.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1);
        }
    }

    #[test]
    fn lagging_cursor_observes_the_gap() {
        let monitor = tiny_monitor(2);
        fire_alerts(&monitor, 1, 0, 40);
        let fired = monitor.next_alert_seq();
        assert!(fired > 2, "must overflow the 2-slot buffer");

        let mut cursor = AlertCursor::new();
        let batch = cursor.poll(&monitor);
        assert_eq!(batch.alerts.len(), 2, "only the retained tail is readable");
        assert_eq!(batch.missed, fired - 2);
        assert_eq!(cursor.missed(), fired - 2);
        assert_eq!(cursor.delivered(), 2);
        // position == delivered + missed (the documented invariant).
        assert_eq!(cursor.position(), cursor.delivered() + cursor.missed());
    }

    #[test]
    fn cursor_at_now_skips_history() {
        let monitor = tiny_monitor(64);
        fire_alerts(&monitor, 1, 0, 30);
        let mut cursor = AlertCursor::at(monitor.next_alert_seq());
        assert!(cursor.poll(&monitor).alerts.is_empty());
        assert_eq!(cursor.missed(), 0);
        // New alerts on another machine are observed from here on.
        fire_alerts(&monitor, 2, 3600, 30);
        let batch = cursor.poll(&monitor);
        assert!(!batch.alerts.is_empty());
        assert_eq!(batch.missed, 0);
    }
}
