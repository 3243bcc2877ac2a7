//! Server observability: the counters behind the `/statsz` endpoint.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use crate::session::{SessionManager, SessionStats};

/// Shared atomic counters the accept loop, workers and router all update.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests served, across all sessions and endpoints.
    total_requests: AtomicU64,
    /// Connections accepted.
    connections: AtomicU64,
    /// Connections currently queued between the accept loop and the
    /// worker pool (the pool's backlog depth).
    queue_depth: AtomicUsize,
    /// Requests rejected with a 4xx status.
    client_errors: AtomicU64,
    /// Connections shed with `503 + Retry-After` because the queue was
    /// full when they arrived.
    connections_shed: AtomicU64,
    /// Request handlers that panicked and were caught (`catch_unwind`).
    worker_panics: AtomicU64,
    /// Responses whose write failed or timed out partway (slow clients).
    write_timeouts: AtomicU64,
    /// Requests that overran the per-request deadline.
    deadlines_exceeded: AtomicU64,
}

impl ServeStats {
    /// A zeroed counter set.
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// Counts one routed request (and its status class).
    pub fn record_request(&self, status: u16) {
        self.total_requests.fetch_add(1, Ordering::Relaxed);
        if (400..500).contains(&status) {
            self.client_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one accepted connection entering the queue.
    pub fn connection_queued(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one connection leaving the queue for a worker.
    pub fn connection_claimed(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one connection shed with `503 + Retry-After`.
    pub fn connection_shed(&self) {
        self.connections_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one caught request-handler panic.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one response write that failed or timed out partway.
    pub fn record_write_timeout(&self) {
        self.write_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that overran its deadline.
    pub fn record_deadline_exceeded(&self) {
        self.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// The current accept-to-worker queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Connections shed so far.
    pub fn connections_shed(&self) -> u64 {
        self.connections_shed.load(Ordering::Relaxed)
    }

    /// Caught handler panics so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Requests served so far.
    pub fn total_requests(&self) -> u64 {
        self.total_requests.load(Ordering::Relaxed)
    }

    /// Builds the `/statsz` payload from these counters plus the session
    /// manager's per-session rows and the lens's frame-cache counters.
    pub fn snapshot(&self, manager: &SessionManager, workers: usize) -> StatszPayload {
        let (frame_hits, frame_misses) = manager.lens().frame_cache_stats();
        let live = manager.lens().live_monitor();
        let total = frame_hits + frame_misses;
        StatszPayload {
            total_requests: self.total_requests.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            write_timeouts: self.write_timeouts.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            degraded: manager.degraded(),
            stale_served: manager.stale_served_total(),
            sessions_evicted: manager.evicted_total(),
            live: live.is_some(),
            wal_healthy: live.is_none_or(|m| m.wal_healthy()),
            wal_errors: live.map_or(0, |m| m.wal_errors()),
            ingested: live.map_or(0, |m| m.ingested()),
            worker_pool: WorkerPoolStats {
                workers,
                queue_depth: self.queue_depth(),
            },
            frame_cache: CacheStats {
                hits: frame_hits,
                misses: frame_misses,
                hit_rate: if total == 0 {
                    0.0
                } else {
                    frame_hits as f64 / total as f64
                },
            },
            sessions: manager.session_stats(),
        }
    }
}

/// Hit/miss counters for one shared cache.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to compute.
    pub misses: u64,
    /// `hits / (hits + misses)`, 0 when empty.
    pub hit_rate: f64,
}

/// Worker-pool observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerPoolStats {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Connections queued waiting for a worker, right now.
    pub queue_depth: usize,
}

/// The `/statsz` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatszPayload {
    /// Requests served, across all sessions and endpoints.
    pub total_requests: u64,
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Requests answered with a 4xx status.
    pub client_errors: u64,
    /// Connections shed with `503 + Retry-After` (queue full on arrival).
    pub connections_shed: u64,
    /// Request-handler panics caught by the worker supervision.
    pub worker_panics: u64,
    /// Response writes that failed or timed out partway.
    pub write_timeouts: u64,
    /// Requests that overran the per-request deadline.
    pub deadlines_exceeded: u64,
    /// Whether frame serving is currently degraded (last-good frames).
    pub degraded: bool,
    /// Stale (last good) frames served instead of fresh captures.
    pub stale_served: u64,
    /// Idle sessions evicted by the TTL sweep.
    pub sessions_evicted: u64,
    /// Whether the lens is backed by a live monitor.
    pub live: bool,
    /// Whether the live monitor's WAL is healthy. `false` as soon as an
    /// append or sync fails — mirrored by `/readyz` going 503. Vacuously
    /// `true` without a live monitor or without a WAL.
    pub wal_healthy: bool,
    /// Failed WAL appends and syncs of the live monitor
    /// ([`batchlens::stream::StreamMonitor::wal_errors`]); 0 without one.
    pub wal_errors: u64,
    /// Usage records the live monitor has ingested, stragglers excluded
    /// ([`batchlens::stream::StreamMonitor::ingested`]); 0 without one.
    pub ingested: u64,
    /// Worker-pool depth observability.
    pub worker_pool: WorkerPoolStats,
    /// The shared frame cache — `hit_rate` is the fraction of frame
    /// requests that shared another request's capture.
    pub frame_cache: CacheStats,
    /// Per-session request counts and cursor positions.
    pub sessions: Vec<SessionStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens::BatchLens;
    use batchlens_sim::scenario;
    use std::sync::Arc;

    #[test]
    fn snapshot_reports_queue_and_cache_state() {
        let ds = scenario::fig3b(12).run().unwrap();
        let manager = SessionManager::new(Arc::new(BatchLens::new(ds)));
        let stats = ServeStats::new();
        stats.connection_queued();
        stats.connection_queued();
        stats.connection_claimed();
        stats.record_request(200);
        stats.record_request(404);
        stats.connection_shed();
        stats.record_worker_panic();
        stats.record_write_timeout();
        stats.record_deadline_exceeded();
        let id = manager.create().session;
        manager.frame_info(id).unwrap();
        manager.frame_info(id).unwrap();
        let payload = stats.snapshot(&manager, 4);
        assert_eq!(payload.total_requests, 2);
        assert_eq!(payload.client_errors, 1);
        assert_eq!(payload.connections, 2);
        assert_eq!(payload.worker_pool.queue_depth, 1);
        assert_eq!(payload.worker_pool.workers, 4);
        assert_eq!(payload.frame_cache.hits, 1);
        assert_eq!(payload.frame_cache.misses, 1);
        assert!((payload.frame_cache.hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(payload.connections_shed, 1);
        assert_eq!(payload.worker_panics, 1);
        assert_eq!(payload.write_timeouts, 1);
        assert_eq!(payload.deadlines_exceeded, 1);
        assert!(!payload.degraded);
        assert_eq!(payload.stale_served, 0);
        assert_eq!(payload.sessions_evicted, 0);
        // A batch lens has no live monitor: both monitor counters are 0.
        assert!(!payload.live);
        assert!(payload.wal_healthy);
        assert_eq!(payload.wal_errors, 0);
        assert_eq!(payload.ingested, 0);
        assert_eq!(payload.sessions.len(), 1);
        assert_eq!(payload.sessions[0].requests, 2);
        // The payload is JSON-serializable end to end.
        let json = serde_json::to_string(&payload).unwrap();
        assert!(json.contains("\"frame_cache\""));
    }
}
