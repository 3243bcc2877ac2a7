//! Multi-session state over one shared [`BatchLens`].
//!
//! The manager multiplexes N independent dashboard sessions over a single
//! lens (batch or live-monitor-attached). Each session owns its own
//! [`ViewState`] and [`SessionLog`] — what the user is looking at — plus a
//! non-destructive [`AlertCursor`] over the attached monitor's retained
//! alert buffer. Everything derived from the *data* is shared through the
//! lens: renders and frame queries go through exactly one
//! [`BatchLens::frame_at`] capture per request, so concurrent sessions
//! viewing the same instant of the same source state share one immutable
//! frame (see the frame-cache sharing rule on [`BatchLens::frame_at`]), and
//! renders draw on the lens's timeline strip for their viewport, prepared
//! once and shared ([`BatchLens::timeline_strip`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use batchlens::interaction::{reduce, Event};
use batchlens::render::ascii::AsciiCanvas;
use batchlens::render::dashboard::Dashboard;
use batchlens::render::svg::to_svg;
use batchlens::render::Scene;
use batchlens::stream::Alert;
use batchlens::{BatchLens, SessionLog, ViewState};
use batchlens_trace::{JobId, MachineId, QueryFrame, TimeRange, Timestamp};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cursor::AlertCursor;

/// Failpoint site evaluated before every real frame capture — arming it
/// simulates a failing or slow frame source (see `capture_frame`).
pub const FAILPOINT_CAPTURE: &str = "serve.capture";

/// A request referenced a session the manager does not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSession(
    /// The session id the request named.
    pub u64,
);

impl std::fmt::Display for UnknownSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown session {}", self.0)
    }
}

impl std::error::Error for UnknownSession {}

/// Why a frame-backed request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The request named a session the manager does not hold.
    Unknown(u64),
    /// The frame source failed and the session holds no last good frame
    /// to degrade to — the request maps to `503`.
    Unavailable,
}

impl From<UnknownSession> for SessionError {
    fn from(e: UnknownSession) -> SessionError {
        SessionError::Unknown(e.0)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Unknown(id) => write!(f, "unknown session {id}"),
            SessionError::Unavailable => write!(f, "frame source unavailable"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Robustness knobs for [`SessionManager`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Sessions idle longer than this are evicted by the opportunistic
    /// sweep (on creates and `/statsz` snapshots). `None` disables
    /// eviction.
    pub idle_ttl: Option<Duration>,
    /// A frame capture taking longer than this flips the manager into
    /// degraded mode (serve-last-good). `None` disables the budget.
    pub frame_budget: Option<Duration>,
    /// In degraded mode, every `probe_every`-th frame request attempts a
    /// real capture; a success within budget leaves degraded mode.
    /// Clamped to at least 1.
    pub probe_every: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            idle_ttl: Some(Duration::from_secs(600)),
            frame_budget: None,
            probe_every: 8,
        }
    }
}

/// One dashboard session's private state.
#[derive(Debug)]
struct Session {
    view: ViewState,
    log: SessionLog,
    cursor: AlertCursor,
    requests: u64,
    /// The most recent successful capture — what degraded mode serves.
    last_frame: Option<Arc<QueryFrame>>,
    /// When the session last served a request (eviction clock).
    last_used: Instant,
}

/// The response body of session creation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCreated {
    /// The new session's id.
    pub session: u64,
    /// The session's initial snapshot timestamp.
    pub at: Timestamp,
    /// The view extent (the dataset span).
    pub extent: TimeRange,
    /// The alert sequence number the session's cursor starts at.
    pub cursor: u64,
}

/// The view state summary returned by interaction requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ViewSummary {
    /// The session id.
    pub session: u64,
    /// Whether the event changed the view.
    pub changed: bool,
    /// The selected snapshot timestamp.
    pub at: Timestamp,
    /// The selected job, when one is selected.
    pub selected_job: Option<JobId>,
    /// The hovered machine, when one is hovered.
    pub hovered_machine: Option<MachineId>,
    /// The active brush window, when one is set.
    pub brush: Option<TimeRange>,
    /// Jobs pinned into the detail sidebar.
    pub pinned: Vec<JobId>,
    /// Whether the anomaly overlay is on.
    pub anomalies: bool,
    /// Events recorded in this session's log so far.
    pub events: usize,
}

/// One transactional frame capture, summarized as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrameInfo {
    /// The session id.
    pub session: u64,
    /// The instant the frame captures.
    pub at: Timestamp,
    /// The source state version the frame saw (0 = batch dataset).
    pub version: u64,
    /// Jobs with at least one running instance, ascending.
    pub jobs_running: Vec<JobId>,
    /// Running `(job, task, machine)` placements, as a count.
    pub running_instances: usize,
    /// Machines alive at the instant, ascending.
    pub machines_active: Vec<MachineId>,
    /// All machines the source knows, as a count.
    pub machines_known: usize,
    /// Mean CPU utilization across machines with a sample (when any).
    pub mean_cpu: Option<f64>,
    /// Mean memory utilization across machines with a sample (when any).
    pub mean_mem: Option<f64>,
    /// Whether this is a *last good* frame served in degraded mode rather
    /// than a fresh capture (mirrored by the `x-batchlens-stale` response
    /// header).
    pub stale: bool,
}

/// The response body of an alert poll.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertsPayload {
    /// The session id.
    pub session: u64,
    /// Whether the lens has a live monitor attached at all.
    pub live: bool,
    /// Newly observed alerts, in firing order.
    pub alerts: Vec<Alert>,
    /// The cursor position after this poll.
    pub next_seq: u64,
    /// Alerts evicted before this poll could read them (this poll only).
    pub missed: u64,
    /// Alerts delivered through this session's cursor, in total.
    pub delivered_total: u64,
    /// Alerts this session's cursor missed, in total.
    pub missed_total: u64,
}

/// Per-session observability for `/statsz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStats {
    /// The session id.
    pub id: u64,
    /// Requests this session has served.
    pub requests: u64,
    /// The session's alert cursor position.
    pub cursor: u64,
    /// Alerts the session's cursor missed in total.
    pub missed: u64,
}

/// Multiplexes dashboard sessions over one shared [`BatchLens`].
///
/// Thread-safe by construction: the session table is a mutex over
/// per-session mutexes, so requests for *different* sessions run
/// concurrently (sharing frame captures through the lens cache) while two
/// requests for the *same* session serialize — a session is one dashboard,
/// and its view must not interleave mid-request.
#[derive(Debug)]
pub struct SessionManager {
    lens: Arc<BatchLens>,
    cfg: SessionConfig,
    sessions: Mutex<BTreeMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    /// Serving last-good frames instead of capturing (see `capture_frame`).
    degraded: AtomicBool,
    /// Frame requests answered while degraded, for probe scheduling.
    degraded_requests: AtomicU64,
    /// Stale (last good) frames served, in total.
    stale_served: AtomicU64,
    /// Idle sessions evicted, in total.
    evicted: AtomicU64,
}

impl SessionManager {
    /// A manager over `lens` with default [`SessionConfig`]. The lens is
    /// never mutated — sessions carry their own view state and only use
    /// the lens's shared query/render surface.
    pub fn new(lens: Arc<BatchLens>) -> SessionManager {
        SessionManager::with_config(lens, SessionConfig::default())
    }

    /// A manager over `lens` with explicit robustness knobs.
    pub fn with_config(lens: Arc<BatchLens>, cfg: SessionConfig) -> SessionManager {
        SessionManager {
            lens,
            cfg,
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            degraded: AtomicBool::new(false),
            degraded_requests: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The shared lens.
    pub fn lens(&self) -> &Arc<BatchLens> {
        &self.lens
    }

    /// Whether the manager is in degraded mode: the last capture failed
    /// or blew its budget, and frame requests are served the session's
    /// last good frame (tagged stale) until a probe capture succeeds.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Stale (last good) frames served instead of fresh captures, total.
    pub fn stale_served_total(&self) -> u64 {
        self.stale_served.load(Ordering::Relaxed)
    }

    /// Idle sessions evicted by the TTL sweep, total.
    pub fn evicted_total(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Evicts sessions idle past the configured TTL, returning how many
    /// were removed. Runs opportunistically on session creation and
    /// `/statsz` snapshots — no background thread. A session whose lock is
    /// held (a request in flight) is never evicted.
    pub fn evict_idle(&self) -> usize {
        let Some(ttl) = self.cfg.idle_ttl else {
            return 0;
        };
        let mut table = self.sessions.lock();
        let before = table.len();
        table.retain(|_, slot| match slot.try_lock() {
            Some(session) => session.last_used.elapsed() <= ttl,
            None => true,
        });
        let evicted = before - table.len();
        if evicted > 0 {
            self.evicted.fetch_add(evicted as u64, Ordering::Relaxed);
        }
        evicted
    }

    /// Creates a session. Its view starts at the lens's extent defaults;
    /// its alert cursor starts at the **current** alert sequence, so a new
    /// dashboard only observes alerts fired after it connected.
    pub fn create(&self) -> SessionCreated {
        self.evict_idle();
        let extent = self.lens.view().extent();
        let cursor_start = self.lens.live_monitor().map_or(0, |m| m.next_alert_seq());
        let view = ViewState::new(extent);
        let at = view.selected_timestamp();
        let session = Session {
            view,
            log: SessionLog::new(extent),
            cursor: AlertCursor::at(cursor_start),
            requests: 0,
            last_frame: None,
            last_used: Instant::now(),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .lock()
            .insert(id, Arc::new(Mutex::new(session)));
        SessionCreated {
            session: id,
            at,
            extent,
            cursor: cursor_start,
        }
    }

    /// Removes a session; `false` when it did not exist.
    pub fn remove(&self, id: u64) -> bool {
        self.sessions.lock().remove(&id).is_some()
    }

    /// The number of sessions currently held.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Whether no sessions are held.
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().is_empty()
    }

    /// Runs `f` on session `id`, holding only that session's lock.
    fn with_session<R>(
        &self,
        id: u64,
        f: impl FnOnce(&mut Session) -> R,
    ) -> Result<R, UnknownSession> {
        let slot = self
            .sessions
            .lock()
            .get(&id)
            .cloned()
            .ok_or(UnknownSession(id))?;
        let mut session = slot.lock();
        session.requests += 1;
        session.last_used = Instant::now();
        Ok(f(&mut session))
    }

    /// The degraded-mode frame path: every frame-backed request funnels
    /// through here instead of calling [`BatchLens::frame_at`] directly.
    ///
    /// * Healthy: capture, remember it as the session's last good frame,
    ///   return it fresh. A capture that panics or reports a source fault
    ///   (the [`FAILPOINT_CAPTURE`] site) flips the manager degraded; a
    ///   capture exceeding [`SessionConfig::frame_budget`] does too (but
    ///   its frame, already paid for, is still returned fresh).
    /// * Degraded: serve the session's last good frame tagged stale
    ///   *without* capturing — except every
    ///   [`SessionConfig::probe_every`]-th request, which attempts a real
    ///   capture and, on an in-budget success, restores healthy mode.
    /// * `None` (→ `503`) only when the source fails and the session has
    ///   no last good frame to fall back on.
    fn capture_frame(&self, session: &mut Session) -> Option<(Arc<QueryFrame>, bool)> {
        let at = session.view.selected_timestamp();
        if self.degraded.load(Ordering::Relaxed) {
            let nth = self.degraded_requests.fetch_add(1, Ordering::Relaxed);
            let probe = nth.is_multiple_of(self.cfg.probe_every.max(1));
            if !probe {
                if let Some(frame) = &session.last_frame {
                    self.stale_served.fetch_add(1, Ordering::Relaxed);
                    return Some((Arc::clone(frame), true));
                }
                // No last good frame to serve: attempt a capture anyway.
            }
        }
        let start = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            if batchlens_fault::fire(FAILPOINT_CAPTURE).is_some() {
                return None;
            }
            Some(self.lens.frame_at(at))
        }));
        match attempt {
            Ok(Some(frame)) => {
                let over_budget = self.cfg.frame_budget.is_some_and(|b| start.elapsed() > b);
                self.degraded.store(over_budget, Ordering::Relaxed);
                session.last_frame = Some(Arc::clone(&frame));
                Some((frame, false))
            }
            // Source fault or a panic inside the capture: degrade.
            Ok(None) | Err(_) => {
                self.degraded.store(true, Ordering::Relaxed);
                let frame = session.last_frame.as_ref()?;
                self.stale_served.fetch_add(1, Ordering::Relaxed);
                Some((Arc::clone(frame), true))
            }
        }
    }

    /// Session `s`'s dashboard of `frame` at `width`×`height`, drawn on the
    /// lens's prepared timeline strip for that viewport.
    fn dashboard(&self, s: &Session, frame: &QueryFrame, width: f64, height: f64) -> Scene {
        let dashboard = Dashboard::new(width, height).detail_metric(s.view.detail_metric());
        let strip = self.lens.timeline_strip(dashboard.timeline_view());
        dashboard.render_from_frame_with_strip(frame, &strip)
    }

    /// Applies an interaction event to session `id`'s view, recording it
    /// in the session's log.
    ///
    /// # Errors
    ///
    /// [`UnknownSession`] when `id` does not exist.
    pub fn interact(&self, id: u64, event: Event) -> Result<ViewSummary, UnknownSession> {
        self.with_session(id, |s| {
            s.log.record(event);
            let changed = reduce(&mut s.view, event);
            ViewSummary {
                session: id,
                changed,
                at: s.view.selected_timestamp(),
                selected_job: s.view.selected_job(),
                hovered_machine: s.view.hovered_machine(),
                brush: s.view.brush(),
                pinned: s.view.pinned_jobs().to_vec(),
                anomalies: s.view.show_anomalies(),
                events: s.log.len(),
            }
        })
    }

    /// Summarizes the one transactional frame at session `id`'s selected
    /// instant — the JSON face of [`BatchLens::frame_at`], shared across
    /// sessions by the frame cache. In degraded mode the session's last
    /// good frame is summarized instead, with `stale: true`.
    ///
    /// # Errors
    ///
    /// [`SessionError::Unknown`] when `id` does not exist;
    /// [`SessionError::Unavailable`] when the source fails and the session
    /// has no last good frame.
    pub fn frame_info(&self, id: u64) -> Result<FrameInfo, SessionError> {
        self.with_session(id, |s| {
            let (frame, stale) = self.capture_frame(s).ok_or(SessionError::Unavailable)?;
            let mean = frame.mean_utilization();
            Ok(FrameInfo {
                session: id,
                at: frame.at(),
                version: frame.version(),
                jobs_running: frame.jobs_running(),
                running_instances: frame.running_instance_count(),
                machines_active: frame.machines_active(),
                machines_known: frame.machine_ids().len(),
                mean_cpu: mean.map(|u| u.cpu.fraction()),
                mean_mem: mean.map(|u| u.mem.fraction()),
                stale,
            })
        })?
    }

    /// Renders session `id`'s dashboard as SVG — through exactly one
    /// [`BatchLens::frame_at`] capture, on the lens's shared timeline strip
    /// for the viewport. The `bool` is the staleness flag: `true` when
    /// degraded mode rendered the last good frame.
    ///
    /// # Errors
    ///
    /// See [`SessionManager::frame_info`].
    pub fn render_svg(
        &self,
        id: u64,
        width: f64,
        height: f64,
    ) -> Result<(String, bool), SessionError> {
        self.with_session(id, |s| {
            let (frame, stale) = self.capture_frame(s).ok_or(SessionError::Unavailable)?;
            let scene = self.dashboard(s, &frame, width, height);
            Ok((to_svg(&scene), stale))
        })?
    }

    /// Renders session `id`'s dashboard as ascii art — same single-frame
    /// path as [`SessionManager::render_svg`], rasterized to `cols`×`rows`.
    ///
    /// # Errors
    ///
    /// See [`SessionManager::frame_info`].
    pub fn render_ascii(
        &self,
        id: u64,
        cols: usize,
        rows: usize,
    ) -> Result<(String, bool), SessionError> {
        self.with_session(id, |s| {
            let (frame, stale) = self.capture_frame(s).ok_or(SessionError::Unavailable)?;
            let scene = self.dashboard(s, &frame, 4.0 * cols as f64, 8.0 * rows as f64);
            Ok((AsciiCanvas::render(&scene, cols, rows).to_text(), stale))
        })?
    }

    /// Polls session `id`'s alert cursor against the attached monitor.
    /// Without a live monitor the poll is empty with `live == false`.
    ///
    /// # Errors
    ///
    /// [`UnknownSession`] when `id` does not exist.
    pub fn poll_alerts(&self, id: u64) -> Result<AlertsPayload, UnknownSession> {
        self.with_session(id, |s| match self.lens.live_monitor() {
            Some(monitor) => {
                let batch = s.cursor.poll(monitor);
                AlertsPayload {
                    session: id,
                    live: true,
                    next_seq: batch.next_seq,
                    missed: batch.missed,
                    alerts: batch.alerts,
                    delivered_total: s.cursor.delivered(),
                    missed_total: s.cursor.missed(),
                }
            }
            None => AlertsPayload {
                session: id,
                live: false,
                alerts: Vec::new(),
                next_seq: s.cursor.position(),
                missed: 0,
                delivered_total: s.cursor.delivered(),
                missed_total: s.cursor.missed(),
            },
        })
    }

    /// Per-session observability rows for `/statsz`, ascending by id.
    /// Doubles as the idle-eviction sweep point: `/statsz` is the endpoint
    /// production pollers hit periodically.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.evict_idle();
        let slots: Vec<(u64, Arc<Mutex<Session>>)> = self
            .sessions
            .lock()
            .iter()
            .map(|(id, slot)| (*id, Arc::clone(slot)))
            .collect();
        slots
            .into_iter()
            .map(|(id, slot)| {
                let s = slot.lock();
                SessionStats {
                    id,
                    requests: s.requests,
                    cursor: s.cursor.position(),
                    missed: s.cursor.missed(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens_sim::scenario;

    fn manager() -> SessionManager {
        let ds = scenario::fig3b(11).run().unwrap();
        SessionManager::new(Arc::new(BatchLens::new(ds)))
    }

    #[test]
    fn sessions_are_independent() {
        let m = manager();
        let a = m.create().session;
        let b = m.create().session;
        assert_ne!(a, b);
        m.interact(a, Event::SelectTimestamp(scenario::T_FIG3B))
            .unwrap();
        let fa = m.frame_info(a).unwrap();
        let fb = m.frame_info(b).unwrap();
        assert_eq!(fa.at, scenario::T_FIG3B);
        assert_ne!(fa.at, fb.at, "b's view is untouched by a's interaction");
        assert!(m.remove(b));
        assert!(!m.remove(b));
        assert_eq!(m.frame_info(b), Err(SessionError::Unknown(b)));
    }

    #[test]
    fn same_instant_sessions_share_one_capture() {
        let m = manager();
        let a = m.create().session;
        let b = m.create().session;
        for id in [a, b] {
            m.interact(id, Event::SelectTimestamp(scenario::T_FIG3B))
                .unwrap();
        }
        let before = m.lens().frame_cache_stats();
        let fa = m.frame_info(a).unwrap();
        let fb = m.frame_info(b).unwrap();
        assert_eq!(fa.version, fb.version);
        assert_eq!(fa.jobs_running, fb.jobs_running);
        let after = m.lens().frame_cache_stats();
        assert_eq!(
            after.1 - before.1,
            1,
            "two sessions at one instant: exactly one capture"
        );
        assert!(after.0 > before.0, "the second request hit the cache");
    }

    #[test]
    fn renders_are_frame_driven() {
        let m = manager();
        let id = m.create().session;
        m.interact(id, Event::SelectTimestamp(scenario::T_FIG3B))
            .unwrap();
        let (svg, stale) = m.render_svg(id, 800.0, 600.0).unwrap();
        assert!(svg.contains("<svg"));
        assert!(svg.contains("<circle"), "bubbles render from the frame");
        assert!(!stale);
        let (ascii, _) = m.render_ascii(id, 100, 30).unwrap();
        assert_eq!(ascii.lines().count(), 30);
    }

    #[test]
    fn idle_sessions_are_evicted_after_the_ttl() {
        let ds = scenario::fig3b(11).run().unwrap();
        let m = SessionManager::with_config(
            Arc::new(BatchLens::new(ds)),
            SessionConfig {
                idle_ttl: Some(Duration::from_millis(0)),
                ..SessionConfig::default()
            },
        );
        let a = m.create().session;
        std::thread::sleep(Duration::from_millis(5));
        // The sweep runs on create: the next create evicts the idle `a`.
        let b = m.create().session;
        assert_eq!(m.frame_info(a), Err(SessionError::Unknown(a)));
        assert_eq!(m.evicted_total(), 1);
        // session_stats sweeps too.
        std::thread::sleep(Duration::from_millis(5));
        assert!(m.session_stats().is_empty());
        assert_eq!(m.evicted_total(), 2);
        assert_eq!(m.frame_info(b), Err(SessionError::Unknown(b)));
    }

    #[test]
    fn capture_faults_degrade_to_the_last_good_frame() {
        let _g = batchlens_fault::test_guard();
        let m = manager();
        let id = m.create().session;
        let fresh = m.frame_info(id).unwrap();
        assert!(!fresh.stale);
        assert!(!m.degraded());

        // Source starts failing: the session serves its last good frame,
        // tagged stale, and the manager reports degraded.
        batchlens_fault::arm(
            FAILPOINT_CAPTURE,
            batchlens_fault::FaultSpec::new(
                batchlens_fault::Fault::Error,
                batchlens_fault::Trigger::Always,
            ),
        );
        let stale = m.frame_info(id).unwrap();
        assert!(stale.stale);
        assert_eq!(stale.version, fresh.version);
        assert_eq!(stale.jobs_running, fresh.jobs_running);
        assert!(m.degraded());
        assert!(m.stale_served_total() >= 1);
        let (_, render_stale) = m.render_ascii(id, 40, 10).unwrap();
        assert!(render_stale);

        // A brand-new session has no last good frame: 503.
        let empty = m.create().session;
        assert_eq!(m.frame_info(empty), Err(SessionError::Unavailable));

        // Source recovers: the next probe capture restores healthy mode.
        batchlens_fault::disarm_all();
        let mut recovered = false;
        for _ in 0..SessionConfig::default().probe_every + 1 {
            if !m.frame_info(id).unwrap().stale {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "probe capture must leave degraded mode");
        assert!(!m.degraded());
    }

    #[test]
    fn capture_panics_are_caught_and_degrade() {
        let _g = batchlens_fault::test_guard();
        let m = manager();
        let id = m.create().session;
        m.frame_info(id).unwrap();
        batchlens_fault::arm(
            FAILPOINT_CAPTURE,
            batchlens_fault::FaultSpec::new(
                batchlens_fault::Fault::Panic,
                batchlens_fault::Trigger::Times(1),
            ),
        );
        let served = m.frame_info(id).unwrap();
        assert!(served.stale, "panic inside capture degrades, not crashes");
        assert!(m.degraded());
    }

    #[test]
    fn batch_lens_alert_poll_is_empty_but_well_formed() {
        let m = manager();
        let id = m.create().session;
        let poll = m.poll_alerts(id).unwrap();
        assert!(!poll.live);
        assert!(poll.alerts.is_empty());
        let stats = m.session_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].requests, 1);
    }
}
