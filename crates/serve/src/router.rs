//! Request routing: the HTTP face of the [`SessionManager`].
//!
//! ## Endpoints
//!
//! | Method   | Path                        | Body / query                         |
//! |----------|-----------------------------|--------------------------------------|
//! | `POST`   | `/sessions`                 | — → [`crate::session::SessionCreated`] |
//! | `DELETE` | `/sessions/{id}`            | —                                    |
//! | `POST`   | `/sessions/{id}/events`     | one [`Event`] as JSON, e.g. `{"SelectTimestamp": 46200}` |
//! | `GET`    | `/sessions/{id}/render`     | `?format=svg\|ascii&width=&height=&cols=&rows=` (`cols`, `rows` ≤ 1000) |
//! | `GET`    | `/sessions/{id}/frame`      | — → [`crate::session::FrameInfo`]    |
//! | `GET`    | `/sessions/{id}/alerts`     | — → [`crate::session::AlertsPayload`] |
//! | `GET`    | `/statsz`                   | — → [`crate::stats::StatszPayload`]  |
//! | `GET`    | `/healthz`                  | — liveness: `200` while the process serves |
//! | `GET`    | `/readyz`                   | — readiness: `200` when the lens answers, the WAL is healthy and serving is not degraded; `503` otherwise |
//!
//! Frame-backed responses served from a last good frame in degraded mode
//! carry an `x-batchlens-stale: true` header (and `FrameInfo.stale`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use batchlens::interaction::Event;

use crate::codec::{Request, Response};
use crate::session::{SessionError, SessionManager, UnknownSession};
use crate::stats::ServeStats;

/// Failpoint site evaluated at the top of request dispatch — arming it
/// injects handler errors, delays, or panics (exercising the
/// `catch_unwind` supervision in [`route`]).
pub const FAILPOINT_ROUTE: &str = "serve.route";

/// The header marking a response rendered from a last good frame.
pub const STALE_HEADER: &str = "x-batchlens-stale";

/// Largest `cols` or `rows` an ASCII render accepts. The canvas allocates
/// `cols × rows` cells, and a failed allocation aborts the whole process
/// (it is not a panic the worker's `catch_unwind` could contain).
const MAX_ASCII_SIDE: usize = 1_000;

/// Everything a routed request may need.
pub struct RouterContext<'a> {
    /// The session multiplexer.
    pub manager: &'a SessionManager,
    /// The shared counters (`/statsz`).
    pub stats: &'a ServeStats,
    /// Worker threads in the pool, for the `/statsz` payload.
    pub workers: usize,
}

fn json_or_500<T: serde::Serialize>(value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::ok_json(body),
        Err(e) => Response::server_error(format!("serialization failed: {e}")),
    }
}

fn session_result<T: serde::Serialize>(result: Result<T, UnknownSession>) -> Response {
    match result {
        Ok(value) => json_or_500(&value),
        Err(e) => Response::not_found(e.to_string()),
    }
}

fn session_error(e: SessionError) -> Response {
    match e {
        SessionError::Unknown(_) => Response::not_found(e.to_string()),
        // Degraded with nothing to degrade to: a retryable 503 that keeps
        // the connection (unlike the shed 503, nothing here is overloaded).
        SessionError::Unavailable => {
            let mut resp = Response::service_unavailable(e.to_string(), 1);
            resp.close = false;
            resp
        }
    }
}

/// Tags a response that served a last good frame (degraded mode).
fn mark_stale(resp: Response, stale: bool) -> Response {
    if stale {
        resp.with_header(STALE_HEADER, "true".to_string())
    } else {
        resp
    }
}

/// Routes one request and records it in the stats counters.
///
/// Dispatch runs under `catch_unwind`: a panicking handler is counted in
/// `/statsz` (`worker_panics`) and answered with a closing `500` instead
/// of unwinding into the worker pool — one bad request must never take
/// down the server.
pub fn route(ctx: &RouterContext<'_>, req: &Request) -> Response {
    let response = catch_unwind(AssertUnwindSafe(|| dispatch(ctx, req))).unwrap_or_else(|_| {
        ctx.stats.record_worker_panic();
        Response::server_error("request handler panicked".to_string()).closing()
    });
    ctx.stats.record_request(response.status);
    response
}

fn dispatch(ctx: &RouterContext<'_>, req: &Request) -> Response {
    if batchlens_fault::fire(FAILPOINT_ROUTE).is_some() {
        return Response::server_error("injected route fault".to_string());
    }
    let segments: Vec<&str> = req.path().split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => Response::ok_text(
            "batchlens-serve: POST /sessions, then interact under /sessions/{id}\n".to_string(),
        ),
        ("GET", ["healthz"]) => Response::ok_text("ok\n".to_string()),
        ("GET", ["readyz"]) => readyz(ctx),
        ("GET", ["statsz"]) => json_or_500(&ctx.stats.snapshot(ctx.manager, ctx.workers)),
        ("POST", ["sessions"]) => json_or_500(&ctx.manager.create()),
        (method, ["sessions"]) if method != "POST" => Response::method_not_allowed(),
        ("DELETE", ["sessions", id]) => match parse_id(id) {
            Some(id) if ctx.manager.remove(id) => {
                Response::ok_json(format!("{{\"removed\":{id}}}"))
            }
            Some(id) => Response::not_found(UnknownSession(id).to_string()),
            None => Response::bad_request(format!("bad session id: {id}")),
        },
        ("POST", ["sessions", id, "events"]) => with_id(id, |id| {
            match serde_json::from_str::<Event>(std::str::from_utf8(&req.body).unwrap_or("")) {
                Ok(event) => session_result(ctx.manager.interact(id, event)),
                Err(e) => Response::bad_request(format!("bad event: {e}")),
            }
        }),
        ("GET", ["sessions", id, "frame"]) => with_id(id, |id| match ctx.manager.frame_info(id) {
            Ok(info) => {
                let stale = info.stale;
                mark_stale(json_or_500(&info), stale)
            }
            Err(e) => session_error(e),
        }),
        ("GET", ["sessions", id, "alerts"]) => {
            with_id(id, |id| session_result(ctx.manager.poll_alerts(id)))
        }
        ("GET", ["sessions", id, "render"]) => with_id(id, |id| render(ctx, req, id)),
        _ => Response::not_found(format!("no route for {} {}", req.method, req.path())),
    }
}

/// Readiness: the lens answers a probe query, the attached monitor's WAL
/// (when any) has taken no IO errors, and frame serving is not degraded.
/// Not ready maps to a keep-alive `503` so orchestrators stop routing new
/// traffic without tearing down probes.
fn readyz(ctx: &RouterContext<'_>) -> Response {
    let lens = ctx.manager.lens();
    let responsive = catch_unwind(AssertUnwindSafe(|| {
        let _ = lens.view().extent();
    }))
    .is_ok();
    // A failed append leaves a gap in the log that recovery cannot
    // reproduce, so a WAL with any errors keeps readiness off.
    let wal_healthy = lens.live_monitor().is_none_or(|m| m.wal_healthy());
    let degraded = ctx.manager.degraded();
    let ready = responsive && wal_healthy && !degraded;
    let body = format!(
        "{{\"ready\":{ready},\"lens_responsive\":{responsive},\"wal_healthy\":{wal_healthy},\"degraded\":{degraded}}}"
    );
    if ready {
        Response::ok_json(body)
    } else {
        let mut resp = Response::service_unavailable(body, 1);
        resp.close = false;
        resp.content_type = "application/json";
        resp
    }
}

fn render(ctx: &RouterContext<'_>, req: &Request, id: u64) -> Response {
    match req.query_param("format").unwrap_or("svg") {
        "svg" => {
            let width = num_param(req, "width", 1200.0);
            let height = num_param(req, "height", 800.0);
            match ctx.manager.render_svg(id, width, height) {
                Ok((svg, stale)) => mark_stale(Response::ok_svg(svg), stale),
                Err(e) => session_error(e),
            }
        }
        "ascii" => {
            let cols = num_param(req, "cols", 120.0).max(8.0);
            let rows = num_param(req, "rows", 36.0).max(4.0);
            if cols > MAX_ASCII_SIDE as f64 || rows > MAX_ASCII_SIDE as f64 {
                return Response::bad_request(format!(
                    "ascii cols and rows are limited to {MAX_ASCII_SIDE} each"
                ));
            }
            match ctx.manager.render_ascii(id, cols as usize, rows as usize) {
                Ok((text, stale)) => mark_stale(Response::ok_text(text), stale),
                Err(e) => session_error(e),
            }
        }
        other => Response::bad_request(format!("unknown render format: {other}")),
    }
}

fn parse_id(raw: &str) -> Option<u64> {
    raw.parse::<u64>().ok()
}

fn with_id(raw: &str, f: impl FnOnce(u64) -> Response) -> Response {
    match parse_id(raw) {
        Some(id) => f(id),
        None => Response::bad_request(format!("bad session id: {raw}")),
    }
}

fn num_param(req: &Request, key: &str, default: f64) -> f64 {
    req.query_param(key)
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchlens::BatchLens;
    use batchlens_sim::scenario;
    use std::sync::Arc;

    fn ctx_fixture() -> (SessionManager, ServeStats) {
        let ds = scenario::fig3b(13).run().unwrap();
        (
            SessionManager::new(Arc::new(BatchLens::new(ds))),
            ServeStats::new(),
        )
    }

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            minor_version: 1,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(target: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            target: target.to_string(),
            minor_version: 1,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn full_session_lifecycle_over_the_router() {
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 2,
        };
        let created = route(&ctx, &post("/sessions", ""));
        assert_eq!(created.status, 200);
        let payload: crate::session::SessionCreated =
            serde_json::from_str(std::str::from_utf8(&created.body).unwrap()).unwrap();
        let id = payload.session;

        let event = format!("{{\"SelectTimestamp\": {}}}", scenario::T_FIG3B.seconds());
        let summary = route(&ctx, &post(&format!("/sessions/{id}/events"), &event));
        assert_eq!(summary.status, 200);
        let frame = route(&ctx, &get(&format!("/sessions/{id}/frame")));
        assert_eq!(frame.status, 200);
        assert!(String::from_utf8_lossy(&frame.body).contains("\"jobs_running\""));
        let svg = route(
            &ctx,
            &get(&format!(
                "/sessions/{id}/render?format=svg&width=640&height=480"
            )),
        );
        assert_eq!(svg.status, 200);
        assert_eq!(svg.content_type, "image/svg+xml");
        let ascii = route(
            &ctx,
            &get(&format!(
                "/sessions/{id}/render?format=ascii&cols=80&rows=24"
            )),
        );
        assert_eq!(ascii.status, 200);
        assert_eq!(String::from_utf8_lossy(&ascii.body).lines().count(), 24);
        let alerts = route(&ctx, &get(&format!("/sessions/{id}/alerts")));
        assert_eq!(alerts.status, 200);
        let statsz = route(&ctx, &get("/statsz"));
        assert_eq!(statsz.status, 200);
        let removed = route(
            &ctx,
            &Request {
                method: "DELETE".to_string(),
                target: format!("/sessions/{id}"),
                minor_version: 1,
                headers: Vec::new(),
                body: Vec::new(),
            },
        );
        assert_eq!(removed.status, 200);
        assert_eq!(
            route(&ctx, &get(&format!("/sessions/{id}/frame"))).status,
            404
        );
        assert_eq!(stats.total_requests(), 9);
    }

    #[test]
    fn errors_map_to_http_statuses() {
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        assert_eq!(route(&ctx, &get("/nope")).status, 404);
        assert_eq!(route(&ctx, &get("/sessions")).status, 405);
        assert_eq!(route(&ctx, &get("/sessions/abc/frame")).status, 400);
        assert_eq!(route(&ctx, &get("/sessions/99/frame")).status, 404);
        let id = manager.create().session;
        assert_eq!(
            route(&ctx, &post(&format!("/sessions/{id}/events"), "not json")).status,
            400
        );
        assert_eq!(
            route(&ctx, &get(&format!("/sessions/{id}/render?format=jpeg"))).status,
            400
        );
    }

    #[test]
    fn a_huge_step_lands_at_the_extent_end() {
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        let created = manager.create();
        let events = format!("/sessions/{}/events", created.session);
        let select = format!("{{\"SelectTimestamp\": {}}}", scenario::T_FIG3B.seconds());
        assert_eq!(route(&ctx, &post(&events, &select)).status, 200);
        let step = format!("{{\"StepTimestamp\": {}}}", i64::MAX);
        let stepped = route(&ctx, &post(&events, &step));
        assert_eq!(stepped.status, 200);
        let summary: crate::session::ViewSummary =
            serde_json::from_str(std::str::from_utf8(&stepped.body).unwrap()).unwrap();
        assert_eq!(summary.at, created.extent.end());
    }

    #[test]
    fn oversized_ascii_renders_are_refused_with_the_limit() {
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        let id = manager.create().session;
        let ascii = |cols: &str, rows: &str| {
            route(
                &ctx,
                &get(&format!(
                    "/sessions/{id}/render?format=ascii&cols={cols}&rows={rows}"
                )),
            )
        };
        for (cols, rows) in [("100000", "100000"), ("1001", "24"), ("80", "1000.5")] {
            let refused = ascii(cols, rows);
            assert_eq!(refused.status, 400, "{cols}x{rows}");
            assert!(String::from_utf8_lossy(&refused.body).contains("1000"));
        }
        let at_limit = ascii("1000", "1000");
        assert_eq!(at_limit.status, 200);
        let text = String::from_utf8_lossy(&at_limit.body);
        assert_eq!(text.lines().count(), 1000);
        assert!(text.lines().all(|line| line.chars().count() == 1000));
    }

    #[test]
    fn health_and_readiness_endpoints_answer() {
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        assert_eq!(route(&ctx, &get("/healthz")).status, 200);
        let ready = route(&ctx, &get("/readyz"));
        assert_eq!(ready.status, 200);
        assert!(String::from_utf8_lossy(&ready.body).contains("\"ready\":true"));
    }

    #[test]
    fn injected_route_panics_are_caught_and_counted() {
        let _g = batchlens_fault::test_guard();
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        batchlens_fault::arm(
            FAILPOINT_ROUTE,
            batchlens_fault::FaultSpec::new(
                batchlens_fault::Fault::Panic,
                batchlens_fault::Trigger::Times(1),
            ),
        );
        let resp = route(&ctx, &get("/statsz"));
        assert_eq!(resp.status, 500);
        assert!(resp.close, "unknown handler state: close the connection");
        assert_eq!(stats.worker_panics(), 1);
        // The server keeps serving afterwards.
        assert_eq!(route(&ctx, &get("/statsz")).status, 200);
    }

    #[test]
    fn degraded_frames_carry_the_stale_header() {
        let _g = batchlens_fault::test_guard();
        let (manager, stats) = ctx_fixture();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        let id = manager.create().session;
        let fresh = route(&ctx, &get(&format!("/sessions/{id}/frame")));
        assert_eq!(fresh.status, 200);
        assert!(fresh.extra_headers.is_empty());
        batchlens_fault::arm(
            crate::session::FAILPOINT_CAPTURE,
            batchlens_fault::FaultSpec::new(
                batchlens_fault::Fault::Error,
                batchlens_fault::Trigger::Always,
            ),
        );
        let stale = route(&ctx, &get(&format!("/sessions/{id}/frame")));
        assert_eq!(stale.status, 200);
        assert!(stale
            .extra_headers
            .iter()
            .any(|(n, v)| *n == STALE_HEADER && v == "true"));
        assert!(String::from_utf8_lossy(&stale.body).contains("\"stale\":true"));
        // Readiness reflects the degradation.
        let ready = route(&ctx, &get("/readyz"));
        assert_eq!(ready.status, 503);
        assert_eq!(
            ready
                .extra_headers
                .iter()
                .find(|(n, _)| *n == "retry-after")
                .map(|(_, v)| v.as_str()),
            Some("1")
        );
        // A fresh session with no last good frame: retryable 503.
        let empty = manager.create().session;
        let unavailable = route(&ctx, &get(&format!("/sessions/{empty}/frame")));
        assert_eq!(unavailable.status, 503);
        assert!(!unavailable.close);
    }

    /// One failed `wal.append` on the live monitor flips `/readyz` to 503
    /// and shows as `wal_errors` in `/statsz`.
    #[test]
    fn a_failed_wal_append_blocks_readiness() {
        use crate::stats::StatszPayload;
        use batchlens::stream::{StreamConfig, StreamMonitor};
        use batchlens_trace::wal::{WalConfig, WalWriter};
        use batchlens_trace::{MachineId, ServerUsageRecord, Timestamp, UtilizationTriple};

        let _g = batchlens_fault::test_guard();
        let dir = std::env::temp_dir().join(format!(
            "batchlens-router-readyz-wal-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let monitor = Arc::new(StreamMonitor::new(StreamConfig::default()).unwrap());
        monitor.attach_wal(WalWriter::open(&dir, WalConfig::default()).unwrap());
        let mut lens = BatchLens::new(scenario::fig3b(18).run().unwrap());
        lens.attach_live_monitor(Arc::clone(&monitor));
        let manager = SessionManager::new(Arc::new(lens));
        let stats = ServeStats::new();
        let ctx = RouterContext {
            manager: &manager,
            stats: &stats,
            workers: 1,
        };
        let statsz = || -> StatszPayload {
            let resp = route(&ctx, &get("/statsz"));
            assert_eq!(resp.status, 200);
            serde_json::from_str(std::str::from_utf8(&resp.body).unwrap()).unwrap()
        };

        let payload = statsz();
        assert!(payload.live);
        assert!(payload.wal_healthy);
        assert_eq!(payload.wal_errors, 0);
        assert_eq!(route(&ctx, &get("/readyz")).status, 200);

        batchlens_fault::arm(
            "wal.append",
            batchlens_fault::FaultSpec::new(
                batchlens_fault::Fault::Error,
                batchlens_fault::Trigger::Times(1),
            ),
        );
        monitor.ingest(ServerUsageRecord {
            time: Timestamp::new(0),
            machine: MachineId::new(0),
            util: UtilizationTriple::clamped(0.5, 0.3, 0.3),
        });
        batchlens_fault::disarm_all();

        let ready = route(&ctx, &get("/readyz"));
        assert_eq!(ready.status, 503);
        let body = String::from_utf8_lossy(&ready.body).to_string();
        assert!(body.contains("\"wal_healthy\":false"), "{body}");
        let payload = statsz();
        assert!(!payload.wal_healthy);
        assert_eq!(payload.wal_errors, 1);
        assert_eq!(
            payload.ingested, 1,
            "the record is applied despite the log gap"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
