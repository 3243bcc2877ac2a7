//! The TCP front: a [`std::net::TcpListener`] accept loop feeding a
//! bounded pool of connection workers.
//!
//! The pool reuses [`batchlens_exec::run_workers`]: `workers + 1` scoped
//! threads, index 0 running the accept loop and the rest draining a
//! bounded `crossbeam` channel of accepted connections. The channel bound
//! is the server's backpressure: when every worker is busy and the queue
//! is full, new connections are **shed** — answered `503 + Retry-After`
//! straight from the accept loop and closed — so the listener never
//! blocks and overload never accumulates unbounded state in the process.
//!
//! Shutdown is cooperative: [`ServerHandle::shutdown`] flips a flag and
//! pokes the listener awake with a loopback connection; the accept loop
//! exits, the channel's sender is dropped, and workers finish their
//! current exchanges (marking responses `Connection: close`) before
//! [`Server::serve`] joins them all and returns.

use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use crate::codec::{read_request, CodecError, Response, MAX_REQUEST_BYTES};
use crate::router::{route, RouterContext};
use crate::session::SessionManager;
use crate::stats::ServeStats;

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connection worker threads. `0` means "pick a small default"
    /// (process parallelism capped at 4 — dashboard serving is not a
    /// throughput workload).
    pub workers: usize,
    /// Accepted connections that may queue between the accept loop and
    /// the workers; arrivals beyond that are shed with `503 +
    /// Retry-After`. Clamped to at least 1.
    pub queue_depth: usize,
    /// How long a worker waits on an idle keep-alive connection before
    /// closing it. Also bounds how long shutdown can take to drain.
    pub idle_timeout: Duration,
    /// Socket write timeout: a client that stops draining its receive
    /// window for this long loses the connection (counted in `/statsz`
    /// as `write_timeouts`) instead of wedging a worker.
    pub write_timeout: Duration,
    /// Per-request deadline, armed when a request's first byte arrives:
    /// it bounds the remaining codec reads (via the socket read timeout)
    /// and, checked after routing, closes connections whose handler work
    /// overran (counted as `deadlines_exceeded`).
    pub request_deadline: Duration,
    /// The `Retry-After` value shed responses advertise.
    pub retry_after: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            retry_after: Duration::from_secs(1),
        }
    }
}

impl ServeConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            batchlens_exec::default_threads().clamp(1, 4)
        } else {
            self.workers
        }
    }
}

/// A handle that can stop a running [`Server::serve`] call from another
/// thread. Cloneable; shutdown is idempotent.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and wakes the accept loop. Returns once the
    /// request is delivered (not once the server has drained).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept() awake; the connection itself is
        // discarded by the flag check on the other side.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The multi-session dashboard server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    stats: Arc<ServeStats>,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) over `manager`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind(
        addr: impl ToSocketAddrs,
        manager: Arc<SessionManager>,
        cfg: ServeConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            manager,
            stats: Arc::new(ServeStats::new()),
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (the ephemeral port after binding port 0).
    ///
    /// # Panics
    ///
    /// Never in practice: a bound listener has a local address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// The server's shared counters.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// The session manager this server fronts.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// A shutdown handle for this server.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.local_addr(),
        }
    }

    /// Runs the accept loop and worker pool, blocking until
    /// [`ServerHandle::shutdown`] is called. All threads are scoped and
    /// joined before this returns — no detached state survives.
    pub fn serve(&self) {
        let workers = self.cfg.resolved_workers();
        let (tx, rx) = bounded::<TcpStream>(self.cfg.queue_depth.max(1));
        // The sender lives in an Option so the accept loop (worker 0) can
        // drop it on exit — that is what unblocks the workers' recv().
        let tx: Mutex<Option<Sender<TcpStream>>> = Mutex::new(Some(tx));
        let rx: Mutex<Receiver<TcpStream>> = Mutex::new(rx);
        batchlens_exec::run_workers(workers + 1, |i| {
            if i == 0 {
                self.accept_loop(&tx);
            } else {
                self.worker_loop(&rx, workers);
            }
        });
    }

    fn accept_loop(&self, tx: &Mutex<Option<Sender<TcpStream>>>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    // Shed-don't-block: a full queue answers the new
                    // connection `503 + Retry-After` immediately instead
                    // of stalling the accept loop (which would push
                    // overload into the opaque kernel backlog).
                    let queued = {
                        let guard = tx.lock();
                        match guard.as_ref() {
                            None => break,
                            Some(t) => {
                                self.stats.connection_queued();
                                match t.try_send(stream) {
                                    Ok(()) => Ok(()),
                                    Err(e) => {
                                        self.stats.connection_claimed();
                                        Err(e)
                                    }
                                }
                            }
                        }
                    };
                    match queued {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => self.shed(stream),
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(_) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
            }
        }
        *tx.lock() = None;
    }

    /// Answers one over-capacity connection with the shed `503` (see
    /// [`Response::service_unavailable`] for the contract) — best effort,
    /// bounded by the write timeout.
    ///
    /// Closing a socket with unread input makes the kernel answer with a
    /// reset, which can destroy the `503` before the client reads it. So
    /// the write half is shut down first (the client reads the `503`, then
    /// end-of-stream), and what the client has already sent is discarded
    /// without blocking, at most one request's worth (the codec's
    /// `MAX_REQUEST_BYTES`), before the socket is dropped.
    fn shed(&self, mut stream: TcpStream) {
        self.stats.connection_shed();
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let _ = stream.set_nodelay(true);
        let _ = Response::service_unavailable(
            "server overloaded".to_string(),
            self.cfg.retry_after.as_secs().max(1),
        )
        .write_to(&mut stream);
        let _ = stream.shutdown(Shutdown::Write);
        if stream.set_nonblocking(true).is_ok() {
            let mut sink = [0u8; 4096];
            let mut discarded = 0;
            while discarded < MAX_REQUEST_BYTES {
                match stream.read(&mut sink) {
                    Ok(n) if n > 0 => discarded += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    _ => break,
                }
            }
        }
    }

    fn worker_loop(&self, rx: &Mutex<Receiver<TcpStream>>, workers: usize) {
        loop {
            // Hold the receiver lock only while waiting: handling runs
            // unlocked so workers serve connections concurrently.
            let stream = { rx.lock().recv() };
            match stream {
                Ok(stream) => {
                    self.stats.connection_claimed();
                    // Belt-and-braces on top of the per-request
                    // catch_unwind in `route`: a panic anywhere else in
                    // the connection path drops that connection only —
                    // run_workers joins with expect(), so an escaped
                    // panic would take down the whole server.
                    if catch_unwind(AssertUnwindSafe(|| self.handle_connection(stream, workers)))
                        .is_err()
                    {
                        self.stats.record_worker_panic();
                    }
                }
                Err(_) => break,
            }
        }
    }

    /// One connection's keep-alive conversation: requests are read and
    /// routed until the peer closes, asks to close, errors, idles past
    /// the timeout, overruns its deadline, or the server is shutting
    /// down.
    fn handle_connection(&self, stream: TcpStream, workers: usize) {
        let _ = stream.set_write_timeout(Some(self.cfg.write_timeout));
        let _ = stream.set_nodelay(true);
        let Ok(reader_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(DeadlineReader::new(
            reader_half,
            self.cfg.idle_timeout,
            self.cfg.request_deadline,
        ));
        let mut writer = stream;
        let ctx = RouterContext {
            manager: &self.manager,
            stats: &self.stats,
            workers,
        };
        loop {
            reader.get_mut().start_idle();
            match read_request(&mut reader) {
                Ok(Some(req)) => {
                    let mut response = route(&ctx, &req);
                    if reader.get_ref().deadline_exceeded() {
                        // The handler overran the request deadline: the
                        // response still goes out, but the connection does
                        // not get another turn.
                        self.stats.record_deadline_exceeded();
                        response = response.closing();
                    }
                    if req.wants_close() || self.shutdown.load(Ordering::SeqCst) {
                        response = response.closing();
                    }
                    match response.write_to(&mut writer) {
                        Ok(()) => {
                            if response.close {
                                break;
                            }
                        }
                        Err(e) => {
                            if is_timeout(&e) {
                                self.stats.record_write_timeout();
                            }
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(CodecError::Io(e)) => {
                    // A timeout while the deadline is armed can only be the
                    // deadline itself: idle waits run with it disarmed.
                    if reader.get_ref().deadline_armed() && is_timeout(&e) {
                        // Mid-request deadline expiry: best-effort 408 so
                        // the slow client learns why it was cut off.
                        self.stats.record_deadline_exceeded();
                        let _ = Response {
                            status: 408,
                            reason: "Request Timeout",
                            content_type: "text/plain; charset=utf-8",
                            body: b"request deadline exceeded".to_vec(),
                            close: true,
                            extra_headers: Vec::new(),
                        }
                        .write_to(&mut writer);
                    }
                    break;
                }
                Err(err) => {
                    // The peer spoke something we can't frame: answer with
                    // a closing 400 (best effort) and drop the connection —
                    // its framing state is unknown.
                    let _ = Response::bad_request(err.to_string())
                        .closing()
                        .write_to(&mut writer);
                    break;
                }
            }
        }
    }
}

/// Whether an IO error is a socket timeout (`read`/`write` deadline) —
/// unix read timeouts surface as `WouldBlock`, windows as `TimedOut`.
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// The reader half of a connection with a per-request deadline.
///
/// Between requests (`start_idle`) reads wait under the idle keep-alive
/// timeout. The first byte of a request arms a deadline `request_budget`
/// from now; every subsequent read re-arms the socket read timeout with
/// the *remaining* budget, so a trickling client cannot hold a worker
/// past the deadline no matter how many bytes it dribbles.
#[derive(Debug)]
struct DeadlineReader {
    stream: TcpStream,
    idle_timeout: Duration,
    request_budget: Duration,
    deadline: Option<Instant>,
}

impl DeadlineReader {
    fn new(stream: TcpStream, idle_timeout: Duration, request_budget: Duration) -> DeadlineReader {
        DeadlineReader {
            stream,
            idle_timeout,
            request_budget,
            deadline: None,
        }
    }

    /// Disarms the deadline: the next read waits for a new request under
    /// the idle timeout, and that request's first byte re-arms it.
    fn start_idle(&mut self) {
        self.deadline = None;
    }

    /// Whether a request is mid-flight (its deadline is armed).
    fn deadline_armed(&self) -> bool {
        self.deadline.is_some()
    }

    /// Whether the armed deadline has passed.
    fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.deadline {
            None => {
                let _ = self.stream.set_read_timeout(Some(self.idle_timeout));
            }
            Some(deadline) => {
                let remaining = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|r| !r.is_zero())
                    .ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "request deadline exceeded",
                        )
                    })?;
                let _ = self.stream.set_read_timeout(Some(remaining));
            }
        }
        let n = self.stream.read(buf)?;
        if n > 0 && self.deadline.is_none() {
            self.deadline = Some(Instant::now() + self.request_budget);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_response, ClientResponse};
    use batchlens::BatchLens;
    use batchlens_sim::scenario;
    use std::io::Write;

    fn start_server_with(
        cfg: ServeConfig,
    ) -> (Arc<Server>, ServerHandle, std::thread::JoinHandle<()>) {
        let ds = scenario::fig3b(21).run().unwrap();
        let manager = Arc::new(SessionManager::new(Arc::new(BatchLens::new(ds))));
        let server = Arc::new(Server::bind(("127.0.0.1", 0), manager, cfg).unwrap());
        let handle = server.handle();
        let runner = Arc::clone(&server);
        let join = std::thread::spawn(move || runner.serve());
        (server, handle, join)
    }

    fn start_server() -> (Arc<Server>, ServerHandle, std::thread::JoinHandle<()>) {
        start_server_with(ServeConfig {
            workers: 2,
            queue_depth: 8,
            idle_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        })
    }

    fn request(stream: &mut TcpStream, method: &str, target: &str, body: &str) -> ClientResponse {
        write!(
            stream,
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_response(&mut reader).unwrap().unwrap()
    }

    #[test]
    fn serves_sessions_over_real_sockets_with_keep_alive() {
        let (server, handle, join) = start_server();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // Three requests down one keep-alive connection.
        let created = request(&mut conn, "POST", "/sessions", "");
        assert_eq!(created.status, 200);
        let id: crate::session::SessionCreated = serde_json::from_str(&created.text()).unwrap();
        let seek = request(
            &mut conn,
            "POST",
            &format!("/sessions/{}/events", id.session),
            &format!("{{\"SelectTimestamp\": {}}}", scenario::T_FIG3B.seconds()),
        );
        assert_eq!(seek.status, 200);
        let frame = request(
            &mut conn,
            "GET",
            &format!("/sessions/{}/frame", id.session),
            "",
        );
        assert_eq!(frame.status, 200);
        assert!(frame.text().contains("\"version\""));
        assert_eq!(frame.header("connection"), Some("keep-alive"));
        drop(conn);
        // A second, parallel connection sees the same session table.
        let mut conn2 = TcpStream::connect(server.local_addr()).unwrap();
        let statsz = request(&mut conn2, "GET", "/statsz", "");
        assert!(statsz.text().contains("\"sessions\""));
        drop(conn2);
        handle.shutdown();
        join.join().unwrap();
        assert!(server.stats().total_requests() >= 4);
    }

    #[test]
    fn malformed_requests_get_a_closing_400() {
        let (server, handle, join) = start_server();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let resp = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(resp.status, 400);
        assert_eq!(resp.header("connection"), Some("close"));
        drop(conn);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let (_server, handle, join) = start_server();
        handle.shutdown();
        handle.shutdown(); // idempotent
        join.join().unwrap();
    }

    #[test]
    fn saturated_queue_sheds_with_retry_after() {
        // One worker, queue of one — and the worker is parked inside a
        // slow request, so held + queued connections saturate the server.
        let (server, handle, join) = start_server_with(ServeConfig {
            workers: 1,
            queue_depth: 1,
            idle_timeout: Duration::from_secs(2),
            ..ServeConfig::default()
        });
        // Park the worker: a connection that has sent nothing yet holds
        // its worker until the idle timeout.
        let parked = TcpStream::connect(server.local_addr()).unwrap();
        // Give the worker time to claim it, then fill the queue.
        std::thread::sleep(Duration::from_millis(100));
        let queued = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // Every further connection must be shed immediately.
        let shed = TcpStream::connect(server.local_addr()).unwrap();
        let resp = read_response(&mut BufReader::new(shed.try_clone().unwrap()))
            .unwrap()
            .expect("shed connections get a response, not silence");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert!(server.stats().connections_shed() >= 1);
        drop(shed);
        drop(queued);
        drop(parked);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shed_connections_that_sent_a_request_read_the_503() {
        // Saturated as above. Each burst connection sends its whole request
        // before reading, so the accept loop sheds a socket with unread
        // input; the client must still read the 503, not a reset.
        let (server, handle, join) = start_server_with(ServeConfig {
            workers: 1,
            queue_depth: 1,
            idle_timeout: Duration::from_secs(30),
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let parked = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        const BURSTS: usize = 125;
        const BURST: usize = 8;
        for _ in 0..BURSTS {
            let start = Arc::new(std::sync::Barrier::new(BURST));
            let clients: Vec<_> = (0..BURST)
                .map(|_| {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        let mut conn = TcpStream::connect(addr).unwrap();
                        conn.write_all(
                            b"GET /statsz HTTP/1.1\r\nconnection: close\r\ncontent-length: 0\r\n\r\n",
                        )
                        .unwrap();
                        read_response(&mut BufReader::new(conn))
                    })
                })
                .collect();
            for client in clients {
                let resp = client
                    .join()
                    .unwrap()
                    .expect("a shed client reads its response, not a reset")
                    .expect("shed connections get a response, not silence");
                assert_eq!(resp.status, 503);
                assert_eq!(resp.header("retry-after"), Some("1"));
                assert_eq!(resp.header("connection"), Some("close"));
            }
        }
        assert!(server.stats().connections_shed() >= (BURSTS * BURST) as u64);
        drop(queued);
        drop(parked);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn trickling_requests_hit_the_deadline() {
        let (server, handle, join) = start_server_with(ServeConfig {
            workers: 1,
            queue_depth: 4,
            idle_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // First bytes arm the deadline; then the client stalls mid-request.
        conn.write_all(b"GET /statsz HT").unwrap();
        let started = std::time::Instant::now();
        let resp = read_response(&mut BufReader::new(conn.try_clone().unwrap())).unwrap();
        // The worker cut us off around the deadline — either with the
        // best-effort 408 or a bare close — well before the idle timeout.
        assert!(started.elapsed() < Duration::from_secs(3));
        if let Some(resp) = resp {
            assert_eq!(resp.status, 408);
        }
        drop(conn);
        handle.shutdown();
        join.join().unwrap();
        assert!(
            server
                .stats()
                .snapshot(server.manager(), 1)
                .deadlines_exceeded
                >= 1,
            "the overrun is visible in /statsz"
        );
    }
}
