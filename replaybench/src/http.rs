//! The loopback side of the benchmark: a keep-alive HTTP client and a
//! server started over one lens.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use batchlens::BatchLens;
use batchlens_serve::codec::{read_response, ClientResponse};
use batchlens_serve::session::SessionCreated;
use batchlens_serve::stats::StatszPayload;
use batchlens_serve::{ServeConfig, Server, ServerHandle, SessionManager};

/// One keep-alive connection, counting what it sent and what failed.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Requests sent.
    pub requests: u64,
    /// Responses whose status was not `200`.
    pub non_ok: u64,
    /// Bytes of the requests sent.
    pub written: u64,
}

impl Client {
    /// Connects to `addr` with Nagle off (each request is one write).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            requests: 0,
            non_ok: 0,
            written: 0,
        })
    }

    /// One round trip, written with one `write` call. Transport failures end the run: a benchmark whose
    /// loopback server vanished has nothing left to measure.
    ///
    /// # Panics
    ///
    /// When the request cannot be written or the response is unframed.
    pub fn call(&mut self, method: &str, target: &str, body: &str) -> ClientResponse {
        let request = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(request.as_bytes())
            .expect("request written to the loopback server");
        let response = read_response(&mut self.reader)
            .expect("response framed")
            .expect("connection kept open");
        self.requests += 1;
        self.written += request.len() as u64;
        if response.status != 200 {
            self.non_ok += 1;
        }
        response
    }

    /// `POST /sessions`, returning the new session's id.
    ///
    /// # Panics
    ///
    /// When the server does not answer with a session.
    pub fn create_session(&mut self) -> u64 {
        let created: SessionCreated =
            serde_json::from_str(&self.call("POST", "/sessions", "").text())
                .expect("session created");
        created.session
    }

    /// `GET /statsz`.
    ///
    /// # Panics
    ///
    /// When the payload does not parse.
    pub fn statsz(&mut self) -> StatszPayload {
        serde_json::from_str(&self.call("GET", "/statsz", "").text()).expect("statsz payload")
    }
}

/// A server running on its own thread over one lens.
#[derive(Debug)]
pub struct Serving {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    /// The bound loopback address.
    pub addr: SocketAddr,
    /// The session multiplexer the server fronts.
    pub manager: Arc<SessionManager>,
}

impl Serving {
    /// Binds an ephemeral loopback port with `workers` connection workers
    /// (one per client connection: a worker owns a keep-alive connection
    /// until it closes) and starts serving.
    ///
    /// # Errors
    ///
    /// Socket errors from binding.
    pub fn start(lens: Arc<BatchLens>, workers: usize) -> std::io::Result<Serving> {
        let manager = Arc::new(SessionManager::new(lens));
        let server = Server::bind(
            ("127.0.0.1", 0),
            Arc::clone(&manager),
            ServeConfig {
                workers,
                idle_timeout: Duration::from_secs(30),
                ..Default::default()
            },
        )?;
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.serve());
        Ok(Serving {
            handle,
            thread,
            addr,
            manager,
        })
    }

    /// Stops the server and joins its threads. Close every client first,
    /// or a worker waits out its idle timeout on the open connection.
    ///
    /// # Panics
    ///
    /// When the server thread panicked.
    pub fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server thread joined");
    }
}

/// FNV-1a over `bytes`: a digest for comparing rendered outputs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
