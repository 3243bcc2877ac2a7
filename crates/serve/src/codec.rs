//! A minimal hand-rolled HTTP/1.1 codec: request-line + headers +
//! `Content-Length` bodies, nothing else.
//!
//! The serving layer deliberately avoids an HTTP dependency — the build
//! environment is offline, and the subset a dashboard API needs is tiny:
//!
//! * requests are `METHOD SP target SP HTTP/1.x CRLF`, headers until an
//!   empty line, then an optional body of exactly `Content-Length` bytes
//!   (no chunked transfer encoding; a `Transfer-Encoding` header is
//!   rejected rather than misparsed),
//! * responses always carry an explicit `Content-Length`, so keep-alive
//!   framing is unambiguous,
//! * connection persistence follows HTTP/1.1 defaults: keep-alive unless
//!   `Connection: close` (HTTP/1.0 is the inverse).
//!
//! Both halves are here — [`read_request`]/[`Response::write_to`] for the
//! server, [`read_response`] for in-process clients (tests, examples) —
//! so the differential suites exercise the same framing code the server
//! runs.

use std::io::{BufRead, Write};

/// Longest accepted request/status/header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per message.
const MAX_HEADERS: usize = 64;
/// Largest accepted message body, in bytes.
const MAX_BODY: usize = 1024 * 1024;
/// Largest request the limits above admit: a request line and
/// `MAX_HEADERS` header lines, each with its CRLF, the blank line, and the
/// body.
pub(crate) const MAX_REQUEST_BYTES: usize = (MAX_HEADERS + 2) * (MAX_LINE + 2) + MAX_BODY;

/// A framing or I/O failure while reading an HTTP message.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying transport failed (including read timeouts).
    Io(std::io::Error),
    /// The peer sent bytes that are not the HTTP subset we speak. The
    /// payload is a short human-readable reason.
    Malformed(&'static str),
    /// A line, header count or body length exceeded its hard limit.
    TooLarge(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o: {e}"),
            CodecError::Malformed(why) => write!(f, "malformed message: {why}"),
            CodecError::TooLarge(what) => write!(f, "limit exceeded: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The raw request target, e.g. `/sessions/3/render?format=ascii`.
    pub target: String,
    /// `1` for HTTP/1.1, `0` for HTTP/1.0.
    pub minor_version: u8,
    /// Header `(name, value)` pairs in arrival order; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (the part before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }

    /// The target's raw query string, when present.
    pub fn query(&self) -> Option<&str> {
        let mut parts = self.target.splitn(2, '?');
        parts.next();
        parts.next()
    }

    /// Looks up the first value of `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// A single query parameter's value (undecoded), when present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?
            .split('&')
            .filter_map(|pair| {
                let mut kv = pair.splitn(2, '=');
                Some((kv.next()?, kv.next().unwrap_or("")))
            })
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Whether the connection must close after this exchange, per the
    /// HTTP/1.x persistence rules.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => self.minor_version == 0,
        }
    }
}

/// Reads one CRLF (or bare-LF) terminated line, without its terminator.
/// `Ok(None)` means the stream ended before any byte arrived.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, CodecError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1];
    loop {
        // Byte-at-a-time over a BufReader: each read is a memcpy from the
        // buffer, and we never consume past the line terminator.
        match reader.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(CodecError::Malformed("eof inside a line"));
            }
            Ok(_) => {
                if chunk[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let line = String::from_utf8(buf)
                        .map_err(|_| CodecError::Malformed("non-utf8 line"))?;
                    return Ok(Some(line));
                }
                buf.push(chunk[0]);
                if buf.len() > MAX_LINE {
                    return Err(CodecError::TooLarge("line"));
                }
            }
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
}

/// Lowercased header names paired with their trimmed values.
type Headers = Vec<(String, String)>;

/// Reads the header block (after a start line) and the body it frames.
fn read_headers_and_body<R: BufRead>(reader: &mut R) -> Result<(Headers, Vec<u8>), CodecError> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or(CodecError::Malformed("eof inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(CodecError::TooLarge("header count"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(CodecError::Malformed("header without a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    if headers
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case("transfer-encoding"))
    {
        return Err(CodecError::Malformed("transfer-encoding is not supported"));
    }
    let length = match headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
    {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| CodecError::Malformed("bad content-length"))?,
        None => 0,
    };
    if length > MAX_BODY {
        return Err(CodecError::TooLarge("body"));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((headers, body))
}

/// Reads one request from `reader`.
///
/// Returns `Ok(None)` when the peer closed the connection cleanly between
/// requests (the normal end of a keep-alive conversation). Errors mean the
/// connection is unusable and must be dropped — the framing state is
/// unknown.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, CodecError> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(CodecError::Malformed("empty request line"))?;
    let target = parts
        .next()
        .ok_or(CodecError::Malformed("request line without a target"))?;
    let version = parts
        .next()
        .ok_or(CodecError::Malformed("request line without a version"))?;
    if parts.next().is_some() {
        return Err(CodecError::Malformed("request line with extra fields"));
    }
    let minor_version = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        _ => return Err(CodecError::Malformed("unsupported http version")),
    };
    let (headers, body) = read_headers_and_body(reader)?;
    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        target: target.to_string(),
        minor_version,
        headers,
        body,
    }))
}

/// An HTTP response the server writes (and the in-process client reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The reason phrase on the status line.
    pub reason: &'static str,
    /// The `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes (always framed by an explicit `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the server will close the connection after writing this.
    pub close: bool,
    /// Extra `(name, value)` headers appended after the standard three
    /// (e.g. `retry-after` on a 503, the staleness marker on a degraded
    /// frame). Names must be lowercase; values must be header-safe.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok_json(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            body: body.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A `200 OK` SVG response.
    pub fn ok_svg(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "image/svg+xml",
            body: body.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A `200 OK` plain-text response.
    pub fn ok_text(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A `400 Bad Request` with a plain-text reason.
    pub fn bad_request(why: String) -> Response {
        Response {
            status: 400,
            reason: "Bad Request",
            content_type: "text/plain; charset=utf-8",
            body: why.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A `404 Not Found` with a plain-text reason.
    pub fn not_found(why: String) -> Response {
        Response {
            status: 404,
            reason: "Not Found",
            content_type: "text/plain; charset=utf-8",
            body: why.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A `405 Method Not Allowed`.
    pub fn method_not_allowed() -> Response {
        Response {
            status: 405,
            reason: "Method Not Allowed",
            content_type: "text/plain; charset=utf-8",
            body: b"method not allowed".to_vec(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// A `503 Service Unavailable` carrying a `retry-after` header.
    ///
    /// This is the **shed contract**: when the accept-to-worker queue is
    /// full, the server answers new connections with exactly this response
    /// — immediately, from the accept loop, without occupying a worker —
    /// and closes. `retry-after` tells well-behaved clients how many
    /// seconds to back off before reconnecting; the body repeats the
    /// reason. Shedding is deliberate load *rejection*, not failure: the
    /// connection was never queued, no session state was touched, and the
    /// request body (if any) was never read.
    pub fn service_unavailable(why: String, retry_after_secs: u64) -> Response {
        Response {
            status: 503,
            reason: "Service Unavailable",
            content_type: "text/plain; charset=utf-8",
            body: why.into_bytes(),
            close: true,
            extra_headers: vec![("retry-after", retry_after_secs.to_string())],
        }
    }

    /// A `500 Internal Server Error` with a plain-text reason.
    pub fn server_error(why: String) -> Response {
        Response {
            status: 500,
            reason: "Internal Server Error",
            content_type: "text/plain; charset=utf-8",
            body: why.into_bytes(),
            close: false,
            extra_headers: Vec::new(),
        }
    }

    /// Marks the connection for closing after this response (builder).
    #[must_use]
    pub fn closing(mut self) -> Response {
        self.close = true;
        self
    }

    /// Appends an extra header (builder). `name` must be lowercase and
    /// both halves must be free of CR/LF.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// Writes the response with explicit length framing.
    ///
    /// # Errors
    ///
    /// Propagates transport errors from `writer`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        write!(
            writer,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )?;
        for (name, value) in &self.extra_headers {
            write!(writer, "{name}: {value}\r\n")?;
        }
        writer.write_all(b"\r\n")?;
        writer.write_all(&self.body)?;
        writer.flush()
    }
}

/// A response as seen by the in-process client half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Looks up the first value of `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from `reader`; `Ok(None)` on clean EOF.
///
/// The client half of the codec, used by the test suites and examples to
/// speak to the server over real sockets with the same framing rules.
pub fn read_response<R: BufRead>(reader: &mut R) -> Result<Option<ClientResponse>, CodecError> {
    let Some(line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(CodecError::Malformed("bad status line"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or(CodecError::Malformed("bad status code"))?;
    let (headers, body) = read_headers_and_body(reader)?;
    Ok(Some(ClientResponse {
        status,
        headers,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, CodecError> {
        read_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_request_with_body_and_keep_alive() {
        let req = parse(
            b"POST /sessions/3/events?x=1 HTTP/1.1\r\nHost: localhost\r\n\
              Content-Length: 4\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/sessions/3/events");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("host"), Some("localhost"));
        assert!(!req.wants_close());
    }

    #[test]
    fn connection_persistence_follows_http_version() {
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(old.wants_close());
        let pinned = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!pinned.wants_close());
        let closing = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(closing.wants_close());
    }

    #[test]
    fn clean_eof_is_none_torn_eof_is_error() {
        assert!(parse(b"").unwrap().is_none());
        assert!(parse(b"GET / HT").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort").is_err());
    }

    #[test]
    fn rejects_what_it_cannot_frame() {
        assert!(parse(b"GET / HTTP/2\r\n\r\n").is_err());
        assert!(parse(b"GET /\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        assert!(parse(b"GET / HTTP/1.1\r\nContent-Length: nine\r\n\r\n").is_err());
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 1));
        assert!(parse(huge.as_bytes()).is_err());
    }

    #[test]
    fn response_round_trips_through_client_half() {
        let mut wire = Vec::new();
        Response::ok_json("{\"ok\":true}".to_string())
            .write_to(&mut wire)
            .unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("content-type"), Some("application/json"));
        assert_eq!(resp.text(), "{\"ok\":true}");
        // Two pipelined responses frame cleanly back-to-back.
        let mut twice = wire.clone();
        Response::ok_text("bye".to_string())
            .closing()
            .write_to(&mut twice)
            .unwrap();
        let mut reader = BufReader::new(&twice[..]);
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 200);
        let second = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(second.text(), "bye");
        assert_eq!(second.header("connection"), Some("close"));
        assert!(read_response(&mut reader).unwrap().is_none());
    }

    #[test]
    fn shed_response_carries_retry_after_and_closes() {
        let mut wire = Vec::new();
        Response::service_unavailable("server overloaded".to_string(), 2)
            .write_to(&mut wire)
            .unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.text(), "server overloaded");
        // Builder headers frame identically.
        let mut wire = Vec::new();
        Response::ok_json("{}".to_string())
            .with_header("x-batchlens-stale", "true".to_string())
            .write_to(&mut wire)
            .unwrap();
        let resp = read_response(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(resp.header("x-batchlens-stale"), Some("true"));
    }

    #[test]
    fn keep_alive_parses_consecutive_requests() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut reader = BufReader::new(&wire[..]);
        let a = read_request(&mut reader).unwrap().unwrap();
        let b = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(a.path(), "/a");
        assert_eq!(b.path(), "/b");
        assert_eq!(b.body, b"hi");
        assert!(read_request(&mut reader).unwrap().is_none());
    }
}
