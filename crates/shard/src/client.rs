//! The coordinator's HTTP client: one `std::net` round trip per call,
//! with **typed** failure modes.
//!
//! The coordinator's whole job is deciding what a backend failure means
//! (strike it, re-dispatch its shard, give up), so this client
//! distinguishes the cases the dispatch loop reacts to differently. It
//! is the workspace's one client of the service protocol — tests,
//! benches and examples call it too — and it is hardened against a
//! misbehaving peer: one deadline bounds the **whole** exchange in time
//! (re-armed before every read, so trickled bytes cannot stretch it),
//! and hard caps on the response head and body bound it in memory. No
//! input a backend can send makes these functions panic or hang.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Hard cap on a response body the coordinator will buffer. Shard
/// journals of big grids are large; anything past this is a misbehaving
/// peer, not a report.
pub const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Hard cap on a response head (status line + headers). The service's
/// heads are a few hundred bytes; anything near this is garbage.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One HTTP exchange's failure, typed by what the coordinator should do
/// about it.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection could not be established (backend down,
    /// unreachable, or the address does not resolve) — a backend strike.
    Connect(std::io::Error),
    /// The socket died or timed out mid-exchange — also a strike, but
    /// the request may have been acted on.
    Io(std::io::Error),
    /// The peer sent bytes that do not form a complete HTTP response
    /// (garbage status line, EOF mid-head, body shorter than its
    /// `Content-Length`, non-UTF-8 body).
    TornResponse(String),
    /// The peer declared or streamed a body past [`MAX_RESPONSE_BYTES`].
    /// Detected from the header when one is sent, so the allocation
    /// never happens.
    OversizedBody {
        /// Bytes the peer declared (or had already streamed when the cap
        /// tripped).
        declared: usize,
        /// The cap that refused them.
        limit: usize,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Io(e) => write!(f, "socket error mid-exchange: {e}"),
            ClientError::TornResponse(why) => write!(f, "torn response: {why}"),
            ClientError::OversizedBody { declared, limit } => {
                write!(
                    f,
                    "response body of {declared} bytes exceeds the {limit}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

fn torn<T>(why: impl Into<String>) -> Result<T, ClientError> {
    Err(ClientError::TornResponse(why.into()))
}

/// What is left of the exchange deadline, or a typed timeout error once
/// it is spent. `timeout` bounds the **whole** exchange, not each
/// syscall — a peer trickling or draining one byte per interval cannot
/// stretch a request past the deadline.
fn remaining(deadline: Instant) -> Result<Duration, ClientError> {
    let now = Instant::now();
    if now >= deadline {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "exchange deadline exhausted",
        )));
    }
    Ok(deadline - now)
}

/// Re-arms the socket's read timeout with what is left of the deadline.
fn arm_read(stream: &TcpStream, deadline: Instant) -> Result<(), ClientError> {
    stream
        .set_read_timeout(Some(remaining(deadline)?))
        .map_err(ClientError::Io)
}

/// Writes `bytes` in chunks, re-arming the write timeout with what is
/// left of the deadline before each chunk.
fn write_deadlined(
    stream: &mut TcpStream,
    bytes: &[u8],
    deadline: Instant,
) -> Result<(), ClientError> {
    for chunk in bytes.chunks(16 * 1024) {
        stream
            .set_write_timeout(Some(remaining(deadline)?))
            .map_err(ClientError::Io)?;
        stream.write_all(chunk).map_err(ClientError::Io)?;
    }
    Ok(())
}

/// Performs one HTTP/1.1 exchange: connect (bounded by `timeout`), send
/// `method path` with an optional body, read the response, return
/// `(status, body)`. HTTP-level errors (4xx/5xx) are `Ok` — the status
/// code is the caller's to interpret; [`ClientError`] is reserved for
/// transport and protocol failures.
///
/// # Errors
///
/// See [`ClientError`] — every variant maps to a distinct misbehavior.
pub fn exchange(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> Result<(u16, String), ClientError> {
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(ClientError::Connect)?
        .collect();
    let deadline = Instant::now() + timeout;
    // Try every resolved address in turn (std's own connect does the
    // same): a dual-stack hostname whose first entry is unreachable must
    // not make a healthy backend look dead.
    let mut stream = None;
    let mut last_error = std::io::Error::new(
        std::io::ErrorKind::AddrNotAvailable,
        format!("{addr:?} resolves to no address"),
    );
    for candidate in &resolved {
        match TcpStream::connect_timeout(candidate, remaining(deadline)?) {
            Ok(connected) => {
                stream = Some(connected);
                break;
            }
            Err(e) => last_error = e,
        }
    }
    let Some(mut stream) = stream else {
        return Err(ClientError::Connect(last_error));
    };

    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: chunkpoint-shard\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    write_deadlined(&mut stream, head.as_bytes(), deadline)?;
    write_deadlined(&mut stream, body.as_bytes(), deadline)?;
    stream.flush().map_err(ClientError::Io)?;

    // The head reads go through a `Take` so an endless newline-less
    // header line cannot grow memory past MAX_HEAD_BYTES — read_line
    // simply hits the cap and returns what it has.
    let mut reader = BufReader::new(stream.take(MAX_HEAD_BYTES as u64));
    let mut head_bytes = 0usize;
    let mut status_line = String::new();
    arm_read(reader.get_ref().get_ref(), deadline)?;
    match reader.read_line(&mut status_line) {
        Ok(0) => return torn("connection closed before the status line"),
        Ok(read) => head_bytes += read,
        Err(e) => return Err(ClientError::Io(e)),
    }
    let Some(status) = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|_| status_line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
    else {
        return torn(format!("malformed status line {status_line:?}"));
    };

    let mut content_length: Option<usize> = None;
    loop {
        if head_bytes >= MAX_HEAD_BYTES {
            return torn(format!("response head exceeds {MAX_HEAD_BYTES} bytes"));
        }
        let mut line = String::new();
        arm_read(reader.get_ref().get_ref(), deadline)?;
        match reader.read_line(&mut line) {
            Ok(0) => return torn("connection closed inside the response head"),
            Ok(read) => head_bytes += read,
            Err(e) => return Err(ClientError::Io(e)),
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) => content_length = Some(n),
                    Err(_) => return torn(format!("unparseable Content-Length {value:?}")),
                }
            }
        }
    }

    let declared = match content_length {
        Some(declared) if declared > MAX_RESPONSE_BYTES => {
            return Err(ClientError::OversizedBody {
                declared,
                limit: MAX_RESPONSE_BYTES,
            });
        }
        // Connection-close framing reads to EOF; one byte past the cap
        // is the tell that the peer blew it.
        Some(declared) => declared,
        None => MAX_RESPONSE_BYTES + 1,
    };
    // Re-arm the limiter for the body (the buffer may already hold a
    // body prefix pulled during the head reads — it was counted against
    // the head allowance) and read incrementally: memory tracks bytes
    // actually received, an early EOF is a torn response, and every
    // chunk re-checks the exchange deadline.
    reader.get_mut().set_limit(declared as u64);
    let mut raw = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    while raw.len() < declared {
        let want = (declared - raw.len()).min(chunk.len());
        arm_read(reader.get_ref().get_ref(), deadline)?;
        match reader.read(&mut chunk[..want]) {
            Ok(0) if content_length.is_none() => break, // EOF ends the body
            Ok(0) => {
                return torn(format!(
                    "body ended at {} of {declared} declared bytes",
                    raw.len()
                ))
            }
            Ok(got) => raw.extend_from_slice(&chunk[..got]),
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
    if content_length.is_none() && raw.len() > MAX_RESPONSE_BYTES {
        return Err(ClientError::OversizedBody {
            declared: raw.len(),
            limit: MAX_RESPONSE_BYTES,
        });
    }
    match String::from_utf8(raw) {
        Ok(body) => Ok((status, body)),
        Err(_) => torn("body is not UTF-8"),
    }
}
