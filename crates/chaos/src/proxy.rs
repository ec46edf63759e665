//! The fault-injecting TCP proxy: a store-and-forward relay in front of
//! one upstream (normally a `chunkpoint serve` instance) that misbehaves
//! on exactly the connections its [`FaultPlan`] says to — and relays
//! faithfully on the rest.
//!
//! Store-and-forward (read the whole request, exchange it with the
//! upstream, then replay the response toward the client) is what makes
//! byte-precise faults possible: truncation cuts at a deterministic
//! offset of a fully-known response, corruption flips a deterministic
//! byte, and the faithful path is byte-identical to a direct connection.
//! The stack's `Connection: close` + `Content-Length` discipline means
//! one request/response pair per connection, so "connection" and
//! "exchange" coincide and the plan's connection index is the only
//! coordinate needed.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::plan::{ConnFault, FaultKind, FaultPlan};

/// Cap on a relayed request or response (16 MiB) — the proxy buffers
/// whole messages, so a runaway peer must not balloon it.
const MAX_MESSAGE_BYTES: usize = 16 * 1024 * 1024;

/// Socket timeout for proxy-side reads and writes; a dead peer costs at
/// most this per connection.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A running chaos proxy. Listens on an ephemeral local port, numbers
/// accepted connections `0, 1, 2, …`, and applies
/// [`FaultPlan::fault_for`] of that index to each.
#[derive(Debug)]
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    connections: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds an ephemeral port and starts proxying to `upstream`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; a bad `upstream` address surfaces
    /// per-connection (as faults the client must survive), not here.
    pub fn start(upstream: &str, plan: FaultPlan) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicU64::new(0));
        let faults = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let upstream = upstream.to_owned();
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let faults = Arc::clone(&faults);
            std::thread::spawn(move || {
                accept_loop(&listener, &upstream, &plan, &stop, &connections, &faults);
            })
        };
        Ok(Self {
            addr,
            stop,
            connections,
            faults,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listen address — point clients here instead of at the
    /// upstream.
    #[must_use]
    pub fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Connections accepted so far (the next connection's plan index).
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Acquire)
    }

    /// Connections that drew a fault so far.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.faults.load(Ordering::Acquire)
    }

    /// Stops accepting and joins the accept thread. In-flight faulted
    /// connections notice the stop flag at their next sleep boundary.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Knock to unblock the (blocking) accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: &str,
    plan: &FaultPlan,
    stop: &Arc<AtomicBool>,
    connections: &Arc<AtomicU64>,
    faults: &Arc<AtomicU64>,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept() else {
            if stop.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if stop.load(Ordering::Acquire) {
            return; // the shutdown knock
        }
        let index = connections.fetch_add(1, Ordering::AcqRel);
        let fault = plan.fault_for(index);
        if fault.is_some() {
            faults.fetch_add(1, Ordering::AcqRel);
        }
        let upstream = upstream.to_owned();
        let stop = Arc::clone(stop);
        let dribble_pause = plan.dribble_pause;
        let stall = plan.stall;
        std::thread::spawn(move || {
            handle(stream, &upstream, fault, stall, dribble_pause, &stop);
        });
    }
}

/// Drives one proxied connection through its assigned fault (or a
/// faithful relay). All errors are swallowed: a broken pipe mid-fault is
/// indistinguishable from the fault itself, which is the point.
fn handle(
    mut client: TcpStream,
    upstream: &str,
    fault: Option<ConnFault>,
    stall: Duration,
    dribble_pause: Duration,
    stop: &AtomicBool,
) {
    let _ = client.set_read_timeout(Some(IO_TIMEOUT));
    let _ = client.set_write_timeout(Some(IO_TIMEOUT));

    // Connection-level faults act before any relaying.
    match fault.map(|f| f.kind) {
        Some(FaultKind::Refuse) => {
            // Close without reading: the client sees a reset or an EOF
            // before the status line.
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        Some(FaultKind::AcceptThenClose) => {
            let _ = read_http_message(&mut client);
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        Some(FaultKind::Inject500) => {
            let _ = read_http_message(&mut client);
            let body = r#"{"error":"injected fault"}"#;
            let _ = write!(
                client,
                "HTTP/1.1 500 Internal Server Error\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            return;
        }
        _ => {}
    }

    // Store-and-forward: whole request in, whole response back.
    let Some(request) = read_http_message(&mut client) else {
        return;
    };
    let Ok(mut server) = TcpStream::connect(upstream) else {
        // Upstream genuinely down: behave like Refuse.
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = server.set_read_timeout(Some(IO_TIMEOUT));
    let _ = server.set_write_timeout(Some(IO_TIMEOUT));
    if server.write_all(&request).is_err() {
        return;
    }
    let _ = server.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = server
        .take(MAX_MESSAGE_BYTES as u64)
        .read_to_end(&mut response);
    if response.is_empty() {
        return;
    }

    match fault {
        None
        | Some(ConnFault {
            kind: FaultKind::Refuse | FaultKind::AcceptThenClose | FaultKind::Inject500,
            ..
        }) => {
            let _ = client.write_all(&response);
        }
        Some(ConnFault {
            kind: FaultKind::Stall,
            ..
        }) => {
            sleep_unless_stopped(stall, stop);
            let _ = client.write_all(&response);
        }
        Some(ConnFault {
            kind: FaultKind::TruncateHead,
            entropy,
        }) => {
            // Cut strictly inside the head: past the first byte, before
            // the head terminator — the client can never parse a
            // complete head.
            let head_len = head_end(&response).unwrap_or(response.len());
            let cut = 1 + (entropy as usize) % head_len.max(2).saturating_sub(1);
            let _ = client.write_all(&response[..cut]);
        }
        Some(ConnFault {
            kind: FaultKind::TruncateBody,
            ..
        }) => {
            // Full head, half body: a tear the client's Content-Length
            // check must catch.
            let body_start = head_end(&response).unwrap_or(response.len());
            let body_len = response.len() - body_start;
            let _ = client.write_all(&response[..body_start + body_len / 2]);
        }
        Some(ConnFault {
            kind: FaultKind::CorruptByte,
            entropy,
        }) => {
            let mut damaged = response;
            let body_start = head_end(&damaged).unwrap_or(damaged.len());
            // Flip the high bit of one byte. Every chunkpoint payload is
            // ASCII JSON, so a body flip is guaranteed invalid UTF-8 —
            // detected, never silently consumed. Bodiless responses get
            // a head flip instead (a torn head, equally typed).
            let target = if body_start < damaged.len() {
                body_start + (entropy as usize) % (damaged.len() - body_start)
            } else {
                (entropy as usize) % damaged.len()
            };
            damaged[target] ^= 0x80;
            let _ = client.write_all(&damaged);
        }
        Some(ConnFault {
            kind: FaultKind::SlowLoris,
            ..
        }) => {
            for chunk in response.chunks(1) {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                if client.write_all(chunk).is_err() {
                    return;
                }
                std::thread::sleep(dribble_pause);
            }
        }
    }
    let _ = client.shutdown(Shutdown::Both);
}

/// Sleeps `total` in small slices, bailing early on shutdown.
fn sleep_unless_stopped(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(10);
    let mut remaining = total;
    while !remaining.is_zero() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let step = remaining.min(slice);
        std::thread::sleep(step);
        remaining -= step;
    }
}

/// Index just past the `\r\n\r\n` head terminator, if present.
fn head_end(message: &[u8]) -> Option<usize> {
    message
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|at| at + 4)
}

/// Reads one `Content-Length`-framed HTTP message (request or response)
/// from `stream`: head through `\r\n\r\n`, then exactly the declared
/// body. Returns `None` on any tear, timeout, cap overflow, or a length
/// `serve` refuses — the caller drops the connection, which for a proxy
/// is the right answer to every malformed input.
fn read_http_message(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut message = Vec::new();
    let mut chunk = [0u8; 4096];
    let body_start = loop {
        if let Some(end) = head_end(&message) {
            break end;
        }
        if message.len() > MAX_MESSAGE_BYTES {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => message.extend_from_slice(&chunk[..n]),
        }
    };
    // serve's framing rule: only bare digits, and repeats must agree.
    let head = String::from_utf8_lossy(&message[..body_start]);
    let mut content_length = None;
    for (name, value) in head.lines().filter_map(|line| line.split_once(':')) {
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            let length: usize = value.parse().ok()?;
            let signed = !value.bytes().all(|b| b.is_ascii_digit());
            if signed || content_length.is_some_and(|seen| seen != length) {
                return None;
            }
            content_length = Some(length);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_MESSAGE_BYTES {
        return None;
    }
    let total = body_start + content_length;
    while message.len() < total {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => message.extend_from_slice(&chunk[..n]),
        }
    }
    message.truncate(total);
    Some(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_end_finds_the_terminator() {
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(head_end(b"HTTP/1.1 200 OK\r\n"), None);
        assert_eq!(head_end(b""), None);
    }

    #[test]
    fn only_lengths_serve_accepts_frame_a_message() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        for (lengths, frames) in [
            ("+2", false),
            ("1\r\nContent-Length: 2", false),
            ("2\r\nContent-Length: 2", true),
        ] {
            let mut peer = TcpStream::connect(addr).expect("connect");
            let message = format!("HTTP/1.1 200 OK\r\nContent-Length: {lengths}\r\n\r\nok");
            peer.write_all(message.as_bytes()).expect("send");
            let (mut stream, _) = listener.accept().expect("accept");
            let framed = read_http_message(&mut stream).is_some();
            assert_eq!(framed, frames, "{lengths:?}");
        }
    }

    /// A tiny upstream echoing a fixed JSON body, plus a faithful proxy:
    /// the relayed bytes must match a direct exchange exactly.
    #[test]
    fn faithful_relay_is_byte_identical() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let upstream_addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                std::thread::spawn(move || {
                    if read_http_message(&mut stream).is_some() {
                        let body = r#"{"status":"ok"}"#;
                        let _ = write!(
                            stream,
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                            body.len()
                        );
                    }
                });
            }
        });
        let exchange = |addr: &str| -> Vec<u8> {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
            let mut response = Vec::new();
            stream.read_to_end(&mut response).expect("read");
            response
        };
        let direct = exchange(&upstream_addr);
        let proxy = ChaosProxy::start(&upstream_addr, FaultPlan::new(0, 0.0)).expect("proxy");
        let relayed = exchange(&proxy.addr());
        assert_eq!(direct, relayed);
        assert_eq!(proxy.connections(), 1);
        assert_eq!(proxy.faults(), 0);
    }
}
