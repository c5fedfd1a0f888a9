//! The open-loop HTTP client: requests are due on a fixed schedule,
//! each on a fresh connection (as `sti-load` sends them), and latency
//! counts from the due time, so a stall also delays the requests queued
//! behind it.

use crate::common::Q;
use crate::trace::Tracer;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one open-loop rung saw.
#[derive(Debug, Default)]
pub struct Rung {
    /// Requests per second scheduled.
    pub rate: f64,
    /// Latency from due time to the full response, ms, per request.
    pub lat_ms: Vec<f64>,
    /// The index into the queries of each `lat_ms` sample.
    pub query: Vec<usize>,
    /// How late each request was sent, ms.
    pub lag_ms: Vec<f64>,
    /// Requests issued.
    pub requests: u64,
    /// Non-200 responses and transport errors.
    pub failed: u64,
    /// 200 responses whose ids differ from the in-process answer.
    pub wrong: u64,
    /// TCP connections opened.
    pub conns: u64,
}

/// Send `total` requests at `rate` per second over `conns` client
/// threads, cycling through `queries` from `queries[from]`; every 200
/// body is compared with `expect`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    tracer: &Tracer,
    addr: SocketAddr,
    queries: &[Q],
    expect: &[Vec<u64>],
    rate: f64,
    from: usize,
    total: usize,
    conns: usize,
) -> Rung {
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(Rung {
        rate,
        ..Rung::default()
    });
    // First due time slightly ahead, so thread start-up is not counted
    // as backlog.
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                let mut local = tracer.local();
                let mut mine = Rung::default();
                loop {
                    // ordering: a work counter; no data is published.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let k = (from + i) % queries.len();
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    wait_until(due);
                    mine.lag_ms.push(ms(due.elapsed()));
                    let got = local.span("http.request", i as u64, 0, |_, _| {
                        get(addr, &queries[k].path())
                    });
                    mine.lat_ms.push(ms(due.elapsed()));
                    mine.query.push(k);
                    mine.requests += 1;
                    mine.conns += 1;
                    match got {
                        Ok((200, body)) => {
                            if parse_ids(&body).as_ref() != Some(&expect[k]) {
                                mine.wrong += 1;
                            }
                        }
                        _ => mine.failed += 1,
                    }
                }
                let mut all = merged.lock().expect("rung merge poisoned");
                all.absorb(&mut mine);
            });
        }
    });
    merged.into_inner().expect("rung merge poisoned")
}

impl Rung {
    /// Move another rung's samples and counts into this one.
    pub fn absorb(&mut self, other: &mut Rung) {
        self.lat_ms.append(&mut other.lat_ms);
        self.query.append(&mut other.query);
        self.lag_ms.append(&mut other.lag_ms);
        self.requests += other.requests;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.conns += other.conns;
    }
}

/// Wait for a due time by polling the clock, yielding the core between
/// polls. A client that sleeps lets its core go idle, and waking an idle
/// virtual core takes a time that depends on the host's load, which
/// would count as latency; while the client polls, the cores stay awake
/// and the server's threads still get them.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `GET` on a fresh connection: status and body.
fn get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let head = format!("GET {path} HTTP/1.1\r\nHost: sti\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let raw = read_spinning(&mut stream)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("unparseable status line")?;
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

/// Longest wait for a response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Read until the server closes, polling instead of blocking: a thread
/// that sleeps in `read` leaves its core idle, and waking an idle
/// virtual core takes a time that depends on the host's load, which
/// would count as latency. Each poll yields, so the server's threads
/// still get the core.
fn read_spinning(stream: &mut TcpStream) -> Result<Vec<u8>, String> {
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let deadline = Instant::now() + RESPONSE_TIMEOUT;
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(raw),
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err("recv: timed out".into());
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
}

/// The ids of a `/query` body, one per line.
fn parse_ids(body: &str) -> Option<Vec<u64>> {
    body.lines().map(|l| l.trim().parse().ok()).collect()
}
