//! The system's one HTTP/1.1 client: coordinator↔worker traffic, worker
//! heartbeats, and the CLI's `pgl submit` / `pgl watch`. One request
//! per connection, `Content-Length` bodies, chunked-transfer decoding
//! for event streams, connect and I/O deadlines, and jittered retry.

use crate::cluster::fault::{self, Fault};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// TCP connect deadline. A dead or firewalled peer fails in bounded
/// time instead of riding the kernel's minutes-long SYN retry schedule.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Read/write deadline for control-plane requests (job forwards, graph
/// pushes, status polls, heartbeats): short, so a hung worker can never
/// wedge the dispatcher or heartbeat threads.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);

/// Read deadline for event streams. Generous because streams are
/// long-lived by design, but still bounded: the serving side emits a
/// heartbeat line at least every 15 s, so 60 s of silence means the
/// peer is gone.
const STREAM_TIMEOUT: Duration = Duration::from_secs(60);

/// One blocking request under the control-plane deadline; returns
/// `(status, body)`. The connection is closed afterwards
/// (`Connection: close`). Consults the process-wide [`fault`] plan
/// first, so chaos runs can refuse, stall, or sever any outbound
/// cluster request deterministically.
pub fn request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
) -> Result<(u16, Vec<u8>), String> {
    request_with_timeout(addr, method, path_and_query, body, CONTROL_TIMEOUT)
}

/// [`request`] with a caller-chosen read/write deadline, for requests
/// the server may take long to answer.
pub fn request_with_timeout(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    io_timeout: Duration,
) -> Result<(u16, Vec<u8>), String> {
    let mut sever_response = false;
    match fault::next() {
        Some(Fault::Refuse) => {
            return Err(format!("connect {addr}: injected connection refusal"));
        }
        Some(Fault::Err500) => {
            return Ok((500, b"injected fault: internal error".to_vec()));
        }
        Some(Fault::Delay(pause)) => std::thread::sleep(pause),
        // The request is sent and the server acts on it, but the
        // response never arrives — the at-least-once hazard.
        Some(Fault::DropMidBody) => sever_response = true,
        None => {}
    }
    let mut stream = connect(addr, io_timeout)?;
    let head = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader, addr)?;
    if sever_response {
        return Err(format!("read from {addr}: injected mid-body drop"));
    }
    let mut payload = Vec::new();
    if header_value(&headers, "transfer-encoding").is_some_and(|v| v.contains("chunked")) {
        read_chunked(&mut reader, addr, &mut |bytes| {
            payload.extend_from_slice(bytes);
            true
        })?;
    } else {
        // Connection: close ⇒ the body runs to EOF; Content-Length just
        // bounds it earlier when present.
        match header_value(&headers, "content-length").and_then(|v| v.parse::<u64>().ok()) {
            Some(len) => {
                let mut limited = reader.take(len);
                limited
                    .read_to_end(&mut payload)
                    .map_err(|e| format!("read from {addr}: {e}"))?;
            }
            None => {
                reader
                    .read_to_end(&mut payload)
                    .map_err(|e| format!("read from {addr}: {e}"))?;
            }
        }
    }
    Ok((status, payload))
}

/// `GET` a chunked event stream, invoking `on_line` for each complete
/// NDJSON line as it arrives until the server ends the stream or the
/// callback returns `false` (downstream client gone — stop relaying).
/// `Ok(true)` = the stream completed; `Ok(false)` = the callback
/// aborted it; `Err` = transport failure or non-200 answer.
pub fn stream_lines(
    addr: &str,
    path_and_query: &str,
    on_line: &mut dyn FnMut(&str) -> bool,
) -> Result<bool, String> {
    stream_lines_over(connect_stream(addr)?, addr, path_and_query, on_line)
}

/// Connect to `addr` for an event stream, under the stream read
/// deadline. A caller that must be able to end the stream from another
/// thread keeps a `try_clone` of the socket and shuts it down: the
/// blocked read then fails at once.
pub(crate) fn connect_stream(addr: &str) -> Result<TcpStream, String> {
    connect(addr, STREAM_TIMEOUT)
}

/// [`stream_lines`] over a socket from [`connect_stream`].
pub(crate) fn stream_lines_over(
    mut stream: TcpStream,
    addr: &str,
    path_and_query: &str,
    on_line: &mut dyn FnMut(&str) -> bool,
) -> Result<bool, String> {
    let head =
        format!("GET {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut reader = BufReader::new(stream);
    let (status, headers) = read_head(&mut reader, addr)?;
    if status != 200 {
        let mut body = Vec::new();
        let _ = reader.read_to_end(&mut body);
        return Err(format!(
            "server answered {status}: {}",
            String::from_utf8_lossy(&body).trim()
        ));
    }
    if !header_value(&headers, "transfer-encoding").is_some_and(|v| v.contains("chunked")) {
        return Err("expected a chunked event stream".into());
    }
    let mut pending = String::new();
    let completed = read_chunked(&mut reader, addr, &mut |bytes| {
        pending.push_str(&String::from_utf8_lossy(bytes));
        while let Some(nl) = pending.find('\n') {
            let line: String = pending.drain(..=nl).collect();
            let line = line.trim();
            if !line.is_empty() && !on_line(line) {
                return false;
            }
        }
        true
    })?;
    if completed && !pending.trim().is_empty() && !on_line(pending.trim()) {
        return Ok(false);
    }
    Ok(completed)
}

fn connect(addr: &str, io_timeout: Duration) -> Result<TcpStream, String> {
    // `TcpStream::connect` has no deadline; resolve first and connect
    // with one so a black-holed peer fails in seconds, not minutes.
    let mut last_err = None;
    let resolved = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?;
    for sock in resolved {
        match TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT) {
            Ok(stream) => {
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(match last_err {
        Some(e) => format!("connect {addr}: {e}"),
        None => format!("resolve {addr}: no addresses"),
    })
}

/// Jittered exponential backoff policy for [`request_retry`]: attempt
/// `k` (0-based) sleeps a uniform draw from `[d/2, d]` where
/// `d = min(base · 2^k, cap)` — "full jitter" halved, so concurrent
/// retriers decorrelate without ever retrying instantly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Total attempts (first try included). 0 behaves as 1.
    pub attempts: u32,
    /// Delay before the first retry.
    pub base: Duration,
    /// Ceiling on the exponential growth.
    pub cap: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Self {
            attempts: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(1),
        }
    }
}

impl Backoff {
    /// How long to sleep after failed attempt `k` (0-based), jittered
    /// by `r` (any u64; uniform bits in, uniform delay out).
    fn delay(&self, k: u32, r: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(2u32.saturating_pow(k))
            .min(self.cap)
            .max(Duration::from_millis(1));
        let span = exp.as_millis() as u64;
        // Uniform in [span/2, span].
        Duration::from_millis(span / 2 + r % (span / 2 + 1))
    }
}

/// Retry counter feeding the jitter stream: every retry in the process
/// draws a fresh value, so concurrent retriers decorrelate.
static RETRY_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// [`request`] with jittered exponential backoff: transport errors and
/// `5xx` answers are retried up to `policy.attempts` times; any other
/// status returns immediately (a `404` or `409` will not change on
/// retry, but a refused connection or a crashed handler might).
pub fn request_retry(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: &[u8],
    policy: &Backoff,
) -> Result<(u16, Vec<u8>), String> {
    let attempts = policy.attempts.max(1);
    let mut last = Err(format!("request {addr}: no attempts made"));
    for k in 0..attempts {
        last = request(addr, method, path_and_query, body);
        match &last {
            Ok((status, _)) if *status < 500 => return last,
            _ if k + 1 == attempts => return last,
            _ => {}
        }
        let seq = RETRY_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let r = pgrng::SplitMix64::new(0x5EED_B0FF ^ seq).next();
        std::thread::sleep(policy.delay(k, r));
    }
    last
}

/// Read the status line + headers; returns `(status, lower-cased
/// header list)`.
fn read_head(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
) -> Result<(u16, Vec<(String, String)>), String> {
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line from {addr}: {status_line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read from {addr}: {e}"))?;
        let line = line.trim_end();
        if line.is_empty() {
            return Ok((status, headers));
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        if headers.len() > 256 {
            return Err(format!("runaway header block from {addr}"));
        }
    }
}

fn header_value<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Decode a chunked body, feeding each chunk's payload to `on_chunk`,
/// until the terminating 0-chunk (`Ok(true)`) or the callback aborts
/// (`Ok(false)`).
fn read_chunked(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    on_chunk: &mut dyn FnMut(&[u8]) -> bool,
) -> Result<bool, String> {
    loop {
        let mut size_line = String::new();
        let n = reader
            .read_line(&mut size_line)
            .map_err(|e| format!("read from {addr}: {e}"))?;
        if n == 0 {
            // EOF before the terminating 0-chunk: the server died or
            // dropped the connection mid-stream.
            return Err(format!("{addr} closed the stream mid-transfer"));
        }
        let size_line = size_line.trim();
        if size_line.is_empty() {
            continue; // CRLF between chunks
        }
        // Chunk extensions (";...") are legal; we emit none but strip
        // them defensively.
        let hex = size_line.split(';').next().unwrap_or_default().trim();
        let size = usize::from_str_radix(hex, 16)
            .map_err(|_| format!("bad chunk size {size_line:?} from {addr}"))?;
        if size == 0 {
            return Ok(true); // trailer-less end of stream
        }
        let mut chunk = vec![0u8; size];
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("read chunk from {addr}: {e}"))?;
        if !on_chunk(&chunk) {
            return Ok(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::percent_encode;

    #[test]
    fn query_encoding_escapes_reserved_bytes() {
        assert_eq!(percent_encode("127.0.0.1:7878"), "127.0.0.1%3A7878");
        assert_eq!(percent_encode("plain-key_1.~"), "plain-key_1.~");
    }

    #[test]
    fn backoff_delays_grow_exponentially_within_jitter_bounds() {
        let policy = Backoff {
            attempts: 4,
            base: Duration::from_millis(40),
            cap: Duration::from_millis(200),
        };
        for (k, expected) in [(0u32, 40u64), (1, 80), (2, 160), (3, 200), (9, 200)] {
            for r in [0u64, 1, 7, u64::MAX, 0xDEAD_BEEF] {
                let d = policy.delay(k, r).as_millis() as u64;
                assert!(
                    (expected / 2..=expected).contains(&d),
                    "attempt {k}: delay {d}ms outside [{}, {expected}]",
                    expected / 2
                );
            }
        }
    }

    #[test]
    fn retries_stop_on_non_5xx_and_exhaust_on_dead_peers() {
        // 127.0.0.1:1 is essentially never listening: every attempt is
        // a (fast, local) transport error, so retry exhausts.
        let policy = Backoff {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let err = request_retry("127.0.0.1:1", "GET", "/v1/healthz", b"", &policy);
        assert!(err.is_err(), "no listener must surface as Err: {err:?}");
    }
}
