//! Bounded worker-pool connection multiplexing for the server's TCP mode
//! ([`crate::serve::serve_tcp`]; std-only — no epoll crate, no async
//! runtime).
//!
//! Thread-per-connection falls over under heavy traffic: every accepted
//! socket costs a stack, an unbounded number of them can be opened, and a
//! client trickling bytes holds its thread forever. This pool inverts the
//! shape: **K workers multiplex a bounded registry of nonblocking
//! connections**. Worker 0 folds `accept` into its poll cycle (no
//! dedicated accept thread, no fixed accept-retry sleep) and hands new
//! sockets round-robin to the other workers through per-worker channels;
//! each worker then owns its slice of connections outright and polls them
//! with per-connection read/write buffers.
//!
//! Resource exhaustion is answered with *typed* protocol lines instead of
//! degradation:
//!
//! * more than [`PoolOptions::max_connections`] live sockets → the excess
//!   connection is written a `kind:"overloaded"` line and closed
//!   (backpressure, not unbounded spawn);
//! * a request line exceeding [`MAX_LINE_BYTES`] → the buffered prefix is
//!   dropped, a `kind:"line_too_long"` line is sent, and input is
//!   discarded until the next newline (a slow-loris client can no longer
//!   grow server memory without bound);
//! * a connection whose unread responses exceed 8 MiB is closed (a
//!   never-reading client cannot buffer unbounded output either).
//!
//! Shutdown is a graceful drain: once the shared flag flips, workers stop
//! accepting, flush every connection's pending responses (bounded,
//! best-effort), and exit. The request handler runs on the worker thread,
//! so an in-flight request always finishes and its response is part of
//! the drain.

use crate::serve::rejection;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::Duration;

/// Per-connection cap on one request line (bytes, newline exclusive).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Per-connection cap on buffered unwritten responses; a connection over
/// it (a client that never reads) is closed.
const MAX_WRITE_BUFFER: usize = 8 << 20;

/// Idle back-off: a worker whose cycle did no work sleeps, doubling from
/// the floor up to the ceiling, and resets to the floor on any activity.
/// Bounds both idle CPU and worst-case connect latency.
const MIN_BACKOFF: Duration = Duration::from_micros(200);
const MAX_BACKOFF: Duration = Duration::from_millis(5);

/// The pool's shape: the two knobs `serve --workers` and
/// `--max-connections` set.
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Worker threads multiplexing the connections (≥ 1; worker 0 also
    /// accepts).
    pub workers: usize,
    /// Live-connection cap; accepts past it are answered
    /// `kind:"overloaded"` and closed.
    pub max_connections: usize,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            workers: 4,
            max_connections: 256,
        }
    }
}

/// Shared observability counters, readable while the pool runs (the
/// server reports them under `{"mode":"stats"}`).
#[derive(Debug, Default)]
pub struct PoolCounters {
    /// Connections currently registered (accepted and not yet closed).
    pub active: AtomicUsize,
    /// Total connections accepted (including rejected ones).
    pub accepted: AtomicU64,
    /// Connections rejected with the overloaded line.
    pub rejected_overloaded: AtomicU64,
    /// Request lines dropped for exceeding the line cap.
    pub lines_too_long: AtomicU64,
    /// Request lines answered by the handler.
    pub served_lines: AtomicU64,
}

/// What one connection's service pass concluded.
struct Serviced {
    /// Keep the connection registered?
    keep: bool,
    /// Did any byte move (governs the idle back-off reset)?
    worked: bool,
}

/// One multiplexed connection: the nonblocking socket plus its partial
/// request line and pending responses. Owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    /// Bytes of the current (incomplete) request line. Capped at
    /// [`MAX_LINE_BYTES`] + one read chunk.
    buf: Vec<u8>,
    /// Responses not yet accepted by the socket.
    out: Vec<u8>,
    /// Inside an oversized line: drop input until the next newline.
    discarding: bool,
}

enum FlushState {
    Done,
    Blocked,
    Dead,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            discarding: false,
        }
    }

    /// Push pending responses into the socket without blocking.
    fn flush(&mut self) -> (FlushState, bool) {
        let mut wrote = false;
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return (FlushState::Dead, wrote),
                Ok(n) => {
                    self.out.drain(..n);
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return (FlushState::Blocked, wrote),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (FlushState::Dead, wrote),
            }
        }
        (FlushState::Done, wrote)
    }

    /// Best-effort blocking flush for shutdown drain and EOF: pending
    /// responses get one bounded chance to reach a well-behaved client.
    fn drain(&mut self) {
        if self.out.is_empty() {
            return;
        }
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.set_write_timeout(Some(Duration::from_secs(1)));
        let _ = self.stream.write_all(&self.out);
        let _ = self.stream.flush();
        self.out.clear();
    }

    /// Fold freshly-read bytes into the line buffer, answering every
    /// completed line via `handler` and enforcing the line cap.
    fn ingest(
        &mut self,
        mut bytes: &[u8],
        counters: &PoolCounters,
        handler: &(dyn Fn(&str) -> String + Sync),
    ) {
        if self.discarding {
            match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    self.discarding = false;
                    bytes = &bytes[pos + 1..];
                }
                None => return, // still inside the oversized line: drop
            }
        }
        // The buffered prefix holds no newline: only the new bytes are
        // searched, so a long line costs time linear in its length.
        let mut scan = self.buf.len();
        self.buf.extend_from_slice(bytes);
        let mut start = 0;
        while let Some(offset) = self.buf[scan..].iter().position(|&b| b == b'\n') {
            let end = scan + offset;
            answer(&mut self.out, &self.buf[start..end], counters, handler);
            start = end + 1;
            scan = start;
        }
        self.buf.drain(..start);
        if self.buf.len() > MAX_LINE_BYTES {
            counters.lines_too_long.fetch_add(1, Ordering::Relaxed);
            self.buf.clear();
            self.buf.shrink_to_fit();
            self.discarding = true;
            let message = format!("request line exceeded {MAX_LINE_BYTES} bytes and was dropped");
            self.out
                .extend_from_slice(rejection("line_too_long", message).as_bytes());
            self.out.push(b'\n');
        }
    }

    /// One multiplexing pass: flush what's pending, read what's ready
    /// (bounded per pass so one firehose client cannot starve its worker's
    /// other connections), answer completed lines.
    fn service(
        &mut self,
        counters: &PoolCounters,
        handler: &(dyn Fn(&str) -> String + Sync),
    ) -> Serviced {
        let (state, mut worked) = self.flush();
        if matches!(state, FlushState::Dead) {
            return Serviced {
                keep: false,
                worked,
            };
        }
        let mut chunk = [0u8; 4096];
        for _ in 0..64 {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: a trailing unterminated line is still a request
                    // (same as the stdin path), then drain and close.
                    if !self.buf.is_empty() && !self.discarding {
                        answer(&mut self.out, &self.buf, counters, handler);
                        self.buf.clear();
                    }
                    self.drain();
                    return Serviced {
                        keep: false,
                        worked: true,
                    };
                }
                Ok(n) => {
                    worked = true;
                    self.ingest(&chunk[..n], counters, handler);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    return Serviced {
                        keep: false,
                        worked,
                    }
                }
            }
        }
        if let (FlushState::Dead, _) = self.flush() {
            return Serviced {
                keep: false,
                worked,
            };
        }
        if self.out.len() > MAX_WRITE_BUFFER {
            // A client that never reads cannot hold unbounded responses.
            return Serviced {
                keep: false,
                worked,
            };
        }
        Serviced { keep: true, worked }
    }
}

/// Answer one complete request line into `out` (blank lines are
/// ignored, as on the stdin path).
fn answer(
    out: &mut Vec<u8>,
    line: &[u8],
    counters: &PoolCounters,
    handler: &(dyn Fn(&str) -> String + Sync),
) {
    let text = String::from_utf8_lossy(line);
    let text = text.trim();
    if text.is_empty() {
        return;
    }
    counters.served_lines.fetch_add(1, Ordering::Relaxed);
    let response = handler(text);
    out.extend_from_slice(response.as_bytes());
    out.push(b'\n');
}

/// Run the pool until `shutdown` flips, multiplexing every connection
/// accepted on `listener` through `handler` (one request line in, one
/// response line out). Blocks the calling thread; worker threads are
/// scoped inside. The handler runs on worker threads and so must be
/// `Sync`; it may itself flip `shutdown` (the server's
/// `{"mode":"shutdown"}` does) — the ack still reaches the client through
/// the drain.
pub fn run(
    listener: &TcpListener,
    options: &PoolOptions,
    counters: &PoolCounters,
    shutdown: &AtomicBool,
    handler: &(dyn Fn(&str) -> String + Sync),
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let workers = options.workers.max(1);
    let (outboxes, inboxes): (Vec<Sender<TcpStream>>, Vec<Receiver<TcpStream>>) =
        (0..workers).map(|_| mpsc::channel()).unzip();
    std::thread::scope(|scope| {
        for (w, inbox) in inboxes.into_iter().enumerate() {
            let outboxes = &outboxes;
            // worker 0 accepts and hands off
            let accepts = (w == 0).then_some(outboxes.as_slice());
            scope.spawn(move || {
                worker_loop(
                    listener, options, counters, shutdown, handler, inbox, accepts,
                )
            });
        }
    });
    Ok(())
}

/// One worker's poll cycle: (the accepting worker only) drain `accept`,
/// drain the hand-off channel, service every owned connection, back off
/// when idle.
fn worker_loop(
    listener: &TcpListener,
    options: &PoolOptions,
    counters: &PoolCounters,
    shutdown: &AtomicBool,
    handler: &(dyn Fn(&str) -> String + Sync),
    inbox: Receiver<TcpStream>,
    accepts: Option<&[Sender<TcpStream>]>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut backoff = MIN_BACKOFF;
    let mut next_assignee = 0usize;
    loop {
        let mut busy = false;
        if let Some(outboxes) = accepts.filter(|_| !shutdown.load(Ordering::SeqCst)) {
            busy |= accept_ready(listener, options, counters, outboxes, &mut next_assignee);
        }
        for stream in inbox.try_iter() {
            conns.push(Conn::new(stream));
            busy = true;
        }
        let mut i = 0;
        while i < conns.len() {
            let outcome = conns[i].service(counters, handler);
            busy |= outcome.worked;
            if outcome.keep {
                i += 1;
            } else {
                conns.swap_remove(i);
                counters.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            // Graceful drain: every pending response gets its bounded
            // chance to reach the client before the socket closes.
            for conn in &mut conns {
                conn.drain();
            }
            counters.active.fetch_sub(conns.len(), Ordering::Relaxed);
            conns.clear();
            return;
        }
        if busy {
            backoff = MIN_BACKOFF;
        } else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(MAX_BACKOFF);
        }
    }
}

/// Drain every connection the listener has ready: register up to the cap
/// (handing off round-robin), reject the rest with the typed overloaded
/// line. Returns whether anything was accepted.
fn accept_ready(
    listener: &TcpListener,
    options: &PoolOptions,
    counters: &PoolCounters,
    outboxes: &[Sender<TcpStream>],
    next_assignee: &mut usize,
) -> bool {
    let mut any = false;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                any = true;
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                if counters.active.load(Ordering::Relaxed) >= options.max_connections {
                    counters.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                    let message = format!(
                        "server at capacity ({} connections); retry later",
                        options.max_connections
                    );
                    reject(stream, &rejection("overloaded", message));
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                counters.active.fetch_add(1, Ordering::Relaxed);
                let target = *next_assignee % outboxes.len();
                *next_assignee = next_assignee.wrapping_add(1);
                // fails only once that worker has shut down: the socket
                // then closes unanswered, as it would have sat unserved
                let _ = outboxes[target].send(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    any
}

/// Tell an over-cap connection why it is being closed (bounded,
/// best-effort: the socket is still blocking at this point).
fn reject(mut stream: TcpStream, line: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A loopback pair: `Conn` wraps the server end, the test drives the
    /// client end.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (Conn::new(server), client)
    }

    fn echo() -> impl Fn(&str) -> String + Sync {
        |line: &str| format!("echo:{line}")
    }

    #[test]
    fn completed_lines_are_answered_and_partials_buffered() {
        let (mut conn, mut client) = pair();
        let counters = PoolCounters::default();
        client.write_all(b"alpha\nbet").unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let outcome = conn.service(&counters, &echo());
        assert!(outcome.keep && outcome.worked);
        assert_eq!(conn.buf, b"bet");
        let mut reader = BufReader::new(&client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "echo:alpha\n");
        assert_eq!(counters.served_lines.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn lines_split_across_reads_are_framed_exactly() {
        let input: &[u8] = b"one\n\ntwo \r\nthree-is-longer-than-a-chunk\nfour";
        for chunk in 1..=input.len() {
            let (mut conn, _client) = pair();
            let counters = PoolCounters::default();
            for piece in input.chunks(chunk) {
                conn.ingest(piece, &counters, &echo());
            }
            let answered = String::from_utf8(conn.out).unwrap();
            assert_eq!(
                answered,
                "echo:one\necho:two\necho:three-is-longer-than-a-chunk\n"
            );
            assert_eq!(conn.buf, b"four", "chunks of {chunk}");
            assert_eq!(counters.served_lines.load(Ordering::Relaxed), 3);
        }
    }

    #[test]
    fn oversized_line_is_dropped_with_typed_response_and_memory_stays_bounded() {
        let (mut conn, mut client) = pair();
        let counters = PoolCounters::default();
        // Trickle 1 MiB + 64 KiB without a newline: past the line cap.
        for _ in 0..17 {
            client.write_all(&[b'x'; 64 << 10]).unwrap();
            client.flush().unwrap();
            std::thread::sleep(Duration::from_millis(2));
            let outcome = conn.service(&counters, &echo());
            assert!(outcome.keep, "oversized line must not kill the conn");
            assert!(conn.buf.len() <= MAX_LINE_BYTES + 4096);
        }
        for _ in 0..100 {
            if counters.lines_too_long.load(Ordering::Relaxed) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
            conn.service(&counters, &echo());
        }
        assert_eq!(counters.lines_too_long.load(Ordering::Relaxed), 1);
        assert!(conn.discarding);
        assert!(
            conn.buf.capacity() <= MAX_LINE_BYTES + 4096,
            "partial-line buffer must stay bounded, got {}",
            conn.buf.capacity()
        );
        // The newline ends the discard; the next line is served normally.
        client.write_all(b"\nafter\n").unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        conn.service(&counters, &echo());
        let mut reader = BufReader::new(&client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            line,
            "{\"id\":\"\",\"kind\":\"line_too_long\",\"error\":\"request line exceeded \
             1048576 bytes and was dropped\"}\n"
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "echo:after\n");
        assert_eq!(counters.served_lines.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn eof_serves_the_trailing_unterminated_line() {
        let (mut conn, mut client) = pair();
        let counters = PoolCounters::default();
        client.write_all(b"tail-no-newline").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let outcome = conn.service(&counters, &echo());
        assert!(!outcome.keep, "EOF closes the connection");
        let mut reader = BufReader::new(&client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "echo:tail-no-newline\n");
    }
}
