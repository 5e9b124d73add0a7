//! Integration tests for the serve worker pool (`dust_bench::pool`):
//! the resource-exhaustion behaviours thread-per-connection hides.
//!
//! Each test runs a real pool on a loopback listener with scoped worker
//! threads and drives it with blocking client sockets:
//!
//! * slow-loris — a client trickling one line past the 1 MiB cap gets the
//!   typed `line_too_long` response and its buffered prefix dropped, while
//!   a sibling client on the *same single worker* keeps being served (the
//!   multiplexing claim, not just the cap);
//! * overload — `max_connections` well-behaved clients plus 8 extras:
//!   every extra is rejected with the typed overloaded line and closed,
//!   every well-behaved client keeps serving afterwards;
//!
//! The two rejection lines are asserted byte for byte as `serve` writes
//! them.
//! * more clients than workers — all served, interleaved.

use dust_bench::pool::{self, PoolCounters, PoolOptions, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Client-side read guard: a missing response should fail the test, not
/// hang it.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn request(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

/// Run `body` against a live pool, then shut the pool down gracefully.
fn with_pool(
    options: PoolOptions,
    body: impl FnOnce(std::net::SocketAddr, &PoolCounters),
) -> PoolCounters {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let counters = PoolCounters::default();
    let shutdown = AtomicBool::new(false);
    let handler = |line: &str| format!("ok:{line}");
    std::thread::scope(|scope| {
        let pool_thread = scope.spawn(|| {
            pool::run(&listener, &options, &counters, &shutdown, &handler).unwrap();
        });
        body(addr, &counters);
        shutdown.store(true, Ordering::SeqCst);
        pool_thread.join().unwrap();
    });
    counters
}

#[test]
fn slow_loris_gets_typed_rejection_and_sibling_keeps_serving() {
    let options = PoolOptions {
        workers: 1, // one worker: interleaving proves multiplexing
        ..PoolOptions::default()
    };
    let counters = with_pool(options, |addr, counters| {
        let (mut attacker, mut attacker_reader) = connect(addr);
        let (mut sibling, mut sibling_reader) = connect(addr);

        // Trickle 1 MiB + 128 KiB without a newline — past the line cap
        // — interleaved with sibling requests that must all be answered
        // by the same single worker while the attack is in flight.
        let chunk = MAX_LINE_BYTES / 8;
        for i in 0..9 {
            attacker.write_all(&vec![b'x'; chunk]).unwrap();
            attacker.flush().unwrap();
            let query = format!("sibling-{i}");
            assert_eq!(
                request(&mut sibling, &mut sibling_reader, &query),
                format!("ok:{query}")
            );
        }

        // The oversized line was dropped with the typed response...
        let mut line = String::new();
        attacker_reader.read_line(&mut line).unwrap();
        assert_eq!(
            line,
            "{\"id\":\"\",\"kind\":\"line_too_long\",\"error\":\"request line exceeded \
             1048576 bytes and was dropped\"}\n"
        );
        assert_eq!(counters.lines_too_long.load(Ordering::Relaxed), 1);

        // ...and the connection survives: after the terminating newline
        // the attacker is served like anyone else.
        assert_eq!(
            request(&mut attacker, &mut attacker_reader, "\nrecovered"),
            "ok:recovered"
        );
    });
    assert_eq!(counters.lines_too_long.load(Ordering::Relaxed), 1);
    assert_eq!(counters.rejected_overloaded.load(Ordering::Relaxed), 0);
}

#[test]
fn overload_rejects_extras_and_well_behaved_clients_survive() {
    const CAP: usize = 4;
    const EXTRAS: usize = 8;
    let options = PoolOptions {
        workers: 2,
        max_connections: CAP,
    };
    let counters = with_pool(options, |addr, counters| {
        // Fill the pool to its cap and prove every slot is live.
        let mut clients: Vec<(TcpStream, BufReader<TcpStream>)> =
            (0..CAP).map(|_| connect(addr)).collect();
        for (i, (stream, reader)) in clients.iter_mut().enumerate() {
            assert_eq!(
                request(stream, reader, &format!("fill-{i}")),
                format!("ok:fill-{i}")
            );
        }
        assert_eq!(counters.active.load(Ordering::Relaxed), CAP);

        // Every connection past the cap gets the typed line, then EOF —
        // not an unbounded thread, not a silent hang.
        for _ in 0..EXTRAS {
            let (_extra, mut extra_reader) = connect(addr);
            let mut line = String::new();
            extra_reader.read_line(&mut line).unwrap();
            assert_eq!(
                line,
                "{\"id\":\"\",\"kind\":\"overloaded\",\"error\":\"server at capacity \
                 (4 connections); retry later\"}\n"
            );
            line.clear();
            assert_eq!(
                extra_reader.read_line(&mut line).unwrap(),
                0,
                "EOF after rejection"
            );
        }
        assert_eq!(
            counters.rejected_overloaded.load(Ordering::Relaxed),
            EXTRAS as u64
        );

        // The well-behaved clients are unharmed by the reject storm.
        for (i, (stream, reader)) in clients.iter_mut().enumerate() {
            assert_eq!(
                request(stream, reader, &format!("again-{i}")),
                format!("ok:again-{i}")
            );
        }
    });
    assert_eq!(
        counters.accepted.load(Ordering::Relaxed),
        (CAP + EXTRAS) as u64
    );
}

#[test]
fn more_clients_than_workers_are_all_served_interleaved() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 5;
    let options = PoolOptions {
        workers: 2,
        ..PoolOptions::default()
    };
    let counters = with_pool(options, |addr, _| {
        let mut clients: Vec<(TcpStream, BufReader<TcpStream>)> =
            (0..CLIENTS).map(|_| connect(addr)).collect();
        // Round-robin across all clients each round: every connection
        // stays responsive even though workers < clients.
        for round in 0..ROUNDS {
            for (c, (stream, reader)) in clients.iter_mut().enumerate() {
                let query = format!("r{round}-c{c}");
                assert_eq!(request(stream, reader, &query), format!("ok:{query}"));
            }
        }
    });
    assert_eq!(
        counters.served_lines.load(Ordering::Relaxed),
        (CLIENTS * ROUNDS) as u64
    );
}
