//! The serve protocol end to end, through `dust_bench::serve`:
//!
//! * the wire transcript (`tests/data/serve_wire.jsonl`, recorded from the
//!   `serve` binary over stdin on the tiny benchmark lake) replays byte for
//!   byte, the `"secs"` value masked — every request kind, every rejected
//!   line, the pinned, evicted and durable `stats` / `checkpoint` answers;
//! * stdio requests, the add → query → remove → query mutation cycle,
//!   pinned and evicted reads, and rejected mutations;
//! * save → WAL-logged mutation → drop → recover, and the checkpoint after
//!   one add that keeps pack 1, writes under half of create's bytes and
//!   leaves exactly the manifest's files;
//! * `--search d3l` and `--search starmie` with a snapshot directory: add,
//!   remove, checkpoint, add again, drop and build again, every diverse and
//!   `similar` answer the memory-only server's, byte for byte;
//! * a TCP round trip: 6 reading clients on 2 workers plus a mutator,
//!   pinned reads, the pool counters in `stats`, and the shutdown
//!   checkpoint that leaves recovery nothing to replay;
//! * nesting past `json::MAX_DEPTH` (up to a line of 300 000 `[`) answers
//!   `bad_request` on stdio and TCP, and the server keeps serving;
//! * a batch of `serve::MAX_BATCH` (64) names answers, one of 65 is
//!   `too_large` before any name is resolved;
//! * an inline CSV of every santos lake and query table decodes to the
//!   table `Table::from_rows` builds from its records;
//! * `--lake-dir`: the same CSVs loaded from two directories persist
//!   byte-identical snapshot directories.

use dust_bench::json::{self, JsonValue};
use dust_bench::pool::PoolOptions;
use dust_bench::serve::{self, ServeOptions, ServerState};
use dust_core::{LakeSession, PipelineConfig, SearchTechnique, SessionOptions, SnapshotStore};
use dust_datagen::BenchmarkConfig;
use dust_table::{parse_csv, write_csv, CsvOptions, Table};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

/// A unique, self-cleaning snapshot directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dust-serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replace every `"secs":<number>` with `"secs":0`.
fn mask_secs(line: &str) -> String {
    let mut masked = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\"secs\":") {
        let value = &rest[at + 7..];
        let end = value
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | '-')))
            .unwrap_or(value.len());
        masked.push_str(&rest[..at + 7]);
        masked.push('0');
        rest = &value[end..];
    }
    masked.push_str(rest);
    masked
}

#[test]
fn the_wire_transcript_replays_byte_for_byte() {
    let transcript = include_str!("data/serve_wire.jsonl");
    let dir = TempDir::new("wire");
    let mut states: Vec<(String, ServerState)> = Vec::new();
    let mut replayed = 0;
    for line in transcript.lines() {
        let entry = json::parse(line).unwrap();
        let field = |key: &str| entry.get(key).and_then(JsonValue::as_str).unwrap();
        let session = field("session");
        if states.last().is_none_or(|(name, _)| name != session) {
            let snapshot_dir = match session {
                "memory" => None,
                "snapshot_dir" => Some(dir.0.to_string_lossy().into_owned()),
                other => panic!("unknown transcript session {other:?}"),
            };
            let options = ServeOptions {
                snapshot_dir,
                ..ServeOptions::default()
            };
            states.push((session.to_string(), serve::build_state(&options).unwrap()));
        }
        let state = &states.last().unwrap().1;
        let response = serve::handle_request(state, field("request"));
        assert_eq!(
            mask_secs(&response),
            field("response"),
            "request {}",
            field("request")
        );
        replayed += 1;
    }
    assert_eq!(states.len(), 2);
    assert_eq!(replayed, 81);
}

fn ask(state: &ServerState, request: &str) -> JsonValue {
    let response = serve::handle_request(state, request);
    json::parse(&response).unwrap_or_else(|e| panic!("unparseable {response:?}: {e}"))
}

/// The `result` of a request that must succeed.
fn result_of(state: &ServerState, request: &str) -> JsonValue {
    let response = ask(state, request);
    assert!(response.get("error").is_none(), "{request}: {response:?}");
    response.get("result").cloned().unwrap()
}

fn number(value: &JsonValue, key: &str) -> Option<usize> {
    value.get(key).and_then(JsonValue::as_usize)
}

fn kind(value: &JsonValue) -> Option<&str> {
    value.get("kind").and_then(JsonValue::as_str)
}

/// A session over the tiny lake, its first query's name, and that query as
/// inline CSV (a real query table, so alignment has something to union).
fn tiny_session() -> (LakeSession, String, String) {
    let lake = BenchmarkConfig::tiny().generate().lake;
    let query = lake.query_names()[0].clone();
    let csv = write_csv(lake.query(&query).unwrap(), CsvOptions::default());
    let session = LakeSession::new(lake, PipelineConfig::fast());
    (session, query, csv)
}

#[test]
fn stdio_requests_mutation_cycle_and_pinned_reads() {
    let (session, query, csv) = tiny_session();
    let state = ServerState::new(session, None, None);
    let inline = json::escape(&csv);

    for request in [
        format!(r#"{{"id":"one","query":"{query}","k":5}}"#),
        format!(r#"{{"id":"inline","csv":"{inline}","k":2}}"#),
    ] {
        let response = ask(&state, &request);
        assert_eq!(number(&response, "generation"), Some(0), "{response:?}");
        let tuples = response.get("result").and_then(|r| r.get("tuples"));
        assert!(
            matches!(tuples, Some(JsonValue::Array(items)) if !items.is_empty()),
            "{response:?}"
        );
    }
    let similar = ask(
        &state,
        &format!(r#"{{"id":"sim","query":"{query}","k":3,"mode":"similar"}}"#),
    );
    assert!(similar
        .get("result")
        .and_then(|r| r.get("similar"))
        .is_some());
    let batch = ask(
        &state,
        &format!(r#"{{"id":"batch","queries":["{query}","{query}"],"k":4}}"#),
    );
    assert!(matches!(batch.get("batch"), Some(JsonValue::Array(items)) if items.len() == 2));
    for bad in [
        r#"{"id":"bad","k":1}"#.to_string(),
        format!(r#"{{"id":"badmode","queries":["{query}"],"k":2,"mode":"similar"}}"#),
        r#"{"id":"nostore","mode":"checkpoint"}"#.to_string(),
    ] {
        let response = ask(&state, &bad);
        assert!(response.get("error").is_some(), "{response:?}");
        assert_eq!(kind(&response), Some("bad_request"), "{response:?}");
    }
    // the stdio path has no WAL and no pool; nothing retained yet
    let stats = result_of(&state, r#"{"id":"stats","mode":"stats"}"#);
    assert_eq!(stats.get("wal"), Some(&JsonValue::Null));
    assert_eq!(stats.get("server"), Some(&JsonValue::Null));
    let history = stats.get("history").unwrap();
    assert_eq!(
        number(history, "depth"),
        Some(SessionOptions::default().history)
    );
    assert_eq!(number(history, "retained"), Some(0));

    // add → query → remove → query: the deltas leave no residue
    let query_request = format!(r#"{{"id":"cycle","query":"{query}","k":5}}"#);
    let before = result_of(&state, &query_request);
    let grow =
        format!(r#"{{"id":"grow","mode":"add_table","name":"selftest_added","csv":"{inline}"}}"#);
    assert_eq!(number(&result_of(&state, &grow), "generation"), Some(1));
    let at_generation_1 = result_of(&state, &query_request);
    assert!(at_generation_1.get("tuples").is_some());
    let shrink = r#"{"id":"shrink","mode":"remove_table","table":"selftest_added"}"#;
    assert_eq!(number(&result_of(&state, shrink), "generation"), Some(2));
    assert_eq!(result_of(&state, &query_request), before);
    // exactly the lake's rows stay resident
    let stats = result_of(&state, r#"{"id":"rows","mode":"stats"}"#);
    let rows: usize = state.session.lake().tables().map(|t| t.num_rows()).sum();
    assert_eq!(number(&stats, "tuples"), Some(rows));

    // the history ring answers generations 0 and 1 bit for bit
    for (generation, expected) in [(0, &before), (1, &at_generation_1)] {
        let pin = format!(r#"{{"id":"pin","query":"{query}","k":5,"generation":{generation}}}"#);
        let response = ask(&state, &pin);
        assert_eq!(number(&response, "generation"), Some(generation));
        assert_eq!(response.get("result"), Some(expected));
    }
    let evicted = ask(
        &state,
        &format!(r#"{{"id":"pinx","query":"{query}","k":5,"generation":99}}"#),
    );
    assert_eq!(kind(&evicted), Some("generation_evicted"), "{evicted:?}");

    // a duplicate add and a missing remove are rejected without mutating
    let lake_table = state.session.lake().table_names()[0].clone();
    for bad in [
        format!(r#"{{"id":"dup","mode":"add_table","name":"{lake_table}","csv":"a\n1"}}"#),
        r#"{"id":"ghost","mode":"remove_table","table":"selftest_added"}"#.to_string(),
    ] {
        let response = ask(&state, &bad);
        assert!(response.get("error").is_some(), "{response:?}");
        assert_eq!(kind(&response), Some("table"), "{response:?}");
    }
    assert_eq!(state.session.generation(), 2);
}

#[test]
fn recovery_checkpoint_and_a_tcp_round_trip() {
    let (session, query, csv) = tiny_session();
    let inline = json::escape(&csv);
    let dir = TempDir::new("durable");
    let store = SnapshotStore::create(&dir.0, &session).unwrap();
    let created_bytes = store.last_checkpoint_bytes();
    let state = ServerState::new(session, Some(store), None);

    // the mutation lands in the WAL; stats see the un-checkpointed record
    let regrow =
        format!(r#"{{"id":"regrow","mode":"add_table","name":"selftest_saved","csv":"{inline}"}}"#);
    result_of(&state, &regrow);
    let query_request = format!(r#"{{"id":"cycle","query":"{query}","k":5}}"#);
    let expected = result_of(&state, &query_request);
    let expected_generation = state.session.generation();
    let stats = result_of(&state, r#"{"id":"ds","mode":"stats"}"#);
    let wal = stats.get("wal").unwrap();
    assert_eq!(number(wal, "records"), Some(1), "{stats:?}");
    assert!(
        number(wal, "bytes_since_checkpoint").unwrap() > 0,
        "{stats:?}"
    );

    // drop the serving state; recover from disk alone (WAL replay)
    drop(state);
    let (store, session, report) = SnapshotStore::open(&dir.0).unwrap();
    assert_eq!(report.replayed, 1);
    assert_eq!(session.generation(), expected_generation);
    let state = ServerState::new(session, Some(store), None);
    assert_eq!(result_of(&state, &query_request), expected);

    // one added table: the checkpoint keeps pack 1, writes the table
    // inline and little else, and truncates the WAL
    let checkpoint = result_of(&state, r#"{"id":"ck","mode":"checkpoint"}"#);
    assert_eq!(number(&checkpoint, "epoch"), Some(2), "{checkpoint:?}");
    assert_eq!(number(&checkpoint, "pack_epoch"), Some(1), "{checkpoint:?}");
    let written = number(&checkpoint, "checkpoint_bytes").unwrap() as u64;
    assert!(
        2 * written < created_bytes,
        "{written} of {created_bytes} bytes"
    );
    let mut files: Vec<String> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let named = [
        "MANIFEST",
        "seg-1-pack.bin",
        "seg-2-lake.bin",
        "seg-2-search.bin",
        "wal-2.log",
    ];
    assert_eq!(files, named);
    drop(state);
    let (store, session, report) = SnapshotStore::open(&dir.0).unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(session.generation(), expected_generation);
    let pool = PoolOptions {
        workers: 2,
        max_connections: 64,
    };
    let state = ServerState::new(session, Some(store), Some(pool));
    assert_eq!(result_of(&state, &query_request), expected);
    let stats = result_of(&state, r#"{"id":"cs","mode":"stats"}"#);
    let wal = stats.get("wal").unwrap();
    assert_eq!(number(wal, "records"), Some(0), "{stats:?}");
    assert_eq!(number(wal, "bytes_since_checkpoint"), Some(0), "{stats:?}");

    // more reading clients than workers plus a mutator against one live
    // pool; at the starting generation every answer is bit-identical
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tcp_request = |request: &str| -> JsonValue {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{request}").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        json::parse(line.trim()).unwrap_or_else(|e| panic!("unparseable {line:?}: {e}"))
    };
    let base = expected_generation as usize;
    let reading_clients = 6;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve::serve_tcp(&state, listener));
        let clients: Vec<_> = (0..reading_clients)
            .map(|_| {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let response = tcp_request(&query_request);
                        assert!(response.get("error").is_none(), "{response:?}");
                        let result = response.get("result").unwrap();
                        if number(&response, "generation").unwrap() == base {
                            assert_eq!(result, &expected);
                        }
                    }
                })
            })
            .collect();
        let mutator = scope.spawn(|| {
            let add = format!(
                r#"{{"id":"tadd","mode":"add_table","name":"tcp_added","csv":"{inline}"}}"#
            );
            let remove = r#"{"id":"tdel","mode":"remove_table","table":"tcp_added"}"#;
            for request in [add.as_str(), remove] {
                let response = tcp_request(request);
                assert!(response.get("error").is_none(), "{response:?}");
            }
        });
        for client in clients {
            client.join().unwrap();
        }
        mutator.join().unwrap();

        // add + remove: the same answer two generations later, and the
        // starting generation still answers when pinned
        let settled = tcp_request(&query_request);
        assert_eq!(number(&settled, "generation"), Some(base + 2));
        assert_eq!(settled.get("result"), Some(&expected));
        let pinned = tcp_request(&format!(
            r#"{{"id":"tpin","query":"{query}","k":5,"generation":{base}}}"#
        ));
        assert_eq!(number(&pinned, "generation"), Some(base));
        assert_eq!(pinned.get("result"), Some(&expected));

        // stats see the pool: every request above was one connection
        let stats = tcp_request(r#"{"id":"ts","mode":"stats"}"#);
        let result = stats.get("result").unwrap();
        let server_stats = result.get("server").unwrap();
        assert_eq!(number(server_stats, "workers"), Some(2), "{stats:?}");
        assert_eq!(number(server_stats, "max_connections"), Some(64));
        let min_requests = reading_clients * 3 + 2 + 2;
        assert!(number(server_stats, "accepted").unwrap() >= min_requests);
        assert!(number(server_stats, "served_lines").unwrap() >= min_requests);
        let history = result.get("history").unwrap();
        assert_eq!(number(history, "newest"), Some(base + 2), "{stats:?}");
        assert_eq!(number(history, "retained"), Some(2), "{stats:?}");

        // graceful shutdown: the accept loop and every connection drain
        let bye = tcp_request(r#"{"id":"bye","mode":"shutdown"}"#);
        let acknowledged = bye.get("result").and_then(|r| r.get("shutdown"));
        assert_eq!(acknowledged, Some(&JsonValue::Bool(true)));
        server.join().unwrap().unwrap();
    });
    serve::shutdown_checkpoint(&state);
    drop(state);

    // the shutdown checkpoint folded the TCP mutations into the snapshot
    let (_store, session, report) = SnapshotStore::open(&dir.0).unwrap();
    assert_eq!(report.replayed, 0);
    assert_eq!(session.generation(), expected_generation + 2);
}

/// The D3L and Starmie resident searches over the wire: a durable server on
/// `tiny` adds a table, removes one, checkpoints and adds the removed table
/// back; then it is dropped and built again from its directory. Every
/// diverse and `similar` answer of the durable server, before and after
/// the rebuild, is the answer of a memory-only server fed the same
/// mutations, byte for byte with `secs` masked.
#[test]
fn d3l_and_starmie_answer_durably_as_a_live_server_does() {
    for search in [SearchTechnique::D3l, SearchTechnique::Starmie] {
        let dir = TempDir::new(&format!("{search:?}"));
        let options = |snapshot_dir: Option<String>| ServeOptions {
            search,
            snapshot_dir,
            ..ServeOptions::default()
        };
        let durable_options = options(Some(dir.0.to_string_lossy().into_owned()));
        let live = serve::build_state(&options(None)).unwrap();
        let mut durable = serve::build_state(&durable_options).unwrap();
        let lake = live.session.lake();
        let query = lake.query_names()[0].clone();
        let victim = lake.table_names()[0].clone();
        let add = |name: &str, table: &Table| {
            let csv = json::escape(&write_csv(table, CsvOptions::default()));
            format!(r#"{{"id":"add","mode":"add_table","name":"{name}","csv":"{csv}"}}"#)
        };
        let steps = [
            add("wire_added", lake.query(&query).unwrap()),
            format!(r#"{{"id":"remove","mode":"remove_table","table":"{victim}"}}"#),
            r#"{"id":"ck","mode":"checkpoint"}"#.to_string(),
            add(&victim, lake.table(&victim).unwrap()),
        ];
        let reads = [
            format!(r#"{{"id":"q","query":"{query}","k":5}}"#),
            format!(r#"{{"id":"s","query":"{query}","k":5,"mode":"similar"}}"#),
        ];
        let same_reads = |durable: &ServerState, context: &str| {
            for read in &reads {
                let want = mask_secs(&serve::handle_request(&live, read));
                assert!(want.contains("\"result\""), "{search:?} {context}: {want}");
                let got = mask_secs(&serve::handle_request(durable, read));
                assert_eq!(got, want, "{search:?} {context}: {read}");
            }
        };
        same_reads(&durable, "built");
        for step in &steps {
            result_of(&durable, step);
            if !step.contains("checkpoint") {
                result_of(&live, step);
            }
            same_reads(&durable, step);
        }
        drop(durable);
        durable = serve::build_state(&durable_options).unwrap();
        assert_eq!(durable.session.generation(), live.session.generation());
        same_reads(&durable, "rebuilt from the directory");
    }
}

/// `{"id":"deep","mode":"stats","pad":…}` with `depth` nested containers
/// in all: the envelope object and `depth - 1` arrays.
fn nested_stats(depth: usize) -> String {
    let arrays = depth - 1;
    format!(
        r#"{{"id":"deep","mode":"stats","pad":{}{}}}"#,
        "[".repeat(arrays),
        "]".repeat(arrays)
    )
}

#[test]
fn hostile_nesting_is_a_bad_request_and_the_server_keeps_serving() {
    let (session, _, _) = tiny_session();
    let pool = PoolOptions {
        workers: 1,
        max_connections: 8,
    };
    let state = ServerState::new(session, None, Some(pool));
    let too_deep = |response: &JsonValue| {
        assert_eq!(kind(response), Some("bad_request"), "{response:?}");
        let error = response.get("error").and_then(JsonValue::as_str).unwrap();
        assert!(
            error.starts_with(&format!(
                "bad request: nesting deeper than {}",
                json::MAX_DEPTH
            )),
            "{error}"
        );
    };
    let hostile = [nested_stats(json::MAX_DEPTH + 1), "[".repeat(300_000)];

    // stdio: depth 64 is a request like any other, past it a bad request
    let deepest = ask(&state, &nested_stats(json::MAX_DEPTH));
    assert!(deepest.get("result").is_some(), "{deepest:?}");
    for line in &hostile {
        too_deep(&ask(&state, line));
    }
    result_of(&state, r#"{"id":"after","mode":"stats"}"#);

    // TCP: the same answers on one connection, which stays open
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve::serve_tcp(&state, listener));
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut round_trip = |request: &str| -> JsonValue {
            writeln!(stream, "{request}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            json::parse(line.trim()).unwrap_or_else(|e| panic!("unparseable {line:?}: {e}"))
        };
        let deepest = round_trip(&nested_stats(json::MAX_DEPTH));
        assert!(deepest.get("result").is_some(), "{deepest:?}");
        for line in &hostile {
            too_deep(&round_trip(line));
        }
        let stats = round_trip(r#"{"id":"after","mode":"stats"}"#);
        let server_stats = stats.get("result").and_then(|r| r.get("server")).unwrap();
        assert_eq!(number(server_stats, "served_lines"), Some(4), "{stats:?}");
        round_trip(r#"{"id":"bye","mode":"shutdown"}"#);
        server.join().unwrap().unwrap();
    });
}

#[test]
fn a_batch_of_more_than_max_batch_queries_is_too_large() {
    let (session, query, _) = tiny_session();
    let state = ServerState::new(session, None, None);
    let batch = |names: &[&str]| {
        let names: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!(r#"{{"id":"b","queries":[{}],"k":2}}"#, names.join(","))
    };
    assert_eq!(serve::MAX_BATCH, 64);

    let full = ask(&state, &batch(&vec![query.as_str(); serve::MAX_BATCH]));
    let slots = match full.get("batch") {
        Some(JsonValue::Array(slots)) => slots,
        _ => panic!("{full:?}"),
    };
    assert_eq!(slots.len(), serve::MAX_BATCH);
    assert!(
        slots.iter().all(|slot| slot.get("error").is_none()),
        "{full:?}"
    );

    // refused before any name is resolved: an unknown name answers the cap
    for names in [
        vec![query.as_str(); serve::MAX_BATCH + 1],
        vec!["no_such_query"; serve::MAX_BATCH + 1],
    ] {
        let refused = ask(&state, &batch(&names));
        assert_eq!(kind(&refused), Some("too_large"), "{refused:?}");
        assert_eq!(refused.get("id").and_then(JsonValue::as_str), Some("b"));
        let error = refused.get("error").and_then(JsonValue::as_str).unwrap();
        assert_eq!(error, "a batch names at most 64 queries (got 65)");
    }
    result_of(&state, r#"{"id":"after","mode":"stats"}"#);
}

#[test]
fn inline_csv_of_every_santos_table_decodes_as_from_rows_builds_it() {
    let lake = BenchmarkConfig::santos().generate().lake;
    let mut decoded = 0;
    for table in lake.tables().chain(lake.queries()) {
        let csv = write_csv(table, CsvOptions::default());
        // the records the CSV holds: the header and every rendered row
        let rows: Vec<Vec<String>> = table
            .rows()
            .map(|row| {
                row.values()
                    .iter()
                    .map(|v| v.render().into_owned())
                    .collect()
            })
            .collect();
        let want = Table::from_rows(table.name(), table.headers(), &rows).unwrap();
        let got = parse_csv(table.name(), &csv, CsvOptions::default()).unwrap();
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", table.name());
        decoded += 1;
    }
    assert!(decoded > 150, "{decoded} tables");
}

/// Every file of a directory, by name, with its bytes.
fn read_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The lake's name is persisted, so it must not be the directory the CSVs
/// were loaded from: the same CSVs under two paths of different lengths
/// give byte-identical snapshot directories.
#[test]
fn a_lake_loaded_from_two_paths_persists_the_same_bytes() {
    let lake = BenchmarkConfig::tiny().generate().lake;
    let csvs = [TempDir::new("csv"), TempDir::new("csv-under-a-longer-path")];
    let snapshots = [
        TempDir::new("csv-snapshot-a"),
        TempDir::new("csv-snapshot-b"),
    ];
    let persisted: Vec<Vec<(String, Vec<u8>)>> = csvs
        .iter()
        .zip(&snapshots)
        .map(|(csv_dir, snapshot_dir)| {
            std::fs::create_dir_all(&csv_dir.0).unwrap();
            for table in lake.tables() {
                let csv = write_csv(table, CsvOptions::default());
                std::fs::write(csv_dir.0.join(format!("{}.csv", table.name())), csv).unwrap();
            }
            let options = ServeOptions {
                lake_dir: Some(csv_dir.0.to_string_lossy().into_owned()),
                snapshot_dir: Some(snapshot_dir.0.to_string_lossy().into_owned()),
                ..ServeOptions::default()
            };
            let state = serve::build_state(&options).unwrap();
            assert_eq!(state.session.lake().num_tables(), lake.num_tables());
            read_files(&snapshot_dir.0)
        })
        .collect();
    assert!(!persisted[0].is_empty());
    assert_eq!(persisted[0], persisted[1]);
}
