//! The untraced run: a real `serve` child driven over loopback TCP by
//! closed-loop clients, every end-to-end metric, and the correctness gate.

use crate::gen::{Inputs, Op, OpStream};
use crate::reference::{Answer, DiversityJudge, Reference};
use crate::report::Outcome;
use crate::server::{copy_dir, dir_bytes, Client, ServeChild};
use crate::spec::{
    Workload, CHECKPOINT_REPEATS, CLIENTS, RESTART_REPEATS, SETUP_REPEATS, VERIFY_EVERY, WAL_TAIL,
};
use crate::stats::{median, percentile, supports};
use dust_bench::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Each distinct read once, before the clock starts.
    WarmUp,
    /// The timed closed loop: the only exchanges whose latency counts.
    Timed,
    /// WAL-tail mutations before the kill, and the check after a restart.
    Tail,
}

/// One request and what came back.
struct Exchange {
    id: String,
    op: Op,
    millis: f64,
    response: Result<String, String>,
    phase: Phase,
    /// Held against the reference (every exchange is checked for a
    /// well-formed, error-free answer at a plausible generation).
    verify: bool,
}

fn exchange(client: &mut Client, inputs: &Inputs, phase: Phase, id: String, op: Op) -> Exchange {
    let line = inputs.request_line(&id, op);
    let sent = Instant::now();
    let response = client.round_trip(&line);
    Exchange {
        id,
        op,
        millis: sent.elapsed().as_secs_f64() * 1e3,
        response,
        phase,
        verify: true,
    }
}

/// One client's share of the distinct requests, each sent once, untimed:
/// page cache, allocator and every lazily built structure are warm before
/// the clock starts.
fn warm_up(index: usize, client: &mut Client, inputs: &Inputs) -> Vec<Exchange> {
    (0..inputs.queries.len())
        .flat_map(|q| [Op::Query(q), Op::Similar(q)])
        .enumerate()
        .filter(|(i, _)| i % CLIENTS == index)
        .map(|(i, op)| exchange(client, inputs, Phase::WarmUp, format!("w{index}-{i}"), op))
        .collect()
}

/// One client's closed loop for `seconds`: the next request leaves when
/// the previous answer has arrived. Returns the exchanges and the instants
/// the loop started and ended.
fn timed_loop(
    index: usize,
    client: &mut Client,
    stream: &mut OpStream,
    inputs: &Inputs,
    start: &Barrier,
    seconds: f64,
) -> (Vec<Exchange>, Instant, Instant) {
    let mut exchanges = Vec::new();
    start.wait();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut reads = 0;
    while Instant::now() < deadline {
        let op = stream.next().expect("the stream is endless");
        let id = format!("c{index}-{}", exchanges.len());
        let mut ex = exchange(client, inputs, Phase::Timed, id, op);
        if !matches!(op, Op::Mutation(_)) {
            ex.verify = reads % VERIFY_EVERY == 0;
            reads += 1;
        }
        exchanges.push(ex);
    }
    (exchanges, started, Instant::now())
}

/// Run `work` once per client, each on a thread of its own, and collect
/// what they return in client order.
fn on_each_client<T: Send>(
    clients: &mut [Client],
    streams: &mut [OpStream],
    work: impl Fn(usize, &mut Client, &mut OpStream) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(index, (client, stream))| {
                let work = &work;
                scope.spawn(move || work(index, client, stream))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The generation an answer names and its `result` object, or what is
/// wrong with the answer.
type Parsed = Result<(u64, JsonValue), String>;

/// Parse a response and require the echoed id, a `result` and no `kind`.
fn parse_response(ex: &Exchange) -> Parsed {
    let text = ex
        .response
        .as_ref()
        .map_err(|e| format!("{}: {e}", ex.id))?;
    let parsed = json::parse(text).map_err(|e| format!("{}: unparseable answer: {e}", ex.id))?;
    if let Some(kind) = parsed.get("kind").and_then(JsonValue::as_str) {
        return Err(format!("{}: typed error {kind}: {text}", ex.id));
    }
    if parsed.get("id").and_then(JsonValue::as_str) != Some(ex.id.as_str()) {
        return Err(format!("{}: answer carries another id: {text}", ex.id));
    }
    let result = parsed
        .get("result")
        .ok_or_else(|| format!("{}: no result: {text}", ex.id))?;
    // Reads echo the generation beside the result, mutations inside it.
    let generation = parsed
        .get("generation")
        .or_else(|| result.get("generation"))
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| format!("{}: no generation: {text}", ex.id))?;
    Ok((generation as u64, result.clone()))
}

/// What the correctness gate hands back for the metrics.
struct Gate {
    /// Round trips (ms) in the timed window, by kind of request.
    latencies: BTreeMap<&'static str, Vec<f64>>,
    /// Average Diversity of each warm-up selection under the fixed encoder.
    diversity: Vec<f64>,
    /// Correct answers in the timed window.
    answered_in_window: usize,
}

/// Hold every exchange of every connection against the protocol, the
/// generations it may see and — where `verify` is set — the reference.
/// Every exchange counts as attempted, every miss as failed.
fn check_exchanges(
    out: &mut Outcome,
    per_client: &[Vec<Exchange>],
    reference: &mut Reference,
    acknowledged: u64,
) -> Gate {
    let parsed: Vec<Vec<Parsed>> = per_client
        .iter()
        .map(|exchanges| exchanges.iter().map(parse_response).collect())
        .collect();
    let answered = per_client.iter().flatten().zip(parsed.iter().flatten());
    reference.prepare(answered.filter_map(|(ex, parsed)| match (ex.op, parsed) {
        (Op::Mutation(_), _) | (_, Err(_)) => None,
        (op, Ok((generation, _))) => ex.verify.then_some((*generation, op)),
    }));
    let mut judge = DiversityJudge::new();
    let mut gate = Gate {
        latencies: BTreeMap::new(),
        diversity: Vec::new(),
        answered_in_window: 0,
    };
    for (index, (exchanges, parsed)) in per_client.iter().zip(parsed).enumerate() {
        // What this connection may see: the writer reads exactly the
        // generation its own acknowledged mutations add up to; any other
        // connection never sees a generation go backwards.
        let (mut acked, mut last_seen) = (0u64, 0u64);
        for (ex, parsed) in exchanges.iter().zip(parsed) {
            out.attempted += 1;
            let (generation, result) = match parsed {
                Ok(parsed) => parsed,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            let mut good = true;
            match ex.op {
                Op::Mutation(j) => {
                    if generation != j + 1 || j != acked {
                        good = false;
                        out.fail(format!(
                            "{}: mutation {j} acknowledged as generation {generation} after \
                             {acked} acks",
                            ex.id
                        ));
                    }
                    acked = j + 1;
                }
                op => {
                    let plausible = match index {
                        0 => generation == acked,
                        _ => generation >= last_seen && generation <= acknowledged,
                    };
                    last_seen = generation;
                    if !plausible {
                        good = false;
                        out.fail(format!(
                            "{}: read at impossible generation {generation}",
                            ex.id
                        ));
                    } else if ex.verify {
                        let got = Answer::from_result(&result);
                        if got.as_ref() != Some(reference.expected(generation, op)) {
                            good = false;
                            out.fail(format!(
                                "{}: answer at generation {generation} differs from the reference",
                                ex.id
                            ));
                        } else if let (
                            Phase::WarmUp,
                            Op::Query(q),
                            Some(Answer::Diverse { tuples, .. }),
                        ) = (ex.phase, op, got)
                        {
                            // One score per distinct query table, at
                            // generation 0: the same for a seed on every run.
                            let scores = judge.score(q, reference.query_table(q), &tuples);
                            gate.diversity.push(scores.average);
                        }
                    }
                }
            }
            if ex.phase == Phase::Timed {
                gate.answered_in_window += usize::from(good);
                let kind = match ex.op {
                    Op::Query(_) => "query",
                    Op::Similar(_) => "similar",
                    Op::Mutation(j) if j % 2 == 0 => "remove_table",
                    Op::Mutation(_) => "add_table",
                };
                gate.latencies.entry(kind).or_default().push(ex.millis);
            }
        }
    }
    gate
}

/// Run `workload` for `seconds` of timed load and measure every
/// end-to-end metric. `scratch` is an empty directory this run owns.
pub fn run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    serve_bin: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = Inputs::generate(workload.lake, seed);
    let lake_dir = scratch.join("lake");
    inputs
        .write_lake_dir(&lake_dir)
        .map_err(|e| format!("cannot write the lake: {e}"))?;

    // ---- set-up: cold builds from the lake directory; the last one serves
    let mut startups = Vec::new();
    let mut server = None;
    let live_dir = scratch.join("snapshot");
    for _ in 0..SETUP_REPEATS {
        drop(server.take());
        let _ = std::fs::remove_dir_all(&live_dir);
        let child = ServeChild::spawn(serve_bin, workload, &lake_dir, Some(&live_dir))?;
        startups.push(child.startup().as_secs_f64());
        server = Some(child);
    }
    let server = server.expect("at least one set-up");
    out.metrics.insert("setup_s", median(&startups));
    out.metrics.insert(
        "stored_bytes_per_lake_byte",
        dir_bytes(&live_dir)? as f64 / inputs.lake_csv_bytes() as f64,
    );

    // ---- warm-up, then the timed closed loop ------------------------------
    // Consecutive connections land on different pool workers (round-robin).
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()))
        .collect::<Result<_, _>>()?;
    let mut streams: Vec<OpStream> = (0..CLIENTS)
        .map(|c| OpStream::new(&inputs, seed, c))
        .collect();
    let warm: Vec<Vec<Exchange>> =
        on_each_client(&mut clients, &mut streams, |index, client, _| {
            warm_up(index, client, &inputs)
        });
    // Read before the churn starts: what is resident once every distinct
    // request has been served. The peak under churn (printed below) is
    // three times that and moves by a fifth from run to run with the
    // timing of checkpoints against queries, too much for a bound.
    out.metrics.insert("server_rss_mb", server.peak_rss_mb()?);
    let start = Barrier::new(CLIENTS);
    let timed = on_each_client(&mut clients, &mut streams, |index, client, stream| {
        timed_loop(index, client, stream, &inputs, &start, seconds)
    });
    let started = timed.iter().map(|t| t.1).min().expect("clients");
    let ended = timed.iter().map(|t| t.2).max().expect("clients");
    let wall = (ended - started).as_secs_f64();
    let mut per_client: Vec<Vec<Exchange>> = warm
        .into_iter()
        .zip(timed)
        .map(|(mut warm, timed)| {
            warm.extend(timed.0);
            warm
        })
        .collect();

    // ---- tail on the writer's connection: checkpoints, WAL tail, stats ----
    let writer = &mut clients[0];
    let mut checkpoints = Vec::new();
    for i in 0..CHECKPOINT_REPEATS {
        out.attempted += 1;
        let sent = Instant::now();
        let response = writer.round_trip(&format!("{{\"id\":\"ck{i}\",\"mode\":\"checkpoint\"}}"));
        checkpoints.push(sent.elapsed().as_secs_f64() * 1e3);
        let done = response.as_ref().ok().and_then(|r| json::parse(r).ok());
        if done.and_then(|d| d.get("result")?.get("checkpoint").cloned())
            != Some(JsonValue::Bool(true))
        {
            out.fail(format!("ck{i}: checkpoint not acknowledged: {response:?}"));
        }
    }
    out.metrics.insert("checkpoint_ms", median(&checkpoints));
    for i in 0..WAL_TAIL {
        let op = streams[0].next_mutation();
        per_client[0].push(exchange(writer, &inputs, Phase::Tail, format!("t{i}"), op));
    }
    let acknowledged = streams[0].mutations();
    let stats_of = |client: &mut Client| -> Result<JsonValue, String> {
        json::parse(&client.round_trip("{\"id\":\"stats\",\"mode\":\"stats\"}")?)
    };
    out.attempted += 1;
    match stats_of(writer) {
        Ok(stats) => {
            let at = |path: &[&str]| {
                path.iter()
                    .try_fold(&stats, |v, key| v.get(key))
                    .and_then(JsonValue::as_usize)
            };
            if at(&["generation"]) != Some(acknowledged as usize)
                || at(&["result", "wal", "records"]) != Some(WAL_TAIL)
                || at(&["result", "server", "rejected_overloaded"]) != Some(0)
                || at(&["result", "server", "lines_too_long"]) != Some(0)
            {
                out.fail(format!(
                    "stats before the kill: want generation {acknowledged}, {WAL_TAIL} WAL \
                     records, nothing rejected: {stats:?}"
                ));
            }
        }
        Err(e) => out.fail(format!("stats before the kill: {e}")),
    }
    println!(
        "info: {} peak resident set under churn (VmHWM before the kill) {:.1} MB",
        workload.name,
        server.peak_rss_mb()?
    );
    drop(clients);
    server.kill();

    // ---- restarts from byte-identical copies of the crashed directory -----
    let mut reference = Reference::new(&inputs, workload);
    let mut restarts = Vec::new();
    for i in 0..RESTART_REPEATS {
        let copy = scratch.join(format!("restart-{i}"));
        copy_dir(&live_dir, &copy)?;
        let child = ServeChild::spawn(serve_bin, workload, &lake_dir, Some(&copy))?;
        restarts.push(child.startup().as_secs_f64());
        let mut client = Client::connect(child.addr())?;
        out.attempted += 1;
        let generation = stats_of(&mut client)
            .ok()
            .and_then(|s| s.get("generation")?.as_usize());
        if generation != Some(acknowledged as usize) {
            out.fail(format!(
                "restart {i}: recovered generation {generation:?}, acknowledged {acknowledged}"
            ));
        }
        let op = Op::Query(i % inputs.queries.len());
        per_client.push(vec![exchange(
            &mut client,
            &inputs,
            Phase::Tail,
            format!("r{i}"),
            op,
        )]);
        drop(client);
        child.kill();
        let _ = std::fs::remove_dir_all(&copy);
    }
    out.metrics.insert("restart_s", median(&restarts));

    // ---- the correctness gate over everything that was exchanged ----------
    let mut gate = check_exchanges(&mut out, &per_client, &mut reference, acknowledged);
    let latencies = &mut gate.latencies;
    let mut p50 = |kind: &str| -> Result<(f64, usize), String> {
        let samples = latencies.remove(kind).unwrap_or_default();
        if samples.is_empty() {
            return Err(format!(
                "{}: no {kind} was timed in {seconds} s",
                workload.name
            ));
        }
        Ok((percentile(&samples, 50.0), samples.len()))
    };
    let (query, similar, add, remove) = (
        p50("query")?,
        p50("similar")?,
        p50("add_table")?,
        p50("remove_table")?,
    );
    // The writer alternates two operations of unequal cost, so the median
    // of the mixed samples would sit between two modes and jump from run
    // to run; half the median replace (remove + add) does not.
    let mutation = ((add.0 + remove.0) / 2.0, add.1 + remove.1);
    for (metric, (value, n)) in [
        ("query_p50_ms", query),
        ("similar_p50_ms", similar),
        ("mutation_p50_ms", mutation),
    ] {
        if !supports(n, 50.0) {
            eprintln!(
                "warning: {} {metric} rests on {n} samples, fewer than ten on each side of it",
                workload.name
            );
        }
        out.metrics.insert(metric, value);
        out.samples.insert(metric, n);
    }
    out.metrics
        .insert("ops_per_s", gate.answered_in_window as f64 / wall);
    out.samples.insert("ops_per_s", gate.answered_in_window);
    let diversity = gate.diversity;
    if diversity.is_empty() {
        return Err(format!("{}: no diverse answer was verified", workload.name));
    }
    out.metrics.insert(
        "diversity_avg",
        diversity.iter().sum::<f64>() / diversity.len() as f64,
    );
    out.samples.insert("diversity_avg", diversity.len());
    out.samples.insert("setup_s", startups.len());
    out.samples.insert("restart_s", restarts.len());
    out.samples.insert("checkpoint_ms", checkpoints.len());
    Ok(out)
}
