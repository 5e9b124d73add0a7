//! Reads-never-block concurrency suite for the resident [`LakeSession`]:
//! queries run against immutable generation snapshots while mutations
//! publish new generations, and the two must never corrupt each other.
//!
//! The pinned guarantee (a linearizability check): under **any**
//! interleaving of concurrent queries and mutations, every query result
//! is **bit-identical** to a fresh `LakeSession::new` built over the lake
//! at that query's *observed generation* — across all three search
//! techniques. A concurrent reader can never see a torn state, a blend of
//! two generations, or a generation that never existed.
//!
//! Also pinned here: a panicking query worker degrades to its own slot's
//! typed `kind:"panic"` error — the batch's other slots, subsequent
//! queries, and subsequent mutations are untouched (nothing is poisoned,
//! because served state is immutable snapshots).

mod common;

use common::assert_same_result;
use dust_core::{DustResult, LakeSession, PipelineConfig, SearchTechnique, SessionOptions};
use dust_datagen::BenchmarkConfig;
use dust_table::{DataLake, Table};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

const TECHNIQUES: [SearchTechnique; 3] = [
    SearchTechnique::Overlap,
    SearchTechnique::D3l,
    SearchTechnique::Starmie,
];

fn tiny_lake() -> DataLake {
    BenchmarkConfig::tiny().generate().lake
}

/// Tables the mutator toggles in and out of the lake (initially absent).
fn extra_tables() -> Vec<Table> {
    vec![
        Table::builder("extra_parks")
            .column("Park Name", ["Delta Park", "Echo Park", "Foxtrot Park"])
            .column("Country", ["USA", "USA", "Canada"])
            .build()
            .unwrap(),
        Table::builder("extra_molecules")
            .column("Formula", ["C8H10N4O2", "C9H8O4"])
            .column("Mass", ["194.19", "180.16"])
            .build()
            .unwrap(),
    ]
}

/// One observation a concurrent reader made: which generation its view
/// pinned, and everything the session served from it.
struct Observation {
    generation: u64,
    reader: usize,
    round: usize,
    query: DustResult,
    similar: Vec<(String, usize, u64)>, // (table, row, score bits)
}

/// The linearizability check: concurrent readers record (generation,
/// results) while a mutator publishes new generations; afterwards every
/// observation is replayed against a fresh session built over the exact
/// lake that generation held. Any torn read — a result blending two
/// generations — cannot match any single rebuild and fails the suite.
#[test]
fn concurrent_reads_are_linearizable_at_their_observed_generation() {
    for technique in TECHNIQUES {
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let lake = tiny_lake();
        let probe = {
            let name = lake.query_names()[0].clone();
            lake.query(&name).unwrap().clone()
        };
        let session = LakeSession::new(lake, config.clone());

        // generation → the lake exactly as that generation served it;
        // recorded by the (single) mutator, which is the only writer
        let lakes: Mutex<BTreeMap<u64, DataLake>> = Mutex::new(BTreeMap::new());
        lakes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(0, session.lake().clone());
        let observations: Mutex<Vec<Observation>> = Mutex::new(Vec::new());

        std::thread::scope(|scope| {
            // the mutator: toggle extra tables in and out, recording the
            // lake content at each published generation
            scope.spawn(|| {
                for table in extra_tables() {
                    session.add_table(table.clone()).unwrap();
                    let view = session.view();
                    lakes
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(view.generation(), view.lake().clone());
                    session.remove_table(table.name()).unwrap();
                    let view = session.view();
                    lakes
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .insert(view.generation(), view.lake().clone());
                }
            });
            // concurrent readers: each round pins a view and records the
            // generation it observed next to everything it served
            for reader in 0..2usize {
                let session = &session;
                let observations = &observations;
                let probe = &probe;
                scope.spawn(move || {
                    for round in 0..4usize {
                        let view = session.view();
                        let query = view.query(probe, 4).unwrap();
                        let similar = view
                            .similar_tuples(probe, 6)
                            .into_iter()
                            .map(|r| (r.table, r.row, r.score.to_bits()))
                            .collect();
                        observations
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(Observation {
                                generation: view.generation(),
                                reader,
                                round,
                                query,
                                similar,
                            });
                    }
                });
            }
        });

        let lakes = lakes.into_inner().unwrap();
        let observations = observations.into_inner().unwrap();
        // both extras toggled in and out = 4 generations past the seed
        assert_eq!(session.generation(), 4, "{technique:?}: mutator fell short");
        assert!(!observations.is_empty());

        // replay: one fresh rebuild per observed generation, then every
        // observation at that generation must match it bit for bit
        let mut rebuilds: BTreeMap<u64, LakeSession> = BTreeMap::new();
        for o in &observations {
            let fresh = rebuilds.entry(o.generation).or_insert_with(|| {
                let lake = lakes
                    .get(&o.generation)
                    .unwrap_or_else(|| {
                        panic!(
                            "{technique:?}: observed generation {} never published",
                            o.generation
                        )
                    })
                    .clone();
                LakeSession::new(lake, config.clone())
            });
            let context = format!(
                "{technique:?}: reader {} round {} at generation {}",
                o.reader, o.round, o.generation
            );
            let expected = fresh.query(&probe, 4).unwrap();
            assert_same_result(&o.query, &expected, &context);
            let expected_similar: Vec<(String, usize, u64)> = fresh
                .similar_tuples(&probe, 6)
                .into_iter()
                .map(|r| (r.table, r.row, r.score.to_bits()))
                .collect();
            assert_eq!(
                o.similar, expected_similar,
                "{context}: similar_tuples differ"
            );
        }
    }
}

/// Generation-pinned reads: with a bounded history ring, `view_at(g)`
/// serves any retained generation **bit-identically** to a fresh session
/// built over the lake exactly as generation `g` held it — across all
/// three search techniques — and answers requests outside the window
/// with the typed `generation_evicted` error instead of silently serving
/// the wrong snapshot.
#[test]
fn pinned_generation_reads_are_bit_identical_to_fresh_rebuilds() {
    for technique in TECHNIQUES {
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let lake = tiny_lake();
        let probe = {
            let name = lake.query_names()[0].clone();
            lake.query(&name).unwrap().clone()
        };
        let options = SessionOptions { history: 3 };
        let session = LakeSession::with_options(lake, config.clone(), options);

        // Publish 4 generations (two extras toggled in and out),
        // recording the lake content at each.
        let mut lakes: BTreeMap<u64, DataLake> = BTreeMap::new();
        lakes.insert(0, session.lake().clone());
        for table in extra_tables() {
            session.add_table(table.clone()).unwrap();
            lakes.insert(session.generation(), session.lake().clone());
            session.remove_table(table.name()).unwrap();
            lakes.insert(session.generation(), session.lake().clone());
        }
        assert_eq!(session.generation(), 4, "{technique:?}: mutator fell short");

        // history: 3 retains generations 1..=3 behind the current 4.
        let (oldest, newest, retained) = session.history_window();
        assert_eq!((oldest, newest, retained), (1, 4, 3), "{technique:?}");

        for g in 1..=4u64 {
            let view = session
                .view_at(g)
                .unwrap_or_else(|e| panic!("{technique:?}: generation {g}: {e}"));
            assert_eq!(view.generation(), g);
            let fresh = LakeSession::with_options(lakes[&g].clone(), config.clone(), options);
            let context = format!("{technique:?}: pinned generation {g}");
            let expected = fresh.query(&probe, 4).unwrap();
            let served = view.query(&probe, 4).unwrap();
            assert_same_result(&served, &expected, &context);
            let expected_similar: Vec<(String, usize, u64)> = fresh
                .similar_tuples(&probe, 6)
                .into_iter()
                .map(|r| (r.table, r.row, r.score.to_bits()))
                .collect();
            let served_similar: Vec<(String, usize, u64)> = view
                .similar_tuples(&probe, 6)
                .into_iter()
                .map(|r| (r.table, r.row, r.score.to_bits()))
                .collect();
            assert_eq!(
                served_similar, expected_similar,
                "{context}: similar_tuples differ"
            );
        }

        // Generation 0 fell out of the 3-deep window: typed eviction.
        let err = session.view_at(0).unwrap_err();
        assert_eq!(err.kind(), "generation_evicted", "{technique:?}: {err}");
        assert!(
            err.to_string().contains("retained window"),
            "{technique:?}: {err}"
        );
        // A generation that never existed is the same typed error with a
        // future-facing message.
        let err = session.view_at(99).unwrap_err();
        assert_eq!(err.kind(), "generation_evicted", "{technique:?}: {err}");
        assert!(
            err.to_string().contains("not been published"),
            "{technique:?}: {err}"
        );
    }
}

/// Concurrent mutators never lose updates: mutations serialize against
/// each other (readers stay lock-free), so N racing adds land as N
/// distinct generations and every table is present afterwards.
#[test]
fn racing_mutators_serialize_without_losing_updates() {
    let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
    let extras = extra_tables();
    std::thread::scope(|scope| {
        for table in &extras {
            let session = &session;
            scope.spawn(move || session.add_table(table.clone()).unwrap());
        }
    });
    assert_eq!(session.generation(), extras.len() as u64);
    let lake = session.lake();
    for table in &extras {
        assert!(
            lake.table(table.name()).is_ok(),
            "{} lost in the race",
            table.name()
        );
    }
}

/// A worker that panics mid-batch surfaces as its own slot's typed
/// `panic` error; every other slot matches the sequential answer, and the
/// session keeps serving queries *and mutations* afterwards — the panic
/// poisoned nothing.
#[test]
fn a_panicking_worker_is_confined_to_its_slot_and_poisons_nothing() {
    let session = LakeSession::new(tiny_lake(), PipelineConfig::fast());
    let lake = session.lake();
    let queries: Vec<Table> = lake
        .query_names()
        .iter()
        .take(3)
        .map(|n| lake.query(n).unwrap().clone())
        .collect();
    drop(lake);
    assert!(queries.len() >= 2, "tiny lake should have several queries");

    let view = session.view();
    let victim = 1usize;
    let results = view.query_batch_injecting(&queries, 4, &|i| {
        if i == victim {
            panic!("injected worker fault");
        }
    });
    assert_eq!(results.len(), queries.len());
    for (i, result) in results.iter().enumerate() {
        if i == victim {
            let error = result.as_ref().expect_err("victim slot should fail");
            assert_eq!(error.kind(), "panic", "unexpected error: {error}");
            assert!(
                error.to_string().contains("injected worker fault"),
                "panic payload lost: {error}"
            );
        } else {
            let served = result.as_ref().expect("sibling slot should serve");
            let sequential = session.query(&queries[i], 4).unwrap();
            assert_same_result(served, &sequential, &format!("sibling slot {i}"));
        }
    }

    // the session is not poisoned: a clean batch, then a mutation, both fine
    let clean = session.query_batch(&queries, 4);
    assert!(clean.iter().all(Result::is_ok), "clean batch failed");
    session.add_table(extra_tables().remove(0)).unwrap();
    assert_eq!(session.generation(), 1);
}
