//! Structural-sharing suite: consecutive session generations must share
//! every piece of state a mutation didn't touch **by pointer**, not by
//! copy — sharing is pinned with `Arc::ptr_eq` (via the pointer identities
//! `SessionView::sharing_fingerprint` exposes), never assumed.
//!
//! The contract under test (the tentpole of the structural-sharing PR):
//! publishing generation *g+1* after `add_table`/`remove_table` clones
//! O(1 table + 1 shard) — the lake's untouched `Arc<Table>` entries, every
//! non-owning shard, every untouched per-table search-store entry (all
//! three techniques), every posting set for values the table doesn't
//! contain, and the embedder are all the *same allocations* in both
//! snapshots. And a **failed** mutation publishes
//! nothing at all: the root snapshot pointer itself is unchanged.
//!
//! The columns' cached value sets ride on that sharing: they belong to the
//! `Arc<Table>`, so an untouched table's sets are built once and are the
//! same allocation in every later generation, and a session opened from a
//! snapshot (which never stores them) derives them again and answers the
//! same.

use dust_core::{LakeSession, PipelineConfig, SearchTechnique, SessionOptions};
use dust_datagen::BenchmarkConfig;
use dust_table::{DataLake, Table};
use std::collections::{BTreeMap, HashSet};

const TECHNIQUES: [SearchTechnique; 3] = [
    SearchTechnique::Overlap,
    SearchTechnique::D3l,
    SearchTechnique::Starmie,
];

fn tiny_lake() -> DataLake {
    BenchmarkConfig::tiny().generate().lake
}

fn incoming_table() -> Table {
    Table::builder("sharing_probe_parks")
        .column("Park Name", ["Golf Park", "Hotel Park", "India Park"])
        .column("Country", ["USA", "Canada", "USA"])
        .build()
        .unwrap()
}

/// The normalized cell values of a table — exactly the posting keys an
/// add/remove of it may legitimately touch.
fn value_set(table: &Table) -> HashSet<String> {
    table
        .columns()
        .iter()
        .flat_map(|c| c.value_set().iter().map(str::to_string))
        .collect()
}

/// Assert that every fingerprint key of `before` that `may_change` does not
/// exempt maps to the **same pointer** in `after`.
fn assert_shared(
    before: &BTreeMap<String, usize>,
    after: &BTreeMap<String, usize>,
    may_change: impl Fn(&str) -> bool,
    context: &str,
) {
    let mut shared = 0usize;
    for (key, ptr) in before {
        if may_change(key) {
            continue;
        }
        assert_eq!(
            after.get(key),
            Some(ptr),
            "{context}: `{key}` must be pointer-shared across generations"
        );
        shared += 1;
    }
    assert!(
        shared > 0,
        "{context}: fingerprint compared zero shared keys — the probe is vacuous"
    );
}

#[test]
fn add_table_shares_every_untouched_component_across_techniques() {
    for technique in TECHNIQUES {
        let context = format!("{technique:?}");
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::with_options(
            tiny_lake(),
            config,
            SessionOptions {
                num_shards: 4,
                ..SessionOptions::default()
            },
        );
        let before_view = session.view();
        let before = before_view.sharing_fingerprint();

        let table = incoming_table();
        let touched_values = value_set(&table);
        let owner = session.shard_of(table.name());
        let new_name = table.name().to_string();
        session.add_table(table).unwrap();

        let after_view = session.view();
        assert_eq!(after_view.generation(), before_view.generation() + 1);
        let after = after_view.sharing_fingerprint();

        // Everything the add didn't touch is the same allocation: untouched
        // lake tables, non-owning shards, untouched per-table search
        // entries, postings of values the table doesn't contain, and the
        // embedder.
        assert_shared(
            &before,
            &after,
            |key| {
                key == format!("shard:{owner}")
                    || key
                        .strip_prefix("posting:")
                        .is_some_and(|v| touched_values.contains(v))
            },
            &context,
        );

        // The owning shard really did change (the delta went somewhere)…
        assert_ne!(
            before[&format!("shard:{owner}")],
            after[&format!("shard:{owner}")],
            "{context}: the owning shard must be a fresh copy"
        );
        // …and the new table's entries exist only in g+1.
        assert!(!before.contains_key(&format!("lake-table:{new_name}")));
        assert!(after.contains_key(&format!("lake-table:{new_name}")));
        if !matches!(technique, SearchTechnique::Overlap) {
            assert!(
                after.contains_key(&format!("columns:{new_name}")),
                "{context}: per-table search entry for the new table missing"
            );
        }
    }
}

#[test]
fn remove_table_shares_every_untouched_component_across_techniques() {
    for technique in TECHNIQUES {
        let context = format!("{technique:?}");
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::with_options(
            tiny_lake(),
            config,
            SessionOptions {
                num_shards: 4,
                ..SessionOptions::default()
            },
        );
        let victim = session.lake().table_names()[0].clone();
        let touched_values = value_set(session.lake().table(&victim).unwrap());
        let owner = session.shard_of(&victim);

        let before_view = session.view();
        let before = before_view.sharing_fingerprint();
        session.remove_table(&victim).unwrap();
        let after_view = session.view();
        let after = after_view.sharing_fingerprint();

        assert_shared(
            &before,
            &after,
            |key| {
                key == format!("shard:{owner}")
                    || key == format!("lake-table:{victim}")
                    || key == format!("columns:{victim}")
                    || key
                        .strip_prefix("posting:")
                        .is_some_and(|v| touched_values.contains(v))
            },
            &context,
        );
        assert!(
            !after.contains_key(&format!("lake-table:{victim}")),
            "{context}: removed table's lake entry must be gone"
        );
        assert!(
            !after.contains_key(&format!("columns:{victim}")),
            "{context}: removed table's search entry must be gone"
        );
    }
}

/// Satellite regression (duplicate-add fix): a rejected mutation must not
/// bump the generation, must not publish, and must not clone — the
/// published snapshot is the **same object** before and after, pinned by
/// pointer identity on the root.
#[test]
fn failed_mutations_leave_the_published_snapshot_pointer_identical() {
    let lake = tiny_lake();
    let resident = lake.table_names()[0].clone();
    let session = LakeSession::new(lake, PipelineConfig::fast());

    let before = session.view();
    let duplicate = Table::builder(resident.as_str())
        .column("Whatever", ["x", "y"])
        .build()
        .unwrap();
    assert!(session.add_table(duplicate).is_err());
    assert!(session.remove_table("no_such_table_anywhere").is_err());

    let after = session.view();
    assert_eq!(after.generation(), before.generation());
    assert_eq!(
        after.snapshot_id(),
        before.snapshot_id(),
        "a failed mutation published a new snapshot (or re-published a clone)"
    );

    // The session is not wedged: a legitimate mutation still publishes.
    session.add_table(incoming_table()).unwrap();
    assert_eq!(session.generation(), before.generation() + 1);
    assert_ne!(session.view().snapshot_id(), before.snapshot_id());
}

/// Sharing persists across a chain of mutations: state untouched by *any*
/// of them is still the generation-0 allocation at the end.
#[test]
fn sharing_survives_a_mutation_chain() {
    let session = LakeSession::with_options(
        tiny_lake(),
        PipelineConfig::fast(),
        SessionOptions {
            num_shards: 4,
            ..SessionOptions::default()
        },
    );
    let g0 = session.view();
    let fingerprint0 = g0.sharing_fingerprint();

    let added = incoming_table();
    let mut touched_shards = HashSet::new();
    let mut touched_tables = HashSet::new();
    let mut touched_values = value_set(&added);
    touched_shards.insert(session.shard_of(added.name()));
    session.add_table(added).unwrap();

    let victim = session.lake().table_names()[0].clone();
    touched_values.extend(value_set(session.lake().table(&victim).unwrap()));
    touched_shards.insert(session.shard_of(&victim));
    touched_tables.insert(victim.clone());
    session.remove_table(&victim).unwrap();

    let g2 = session.view();
    assert_eq!(g2.generation(), 2);
    assert_shared(
        &fingerprint0,
        &g2.sharing_fingerprint(),
        |key| {
            key.strip_prefix("shard:")
                .is_some_and(|i| touched_shards.contains(&i.parse::<usize>().unwrap()))
                || key
                    .strip_prefix("lake-table:")
                    .is_some_and(|t| touched_tables.contains(t))
                || key
                    .strip_prefix("columns:")
                    .is_some_and(|t| touched_tables.contains(t))
                || key
                    .strip_prefix("posting:")
                    .is_some_and(|v| touched_values.contains(v))
        },
        "two-mutation chain",
    );
    // The generation-0 view still serves, pinned to its own snapshot.
    assert_eq!(g0.generation(), 0);
    assert!(g0.lake().table(&victim).is_ok());
}

/// Address of every column's cached value set, per lake table (reading a
/// set that is already built returns it; it is never built twice).
fn value_set_addresses(lake: &DataLake) -> BTreeMap<String, Vec<usize>> {
    lake.tables()
        .map(|table| {
            let columns = table.columns().iter();
            let addresses = columns.map(|c| c.value_set().as_ptr() as usize).collect();
            (table.name().to_string(), addresses)
        })
        .collect()
}

#[test]
fn value_sets_are_built_once_and_shared_across_generations_and_queries() {
    for technique in [SearchTechnique::Overlap, SearchTechnique::D3l] {
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::new(tiny_lake(), config);
        // g0 stays pinned, so its tables stay alive: a copied table could
        // not land on the same addresses.
        let g0 = session.view();
        let before = value_set_addresses(g0.lake());
        let query = g0.lake().queries().next().unwrap().clone();
        let answer = session.query(&query, 5).unwrap();

        session.add_table(incoming_table()).unwrap();
        let victim = session.lake().table_names()[0].clone();
        session.remove_table(&victim).unwrap();
        session.query(&query, 5).unwrap();

        let g2 = session.view();
        let after = value_set_addresses(g2.lake());
        assert_eq!(after.len(), before.len());
        for (table, addresses) in &before {
            if *table != victim {
                assert_eq!(after.get(table), Some(addresses), "{technique:?}: {table}");
            }
        }
        assert_eq!(value_set_addresses(g0.lake()), before, "{technique:?}: g0");

        // Nothing of the sets is persisted: a reopened session derives
        // them on its first query and answers what the live one did.
        let dir =
            std::env::temp_dir().join(format!("dust-sharing-{}-{technique:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LakeSession::new(tiny_lake(), session.config().clone())
            .save(&dir)
            .unwrap();
        let reopened = LakeSession::open(&dir).unwrap();
        let recovered = reopened.query(&query, 5).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(recovered.tuples, answer.tuples, "{technique:?}");
        assert_eq!(recovered.retrieved_tables, answer.retrieved_tables);
        assert_eq!(recovered.candidate_tuples, answer.candidate_tuples);
    }
}
