//! Structural-sharing suite: consecutive session generations must share
//! every piece of state a mutation didn't touch **by pointer**, not by
//! copy — sharing is pinned with `Arc::ptr_eq` (via the pointer identities
//! `SessionView::sharing_fingerprint` exposes), never assumed.
//!
//! The contract under test: publishing generation *g+1* after
//! `add_table`/`remove_table` clones O(1 table) — the lake's untouched
//! `Arc<Table>` entries, every untouched table's block (its tuple
//! embeddings and, under D3L and Starmie, its column embeddings; all three
//! techniques), every posting set for values the table doesn't contain,
//! and the embedder are all the *same allocations* in both snapshots. An
//! add creates exactly one new `block:` and a remove drops exactly one.
//! And a **failed** mutation publishes nothing at all: the root snapshot
//! pointer itself is unchanged.
//!
//! The columns' cached value sets ride on that sharing: they belong to the
//! `Arc<Table>`, so an untouched table's sets are built once and are the
//! same allocation in every later generation, and a session opened from a
//! snapshot (which never stores them) derives them again and answers the
//! same.

use dust_core::{LakeSession, PipelineConfig, SearchTechnique};
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

/// The `block:` keys of a fingerprint.
fn block_keys(fingerprint: &BTreeMap<String, usize>) -> Vec<&str> {
    let keys = fingerprint.keys().filter(|key| key.starts_with("block:"));
    keys.map(String::as_str).collect()
}

/// `after` holds `before`'s blocks plus exactly `added` and minus exactly
/// `dropped`.
fn assert_one_block_changed(
    before: &BTreeMap<String, usize>,
    after: &BTreeMap<String, usize>,
    added: Option<&str>,
    dropped: Option<&str>,
    context: &str,
) {
    let mut expected = block_keys(before);
    expected.retain(|key| Some(*key) != dropped);
    expected.extend(added);
    expected.sort_unstable();
    assert_eq!(block_keys(after), expected, "{context}: blocks");
}

#[test]
fn add_table_shares_every_untouched_component_across_techniques() {
    for technique in TECHNIQUES {
        let context = format!("{technique:?}");
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::new(tiny_lake(), config);
        let before_view = session.view();
        let before = before_view.sharing_fingerprint();

        let table = incoming_table();
        let touched_values = value_set(&table);
        let new_name = table.name().to_string();
        session.add_table(table).unwrap();

        let after_view = session.view();
        assert_eq!(after_view.generation(), before_view.generation() + 1);
        let after = after_view.sharing_fingerprint();

        // Everything the add didn't touch is the same allocation: untouched
        // lake tables, every other table's block, postings of values the
        // table doesn't contain, and the embedder.
        assert_shared(
            &before,
            &after,
            |key| {
                key.strip_prefix("posting:")
                    .is_some_and(|v| touched_values.contains(v))
            },
            &context,
        );

        // The delta is one new block — the new table's tuple and, under
        // D3L and Starmie, column embeddings — and the new table's entries
        // exist only in g+1.
        let block = format!("block:{new_name}");
        assert_one_block_changed(&before, &after, Some(&block), None, &context);
        assert!(!before.contains_key(&format!("lake-table:{new_name}")));
        assert!(after.contains_key(&format!("lake-table:{new_name}")));
        assert!(
            after.contains_key(&block),
            "{context}: the block of the new table is missing"
        );
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
        let session = LakeSession::new(tiny_lake(), config);
        let victim = session.lake().table_names()[0].clone();
        let touched_values = value_set(session.lake().table(&victim).unwrap());

        let before_view = session.view();
        let before = before_view.sharing_fingerprint();
        session.remove_table(&victim).unwrap();
        let after_view = session.view();
        let after = after_view.sharing_fingerprint();

        let block = format!("block:{victim}");
        assert_shared(
            &before,
            &after,
            |key| {
                key == block
                    || key == format!("lake-table:{victim}")
                    || key
                        .strip_prefix("posting:")
                        .is_some_and(|v| touched_values.contains(v))
            },
            &context,
        );
        assert_one_block_changed(&before, &after, None, Some(&block), &context);
        assert!(
            !after.contains_key(&format!("lake-table:{victim}")),
            "{context}: removed table's lake entry must be gone"
        );
        assert!(
            !after.contains_key(&block),
            "{context}: removed table's block must be gone"
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
/// of them is still the generation-0 allocation at the end, under every
/// technique.
#[test]
fn sharing_survives_a_mutation_chain() {
    for technique in TECHNIQUES {
        let context = format!("{technique:?}, two-mutation chain");
        let config = PipelineConfig {
            search: technique,
            ..PipelineConfig::fast()
        };
        let session = LakeSession::new(tiny_lake(), config);
        let g0 = session.view();
        let fingerprint0 = g0.sharing_fingerprint();

        let added = incoming_table();
        let added_block = format!("block:{}", added.name());
        let mut touched_values = value_set(&added);
        session.add_table(added).unwrap();

        let victim = session.lake().table_names()[0].clone();
        touched_values.extend(value_set(session.lake().table(&victim).unwrap()));
        session.remove_table(&victim).unwrap();

        let g2 = session.view();
        assert_eq!(g2.generation(), 2);
        let fingerprint2 = g2.sharing_fingerprint();
        assert_shared(
            &fingerprint0,
            &fingerprint2,
            |key| {
                key.split_once(':').is_some_and(|(role, name)| {
                    ["block", "lake-table"].contains(&role) && name == victim
                }) || key
                    .strip_prefix("posting:")
                    .is_some_and(|v| touched_values.contains(v))
            },
            &context,
        );
        let victim_block = format!("block:{victim}");
        assert_one_block_changed(
            &fingerprint0,
            &fingerprint2,
            Some(&added_block),
            Some(&victim_block),
            &context,
        );
        // The generation-0 view still serves, pinned to its own snapshot.
        assert_eq!(g0.generation(), 0);
        assert!(g0.lake().table(&victim).is_ok());
    }
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
