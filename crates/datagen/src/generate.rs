//! Base-table generation and select/project derivation of data-lake tables.
//!
//! Both TUS and SANTOS construct their corpora by *selecting rows* and
//! *projecting columns* of a set of base tables; tables derived from the
//! same base table are unionable. The same recipe is used here
//! (DESIGN.md §2).

use crate::vocab::Domain;
use dust_table::{Column, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generate a base table for a domain with `rows` rows.
///
/// The subject (first) column gets near-unique values; other columns are
/// sampled from the domain's vocabularies.
pub fn generate_base_table(domain: &Domain, rows: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB45E);
    let mut columns: Vec<Column> = Vec::with_capacity(domain.num_columns());
    for (idx, spec) in domain.columns.iter().enumerate() {
        let mut values = Vec::with_capacity(rows);
        for row in 0..rows {
            let mut v = spec.generate(&mut rng);
            if idx == 0 {
                // make the subject column near-unique so derived tables can
                // contribute genuinely new entities
                v = format!("{v} {}", row_tag(row));
            }
            values.push(v);
        }
        columns.push(Column::from_strings(spec.name, values));
    }
    Table::from_columns(domain.name, columns).expect("domains have at least one column")
}

/// A human-looking disambiguation suffix for subject values (avoids plain
/// numeric ids dominating the token space).
fn row_tag(row: usize) -> String {
    const TAGS: [&str; 20] = [
        "I", "II", "III", "IV", "V", "North", "South", "East", "West", "Upper", "Lower", "Annex",
        "Heights", "Grove", "Point", "Ridge", "Bend", "Hollow", "Terrace", "Court",
    ];
    if row < TAGS.len() {
        TAGS[row].to_string()
    } else {
        format!("{} {}", TAGS[row % TAGS.len()], row / TAGS.len() + 1)
    }
}

/// Options controlling how a table is derived from a base table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeriveOptions {
    /// Minimum fraction of the base rows to keep.
    pub min_row_fraction: f64,
    /// Maximum fraction of the base rows to keep.
    pub max_row_fraction: f64,
    /// Minimum number of columns to keep.
    pub min_columns: usize,
    /// Always keep the subject (first) column — the SANTOS property that
    /// every derived table shares a binary relationship with its base.
    pub keep_subject: bool,
    /// Probability of renaming a kept column to its alternative header.
    pub alt_name_probability: f64,
}

impl Default for DeriveOptions {
    fn default() -> Self {
        DeriveOptions {
            min_row_fraction: 0.2,
            max_row_fraction: 0.7,
            min_columns: 2,
            keep_subject: false,
            alt_name_probability: 0.3,
        }
    }
}

/// Derive one table from a base table by row selection and column projection.
pub fn derive_table(base: &Table, name: &str, options: &DeriveOptions, rng: &mut StdRng) -> Table {
    let total_rows = base.num_rows();
    let total_cols = base.num_columns();
    let lo = ((total_rows as f64) * options.min_row_fraction).max(1.0) as usize;
    let hi = ((total_rows as f64) * options.max_row_fraction).max(lo as f64) as usize;
    let take_rows = rng.gen_range(lo..=hi.max(lo)).min(total_rows);

    // random row sample without replacement
    let mut row_indices: Vec<usize> = (0..total_rows).collect();
    for i in 0..take_rows {
        let j = rng.gen_range(i..total_rows);
        row_indices.swap(i, j);
    }
    let mut selected_rows = row_indices[..take_rows].to_vec();
    selected_rows.sort_unstable();

    // random column projection
    let min_cols = options.min_columns.clamp(1, total_cols);
    let take_cols = rng.gen_range(min_cols..=total_cols);
    let mut col_indices: Vec<usize> = (0..total_cols).collect();
    for i in 0..take_cols {
        let j = rng.gen_range(i..total_cols);
        col_indices.swap(i, j);
    }
    let mut selected_cols = col_indices[..take_cols].to_vec();
    if options.keep_subject && !selected_cols.contains(&0) {
        selected_cols[0] = 0;
    }
    selected_cols.sort_unstable();
    selected_cols.dedup();

    let projected = base
        .project(&selected_cols, name)
        .expect("column indices are in bounds");
    let mut derived = projected
        .select(&selected_rows, name)
        .expect("row selection preserves schema");

    // optional header heterogeneity
    if options.alt_name_probability > 0.0 {
        if let Some(domain) = Domain::by_name(base.name()) {
            let mut columns: Vec<Column> = derived.columns().to_vec();
            for col in &mut columns {
                if let Some(spec) = domain.columns.iter().find(|c| c.name == col.name()) {
                    if rng.gen_bool(options.alt_name_probability) {
                        col.set_name(spec.alt_name);
                    }
                }
            }
            derived = Table::from_columns(name, columns).expect("rename keeps schema valid");
        }
    }
    derived
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_table_has_requested_shape_and_unique_subjects() {
        let domain = Domain::by_name("parks").unwrap();
        let base = generate_base_table(&domain, 50, 7);
        assert_eq!(base.num_rows(), 50);
        assert_eq!(base.num_columns(), domain.num_columns());
        let distinct = base.column(0).unwrap().distinct_count();
        assert!(
            distinct as f64 >= 0.9 * 50.0,
            "subjects should be near-unique, got {distinct}"
        );
    }

    #[test]
    fn base_generation_is_deterministic_per_seed() {
        let domain = Domain::by_name("movies").unwrap();
        let a = generate_base_table(&domain, 20, 1);
        let b = generate_base_table(&domain, 20, 1);
        let c = generate_base_table(&domain, 20, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn derived_tables_are_projections_and_selections() {
        let domain = Domain::by_name("schools").unwrap();
        let base = generate_base_table(&domain, 40, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let derived = derive_table(&base, "schools_1", &DeriveOptions::default(), &mut rng);
        assert!(derived.num_rows() <= base.num_rows());
        assert!(derived.num_rows() >= 1);
        assert!(derived.num_columns() >= 2);
        assert!(derived.num_columns() <= base.num_columns());
        assert_eq!(derived.name(), "schools_1");
        // every derived row exists in the base subject column (modulo projection)
        if let Some(subject) = derived.column_by_name("School Name") {
            let base_values = base.column(0).unwrap().value_set();
            for v in subject.value_set().iter() {
                assert!(base_values.contains(v));
            }
        }
    }

    #[test]
    fn keep_subject_forces_the_first_column() {
        let domain = Domain::by_name("teams").unwrap();
        let base = generate_base_table(&domain, 30, 4);
        let options = DeriveOptions {
            keep_subject: true,
            alt_name_probability: 0.0,
            ..DeriveOptions::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..10 {
            let t = derive_table(&base, &format!("t_{i}"), &options, &mut rng);
            assert_eq!(t.headers()[0], "Team", "subject column must always survive");
        }
    }

    #[test]
    fn alt_names_introduce_header_heterogeneity() {
        let domain = Domain::by_name("parks").unwrap();
        let base = generate_base_table(&domain, 30, 4);
        let options = DeriveOptions {
            alt_name_probability: 1.0,
            ..DeriveOptions::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let t = derive_table(&base, "parks_x", &options, &mut rng);
        // with probability 1 every kept column is renamed
        for header in t.headers() {
            assert!(domain.columns.iter().any(|c| c.alt_name == *header));
        }
    }
}
