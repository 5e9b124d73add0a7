//! The IMDB-like case-study benchmark (Sec. 6.6).
//!
//! The paper samples an IMDB table of ~500 recent movies (13 columns) into a
//! query table and 20 unionable data-lake tables averaging ~97 tuples. The
//! same construction is reproduced from the synthetic `movies` domain,
//! extended to 13 columns.

use crate::generate::{derive_table, generate_base_table, DeriveOptions};
use crate::vocab::{Domain, DomainColumn, ValueKind};
use dust_table::{DataLake, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the IMDB-like case study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImdbConfig {
    /// Number of movies in the base table.
    pub base_movies: usize,
    /// Number of unionable data-lake tables.
    pub lake_tables: usize,
    /// Number of rows in the query table.
    pub query_rows: usize,
    /// Average rows per data-lake table (as a fraction of the base).
    pub row_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig {
            base_movies: 500,
            lake_tables: 20,
            query_rows: 97,
            row_fraction: 0.2,
            seed: 0x1337,
        }
    }
}

/// The extended 13-column movie domain used by the case study.
pub fn imdb_domain() -> Domain {
    let mut domain = Domain::by_name("movies").expect("movies domain exists");
    domain.name = "imdb";
    // extend to 13 columns, mirroring the paper's title / director / genre /
    // budget / filming location / language / ... schema
    let extra = [
        DomainColumn {
            name: "Writer",
            alt_name: "Screenwriter",
            kind: ValueKind::Person,
            min: 0,
            max: 0,
            pool_a: &[],
            pool_b: &[],
        },
        DomainColumn {
            name: "Lead Actor",
            alt_name: "Starring",
            kind: ValueKind::Person,
            min: 0,
            max: 0,
            pool_a: &[],
            pool_b: &[],
        },
        DomainColumn {
            name: "Runtime Min",
            alt_name: "Duration",
            kind: ValueKind::Quantity,
            min: 70,
            max: 210,
            pool_a: &[],
            pool_b: &[],
        },
        DomainColumn {
            name: "Rating",
            alt_name: "IMDB Score",
            kind: ValueKind::Quantity,
            min: 1,
            max: 10,
            pool_a: &[],
            pool_b: &[],
        },
        DomainColumn {
            name: "Country",
            alt_name: "Production Country",
            kind: ValueKind::Country,
            min: 0,
            max: 0,
            pool_a: &[],
            pool_b: &[],
        },
        DomainColumn {
            name: "Box Office",
            alt_name: "Gross",
            kind: ValueKind::Money,
            min: 1,
            max: 20000,
            pool_a: &[],
            pool_b: &[],
        },
    ];
    domain.columns.extend(extra);
    domain
}

/// The generated case-study corpus.
#[derive(Debug, Clone)]
pub struct ImdbCaseStudy {
    /// The data lake (query + 20 unionable tables, all from the same base).
    pub lake: DataLake,
    /// Name of the query table.
    pub query_name: String,
    /// The full base movie table.
    pub base: Table,
}

/// Generate the case-study corpus.
pub fn generate_imdb(config: &ImdbConfig) -> ImdbCaseStudy {
    let domain = imdb_domain();
    let base = generate_base_table(&domain, config.base_movies, config.seed);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xCA5E);
    let mut lake = DataLake::new("imdb-case-study");

    // Query: a contiguous-ish random sample of query_rows movies over all columns.
    let query_fraction = (config.query_rows as f64 / config.base_movies as f64).clamp(0.01, 1.0);
    let query_options = DeriveOptions {
        min_row_fraction: query_fraction,
        max_row_fraction: query_fraction,
        min_columns: domain.num_columns(),
        keep_subject: true,
        alt_name_probability: 0.0,
    };
    let query_name = "imdb_query".to_string();
    let query = derive_table(&base, &query_name, &query_options, &mut rng);
    lake.add_query(query).expect("fresh lake");

    // Data-lake tables: row samples with full or partial schemas.
    let lake_options = DeriveOptions {
        min_row_fraction: config.row_fraction * 0.7,
        max_row_fraction: config.row_fraction * 1.3,
        min_columns: domain.num_columns().saturating_sub(3).max(4),
        keep_subject: true,
        alt_name_probability: 0.2,
    };
    for i in 0..config.lake_tables {
        let name = format!("imdb_dl_{i}");
        let table = derive_table(&base, &name, &lake_options, &mut rng);
        lake.add_ground_truth(query_name.clone(), name.clone());
        lake.add_table(table).expect("unique names");
    }

    ImdbCaseStudy {
        lake,
        query_name,
        base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ImdbConfig {
        ImdbConfig {
            base_movies: 120,
            lake_tables: 6,
            query_rows: 30,
            row_fraction: 0.25,
            seed: 5,
        }
    }

    #[test]
    fn domain_has_thirteen_columns() {
        assert_eq!(imdb_domain().num_columns(), 13);
    }

    #[test]
    fn case_study_shape_matches_config() {
        let study = generate_imdb(&small_config());
        assert_eq!(study.lake.num_tables(), 6);
        assert_eq!(study.lake.num_queries(), 1);
        let query = study.lake.query(&study.query_name).unwrap();
        assert_eq!(query.num_columns(), 13);
        assert!(
            (25..=35).contains(&query.num_rows()),
            "{}",
            query.num_rows()
        );
        assert_eq!(study.base.num_rows(), 120);
    }

    #[test]
    fn every_lake_table_is_unionable_with_the_query() {
        let study = generate_imdb(&small_config());
        let gt = study.lake.ground_truth();
        assert_eq!(gt.unionable_with(&study.query_name).len(), 6);
    }

    #[test]
    fn lake_tables_contribute_novel_titles() {
        // The case-study's point: data-lake tables contain movies that are
        // not in the query table.
        let study = generate_imdb(&small_config());
        let query = study.lake.query(&study.query_name).unwrap();
        let query_titles = query.column_by_name("Title").unwrap().value_set();
        let mut novel = 0usize;
        for table in study.lake.tables() {
            if let Some(col) = table
                .column_by_name("Title")
                .or_else(|| table.column_by_name("Movie Title"))
            {
                let titles = col.value_set();
                novel += titles.len() - titles.intersection_len(query_titles);
            }
        }
        assert!(novel > 0, "lake must contain titles absent from the query");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_imdb(&small_config());
        let b = generate_imdb(&small_config());
        assert_eq!(a.lake.table_names(), b.lake.table_names());
        assert_eq!(
            a.lake.query(&a.query_name).unwrap(),
            b.lake.query(&b.query_name).unwrap()
        );
    }
}
