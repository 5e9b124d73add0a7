//! Outer union of aligned tables (the "Creating Unionable Tuples" step).
//!
//! Using a [`crate::Alignment`], every data-lake tuple is re-expressed under
//! the query table's header: aligned columns keep their values (under the
//! query column's name), query columns with no aligned counterpart in the
//! source table are padded with nulls, and unaligned data-lake columns are
//! dropped (Example 4 drops `Park Phone`).

use crate::holistic::Alignment;
use dust_table::{Table, Tuple, Value};

/// Outer-union all data-lake tables into a list of unionable tuples under
/// the query table's header.
///
/// The returned tuples keep their provenance (source table and row index).
pub fn outer_union(query: &Table, tables: &[&Table], alignment: &Alignment) -> Vec<Tuple> {
    let headers: Vec<String> = query.headers().to_vec();
    let mut tuples = Vec::new();
    for table in tables {
        let mapping = alignment.mapping_for_table(table.name());
        if mapping.is_empty() {
            continue;
        }
        // query column -> source column index
        let mut source_for_query: Vec<Option<usize>> = vec![None; headers.len()];
        for (dl_col, q_col) in &mapping {
            if let (Some(q_idx), Some(dl_idx)) = (
                headers.iter().position(|h| h == q_col),
                table.column_index(dl_col),
            ) {
                source_for_query[q_idx] = Some(dl_idx);
            }
        }
        for row in 0..table.num_rows() {
            let values: Vec<Value> = source_for_query
                .iter()
                .map(|src| match src {
                    Some(col) => table.cell(row, *col).cloned().unwrap_or(Value::Null),
                    None => Value::Null,
                })
                .collect();
            tuples.push(Tuple::new(headers.clone(), values, table.name(), row));
        }
    }
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holistic::{AlignedCluster, ColumnRef};

    fn query() -> Table {
        Table::builder("query")
            .column("Park Name", ["River Park", "West Lawn Park"])
            .column("Supervisor", ["Vera Onate", "Paul Veliotis"])
            .column("City", ["Fresno", "Chicago"])
            .column("Country", ["USA", "USA"])
            .build()
            .unwrap()
    }

    fn table_d() -> Table {
        Table::builder("parks_d")
            .column("Park Name", ["Chippewa Park", "Lawler Park"])
            .column("Park City", ["Brandon, MN", "Chicago, IL"])
            .column("Park Country", ["USA", "USA"])
            .column("Park Phone", ["773 731-0380", "773 284-7328"])
            .column("Supervised by", ["Tim Erickson", "Enrique Garcia"])
            .build()
            .unwrap()
    }

    fn example_alignment() -> Alignment {
        Alignment {
            clusters: vec![
                AlignedCluster {
                    query_column: "Park Name".into(),
                    members: vec![ColumnRef::new("parks_d", "Park Name")],
                },
                AlignedCluster {
                    query_column: "Supervisor".into(),
                    members: vec![ColumnRef::new("parks_d", "Supervised by")],
                },
                AlignedCluster {
                    query_column: "City".into(),
                    members: vec![ColumnRef::new("parks_d", "Park City")],
                },
                AlignedCluster {
                    query_column: "Country".into(),
                    members: vec![ColumnRef::new("parks_d", "Park Country")],
                },
            ],
            discarded: vec![ColumnRef::new("parks_d", "Park Phone")],
            silhouette: None,
            num_clusters: 5,
        }
    }

    #[test]
    fn tuples_are_rewritten_under_query_headers() {
        let q = query();
        let d = table_d();
        let tuples = outer_union(&q, &[&d], &example_alignment());
        assert_eq!(tuples.len(), 2);
        let first = &tuples[0];
        assert_eq!(first.headers(), q.headers());
        assert_eq!(
            first.value_for("Park Name"),
            Some(&Value::text("Chippewa Park"))
        );
        assert_eq!(
            first.value_for("Supervisor"),
            Some(&Value::text("Tim Erickson"))
        );
        assert_eq!(first.value_for("City"), Some(&Value::text("Brandon, MN")));
        // the dropped Park Phone column is simply absent
        assert_eq!(first.arity(), 4);
        assert_eq!(first.source_table(), "parks_d");
    }

    #[test]
    fn missing_alignment_pads_with_nulls() {
        let q = query();
        let d = table_d();
        let mut alignment = example_alignment();
        alignment.clusters.retain(|c| c.query_column != "City");
        let tuples = outer_union(&q, &[&d], &alignment);
        assert!(tuples[0].value_for("City").unwrap().is_null());
    }

    #[test]
    fn tables_without_any_alignment_are_skipped() {
        let q = query();
        let unrelated = Table::builder("molecules")
            .column("Formula", ["C8H10N4O2"])
            .build()
            .unwrap();
        let tuples = outer_union(&q, &[&unrelated], &example_alignment());
        assert!(tuples.is_empty());
    }
}
