//! Holistic column alignment (Sec. 3.3, Appendix A.1.1).

use dust_cluster::{
    agglomerative_constrained_from_matrix, best_cut_by_silhouette_from_matrix,
    clusters_from_assignment, Linkage,
};
use dust_embed::{
    ColumnEncoder, ColumnSerialization, Distance, PairwiseMatrix, PretrainedModel, Vector,
};
use dust_table::{Column, Table};
use serde::{Deserialize, Serialize};

/// A reference to one column of one table.
// The derived PartialOrd compares two Strings — a total order with no
// floats — so the workspace partial_cmp ban does not apply here.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    /// Table name.
    pub table: String,
    /// Column header.
    pub column: String,
}

impl ColumnRef {
    /// Create a column reference.
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: table.into(),
            column: column.into(),
        }
    }
}

/// One aligned cluster: a query column and the data-lake columns aligned to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlignedCluster {
    /// The query column this cluster is anchored to.
    pub query_column: String,
    /// Data-lake columns aligned to the query column (possibly empty).
    pub members: Vec<ColumnRef>,
}

/// The result of holistic column alignment.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Alignment {
    /// One cluster per query column that received an anchor cluster.
    pub clusters: Vec<AlignedCluster>,
    /// Data-lake columns whose cluster contained no query column (discarded).
    pub discarded: Vec<ColumnRef>,
    /// Silhouette score of the chosen cut (None when undefined).
    pub silhouette: Option<f64>,
    /// Number of clusters in the chosen cut (before discarding).
    pub num_clusters: usize,
}

impl Alignment {
    /// The cluster anchored at a given query column, if any.
    pub fn cluster_for(&self, query_column: &str) -> Option<&AlignedCluster> {
        self.clusters
            .iter()
            .find(|c| c.query_column == query_column)
    }

    /// Mapping from a data-lake table's column header to the query column it
    /// aligns with.
    pub fn mapping_for_table(&self, table: &str) -> Vec<(String, String)> {
        let mut mapping = Vec::new();
        for cluster in &self.clusters {
            for member in &cluster.members {
                if member.table == table {
                    mapping.push((member.column.clone(), cluster.query_column.clone()));
                }
            }
        }
        mapping
    }

    /// Total number of aligned data-lake columns.
    pub fn aligned_column_count(&self) -> usize {
        self.clusters.iter().map(|c| c.members.len()).sum()
    }
}

/// Configuration of the holistic aligner.
#[derive(Debug, Clone)]
pub struct HolisticAligner {
    /// Column encoder used to embed columns (the paper's best configuration
    /// is column-level RoBERTa).
    pub encoder: ColumnEncoder,
    /// Linkage criterion for the constrained clustering.
    pub linkage: Linkage,
    /// Distance function over column embeddings.
    pub distance: Distance,
}

impl Default for HolisticAligner {
    fn default() -> Self {
        HolisticAligner {
            encoder: ColumnEncoder::new(PretrainedModel::Roberta, ColumnSerialization::ColumnLevel),
            linkage: Linkage::Average,
            distance: Distance::Euclidean,
        }
    }
}

impl HolisticAligner {
    /// Create an aligner with the paper's default configuration
    /// (column-level RoBERTa, average linkage, Euclidean distance).
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a specific column encoder (for the Table 1 model sweep).
    pub fn with_encoder(encoder: ColumnEncoder) -> Self {
        HolisticAligner {
            encoder,
            ..Self::default()
        }
    }

    /// Align the columns of `tables` to the columns of `query` using the
    /// configured encoder, with the query's and the tables' columns as the
    /// TF-IDF corpus.
    pub fn align(&self, query: &Table, tables: &[&Table]) -> Alignment {
        let columns: Vec<&Column> = query
            .columns()
            .iter()
            .chain(tables.iter().flat_map(|t| t.columns().iter()))
            .collect();
        let mut embeddings = self.encoder.embed_columns(&columns).into_iter();
        self.align_with(query, tables, |table| {
            embeddings.by_ref().take(table.num_columns()).collect()
        })
    }

    /// Align using caller-provided column embeddings (one vector per column
    /// per table, in column order). `embed_table` is called once per table:
    /// the query first, then `tables` in order. Used to plug in Starmie's
    /// contextualized embeddings ("Starmie (H)" in Table 1).
    pub fn align_with<F>(&self, query: &Table, tables: &[&Table], mut embed_table: F) -> Alignment
    where
        F: FnMut(&Table) -> Vec<Vector>,
    {
        // Collect (column reference, owning table index, embedding) for the
        // query (table index 0) and every data-lake table (1..).
        let mut refs: Vec<ColumnRef> = Vec::new();
        let mut owners: Vec<usize> = Vec::new();
        let mut embeddings: Vec<Vector> = Vec::new();

        let query_embeddings = embed_table(query);
        assert_eq!(
            query_embeddings.len(),
            query.num_columns(),
            "embedding provider must return one vector per query column"
        );
        for (header, emb) in query.headers().iter().zip(query_embeddings) {
            refs.push(ColumnRef::new(query.name(), header.clone()));
            owners.push(0);
            embeddings.push(emb);
        }
        for (t_idx, table) in tables.iter().enumerate() {
            let table_embeddings = embed_table(table);
            assert_eq!(
                table_embeddings.len(),
                table.num_columns(),
                "embedding provider must return one vector per column of {}",
                table.name()
            );
            for (header, emb) in table.headers().iter().zip(table_embeddings) {
                refs.push(ColumnRef::new(table.name(), header.clone()));
                owners.push(t_idx + 1);
                embeddings.push(emb);
            }
        }

        let n = refs.len();
        if n == 0 || query.num_columns() == 0 {
            return Alignment::default();
        }

        // Cannot-link constraints: no two columns of the same table.
        let mut cannot_link = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if owners[i] == owners[j] {
                    cannot_link.push((i, j));
                }
            }
        }

        // Model selection can never pick fewer clusters than the widest
        // table has columns (cannot-link keeps its columns apart), so the
        // clustering is k-capped at that bound — and one pairwise matrix,
        // built here, drives both the constrained clustering and the whole
        // silhouette sweep (the sweep used to rebuild an O(n²·d) matrix
        // per candidate k).
        let widest = std::iter::once(query.num_columns())
            .chain(tables.iter().map(|t| t.num_columns()))
            .max()
            .unwrap_or(1);
        let min_k = widest.max(2).min(n);
        let matrix = PairwiseMatrix::compute(&embeddings, self.distance);
        let dendrogram =
            agglomerative_constrained_from_matrix(&matrix, self.linkage, &cannot_link, min_k);
        let (assignment, silhouette) =
            best_cut_by_silhouette_from_matrix(&dendrogram, &matrix, min_k, n);

        let groups = clusters_from_assignment(&assignment);
        let num_clusters = groups.len();
        let mut clusters = Vec::new();
        let mut discarded = Vec::new();
        for group in groups {
            // Find the (unique, by the cannot-link constraint) query column.
            let query_member = group.iter().find(|&&idx| owners[idx] == 0);
            match query_member {
                Some(&qidx) => {
                    let members = group
                        .iter()
                        .filter(|&&idx| idx != qidx)
                        .map(|&idx| refs[idx].clone())
                        .collect();
                    clusters.push(AlignedCluster {
                        query_column: refs[qidx].column.clone(),
                        members,
                    });
                }
                None => {
                    discarded.extend(group.iter().map(|&idx| refs[idx].clone()));
                }
            }
        }
        // Keep clusters in query-column order for determinism.
        clusters.sort_by_key(|c| {
            query
                .headers()
                .iter()
                .position(|h| *h == c.query_column)
                .unwrap_or(usize::MAX)
        });
        discarded.sort();

        Alignment {
            clusters,
            discarded,
            silhouette,
            num_clusters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query() -> Table {
        Table::builder("query")
            .column("Park Name", ["River Park", "West Lawn Park", "Hyde Park"])
            .column("Supervisor", ["Vera Onate", "Paul Veliotis", "Jenny Rishi"])
            .column("City", ["Fresno", "Chicago", "London"])
            .column("Country", ["USA", "USA", "UK"])
            .build()
            .unwrap()
    }

    fn table_b() -> Table {
        Table::builder("parks_b")
            .column("Park Name", ["River Park", "West Lawn Park", "Hyde Park"])
            .column("Supervisor", ["Vera Onate", "Paul Veliotis", "Jenny Rishi"])
            .column("Country", ["USA", "USA", "UK"])
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

    #[test]
    fn example_3_alignment_shape() {
        // The paper's Example 3: five clusters, the Park Phone singleton is
        // discarded, and every query column anchors one cluster.
        let aligner = HolisticAligner::new();
        let q = query();
        let b = table_b();
        let d = table_d();
        let alignment = aligner.align(&q, &[&b, &d]);

        // every aligned data-lake column maps to exactly one query column
        assert!(alignment.clusters.len() <= q.num_columns());
        assert!(!alignment.clusters.is_empty());

        // the exact-copy columns of table (b) must align with their query twins
        let name_cluster = alignment
            .cluster_for("Park Name")
            .expect("Park Name cluster");
        assert!(
            name_cluster
                .members
                .iter()
                .any(|m| m.table == "parks_b" && m.column == "Park Name"),
            "parks_b.Park Name should align with query Park Name: {alignment:?}"
        );
        let country_cluster = alignment.cluster_for("Country").expect("Country cluster");
        assert!(country_cluster
            .members
            .iter()
            .any(|m| m.table == "parks_b" && m.column == "Country"));
    }

    #[test]
    fn no_two_columns_of_the_same_table_share_a_cluster() {
        let aligner = HolisticAligner::new();
        let q = query();
        let b = table_b();
        let d = table_d();
        let alignment = aligner.align(&q, &[&b, &d]);
        for cluster in &alignment.clusters {
            let mut tables: Vec<&str> = cluster.members.iter().map(|m| m.table.as_str()).collect();
            tables.sort_unstable();
            let before = tables.len();
            tables.dedup();
            assert_eq!(
                before,
                tables.len(),
                "duplicate table in cluster {cluster:?}"
            );
        }
    }

    #[test]
    fn mapping_for_table_translates_headers() {
        let aligner = HolisticAligner::new();
        let q = query();
        let b = table_b();
        let alignment = aligner.align(&q, &[&b]);
        let mapping = alignment.mapping_for_table("parks_b");
        // identical headers should map onto themselves
        for (dl, qcol) in &mapping {
            if dl == "Park Name" || dl == "Country" || dl == "Supervisor" {
                assert_eq!(dl, qcol);
            }
        }
        assert!(!mapping.is_empty());
        assert_eq!(alignment.mapping_for_table("unknown"), vec![]);
    }

    #[test]
    fn empty_inputs_produce_empty_alignment() {
        let aligner = HolisticAligner::new();
        let q = query();
        let alignment = aligner.align(&q, &[]);
        // With only the query table, every cluster is a singleton query column.
        assert!(alignment.aligned_column_count() == 0);
    }

    #[test]
    fn custom_embeddings_can_be_injected() {
        // With hand-crafted embeddings that put query column 0 and table
        // column 0 together (and everything else far apart), the alignment
        // must reflect exactly that.
        let q = Table::builder("q")
            .column("a", ["1", "2"])
            .column("b", ["x", "y"])
            .build()
            .unwrap();
        let t = Table::builder("t")
            .column("a2", ["3", "4"])
            .column("zz", ["foo", "bar"])
            .build()
            .unwrap();
        let aligner = HolisticAligner::new();
        let alignment = aligner.align_with(&q, &[&t], |table| {
            table
                .headers()
                .iter()
                .map(|h| match h.as_str() {
                    "a" => Vector::new(vec![1.0, 0.0, 0.0]),
                    "a2" => Vector::new(vec![0.99, 0.1, 0.0]),
                    "b" => Vector::new(vec![0.0, 1.0, 0.0]),
                    _ => Vector::new(vec![0.0, 0.0, 1.0]),
                })
                .collect()
        });
        let a_cluster = alignment.cluster_for("a").unwrap();
        assert_eq!(a_cluster.members, vec![ColumnRef::new("t", "a2")]);
        let b_cluster = alignment.cluster_for("b").unwrap();
        assert!(b_cluster.members.is_empty());
        assert_eq!(alignment.discarded, vec![ColumnRef::new("t", "zz")]);
    }
}
