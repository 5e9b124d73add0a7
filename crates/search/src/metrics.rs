//! Retrieval-quality metrics: average precision and Mean Average Precision
//! (MAP), used in Sec. 6.5 to contextualize Starmie's behaviour on SANTOS vs
//! UGEN-V1.

use std::collections::BTreeSet;

/// Average precision of a ranked result list against a relevant set.
pub fn average_precision(results: &[String], relevant: &BTreeSet<String>) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (i, r) in results.iter().enumerate() {
        if relevant.contains(r) {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    sum / relevant.len() as f64
}

/// Mean average precision over many queries: each entry is a
/// `(ranked results, relevant set)` pair.
pub fn mean_average_precision(queries: &[(Vec<String>, BTreeSet<String>)]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    queries
        .iter()
        .map(|(results, relevant)| average_precision(results, relevant))
        .sum::<f64>()
        / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relevant(items: &[&str]) -> BTreeSet<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn results(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn average_precision_perfect_ranking_is_one() {
        let res = results(&["a", "b", "c"]);
        let rel = relevant(&["a", "b", "c"]);
        assert!((average_precision(&res, &rel) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn average_precision_penalizes_late_hits() {
        let rel = relevant(&["a"]);
        let early = average_precision(&results(&["a", "x", "y"]), &rel);
        let late = average_precision(&results(&["x", "y", "a"]), &rel);
        assert!(early > late);
        assert!((late - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn map_averages_over_queries() {
        let queries = vec![
            (results(&["a", "x"]), relevant(&["a"])),
            (results(&["x", "a"]), relevant(&["a"])),
        ];
        assert!((mean_average_precision(&queries) - 0.75).abs() < 1e-9);
        assert_eq!(mean_average_precision(&[]), 0.0);
    }
}
