//! Tuple serialization (Sec. 4, "Serialization").
//!
//! A tuple `t` with columns `c1..cn` and values `v1..vn` is serialized as
//!
//! ```text
//! [CLS] c1 v1 [SEP] c2 v2 [SEP] ... [SEP] cn vn [SEP]
//! ```
//!
//! Null values are skipped entirely (Example 4: a tuple missing the
//! `Supervisor` value serializes only its present columns). Columns follow
//! the tuple's own order, which after the outer union is the query table's.

use dust_table::Tuple;

/// The special classifier token.
pub const CLS: &str = "[CLS]";
/// The special separator token.
pub const SEP: &str = "[SEP]";

/// Serialize a tuple as described in Sec. 4 of the paper, in the tuple's
/// own column order.
pub fn serialize_tuple(tuple: &Tuple) -> String {
    let mut out = String::from(CLS);
    for (i, (header, value)) in tuple.non_null_pairs().enumerate() {
        if i > 0 {
            out.push(' ');
            out.push_str(SEP);
        }
        out.push(' ');
        out.push_str(header);
        out.push(' ');
        out.push_str(&value.render());
    }
    out.push(' ');
    out.push_str(SEP);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_table::Value;

    fn chippewa() -> Tuple {
        Tuple::new(
            vec![
                "Park Name".into(),
                "City".into(),
                "Country".into(),
                "Supervisor".into(),
            ],
            vec![
                Value::text("Chippewa Park"),
                Value::text("Brandon, MN"),
                Value::text("USA"),
                Value::Null,
            ],
            "table_d",
            0,
        )
    }

    #[test]
    fn serialization_matches_paper_example() {
        let t = Tuple::new(
            vec![
                "Park Name".into(),
                "Supervisor".into(),
                "City".into(),
                "Country".into(),
            ],
            vec![
                Value::text("River Park"),
                Value::text("Vera Onate"),
                Value::text("Fresno"),
                Value::text("USA"),
            ],
            "query",
            0,
        );
        let s = serialize_tuple(&t);
        assert_eq!(
            s,
            "[CLS] Park Name River Park [SEP] Supervisor Vera Onate [SEP] City Fresno [SEP] Country USA [SEP]"
        );
    }

    #[test]
    fn nulls_are_skipped() {
        let s = serialize_tuple(&chippewa());
        assert!(!s.contains("Supervisor"));
        assert_eq!(
            s,
            "[CLS] Park Name Chippewa Park [SEP] City Brandon, MN [SEP] Country USA [SEP]"
        );
    }

    #[test]
    fn empty_tuple_serializes_to_cls_sep() {
        let t = Tuple::new(vec!["a".into()], vec![Value::Null], "t", 0);
        assert_eq!(serialize_tuple(&t), "[CLS] [SEP]");
    }
}
