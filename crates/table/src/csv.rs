//! Minimal, dependency-free CSV reading and writing.
//!
//! The benchmark generators persist generated lakes to disk as CSV so that
//! experiment runs are reproducible and inspectable. The parser handles the
//! RFC-4180 core: quoted fields, escaped quotes, embedded separators and
//! newlines inside quotes.

use crate::error::TableError;
use crate::table::Table;
use crate::Result;

/// Options controlling CSV parsing and writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Whether the first record is a header row (default `true`).
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: ',',
            has_header: true,
        }
    }
}

/// Parse CSV text into a [`Table`].
///
/// When `options.has_header` is false, columns are named `col_0`, `col_1`, ...
pub fn parse_csv(name: impl Into<String>, input: &str, options: CsvOptions) -> Result<Table> {
    let records = parse_records(input, options.separator)?;
    if records.is_empty() {
        return Err(TableError::Csv {
            line: 1,
            message: "input contains no records".to_string(),
        });
    }
    let (headers, data_start): (Vec<String>, usize) = if options.has_header {
        (records[0].clone(), 1)
    } else {
        (
            (0..records[0].len()).map(|i| format!("col_{i}")).collect(),
            0,
        )
    };
    let width = headers.len();
    for (i, rec) in records.iter().enumerate().skip(data_start) {
        if rec.len() != width {
            return Err(TableError::Csv {
                line: i + 1,
                message: format!("expected {width} fields, found {}", rec.len()),
            });
        }
    }
    Table::from_rows(name, &headers, &records[data_start..])
}

/// Serialize a table to CSV text with a header row.
pub fn write_csv(table: &Table, options: CsvOptions) -> String {
    let sep = options.separator;
    let mut out = String::new();
    if options.has_header {
        let header_line: Vec<String> = table
            .headers()
            .iter()
            .map(|h| escape_field(h, sep))
            .collect();
        out.push_str(&header_line.join(&sep.to_string()));
        out.push('\n');
    }
    for row in table.rows() {
        let line: Vec<String> = row
            .values()
            .iter()
            .map(|v| escape_field(&v.render(), sep))
            .collect();
        out.push_str(&line.join(&sep.to_string()));
        out.push('\n');
    }
    out
}

fn escape_field(field: &str, sep: char) -> String {
    if field.contains(sep) || field.contains('"') || field.contains('\n') || field.contains('\r') {
        let escaped = field.replace('"', "\"\"");
        format!("\"{escaped}\"")
    } else {
        field.to_string()
    }
}

/// Split CSV text into records of fields, honouring quoting.
fn parse_records(input: &str, sep: char) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = input.chars().peekable();
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push('\n');
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if field.is_empty() {
                        in_quotes = true;
                    } else {
                        field.push('"');
                    }
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                }
                c if c == sep => {
                    record.push(std::mem::take(&mut field));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(TableError::Csv {
            line,
            message: "unterminated quoted field".to_string(),
        });
    }
    if saw_any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        if !(record.len() == 1 && record[0].is_empty()) {
            records.push(record);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// `parse_csv` as it was before the data records went to
    /// `Table::from_rows` by slice: one whole-table copy per parse.
    fn parse_csv_by_copy(name: &str, input: &str, options: CsvOptions) -> Result<Table> {
        let records = parse_records(input, options.separator)?;
        if records.is_empty() {
            return Err(TableError::Csv {
                line: 1,
                message: "input contains no records".to_string(),
            });
        }
        let (headers, data_start): (Vec<String>, usize) = if options.has_header {
            (records[0].clone(), 1)
        } else {
            (
                (0..records[0].len()).map(|i| format!("col_{i}")).collect(),
                0,
            )
        };
        let width = headers.len();
        for (i, rec) in records.iter().enumerate().skip(data_start) {
            if rec.len() != width {
                return Err(TableError::Csv {
                    line: i + 1,
                    message: format!("expected {width} fields, found {}", rec.len()),
                });
            }
        }
        let rows: Vec<Vec<String>> = records[data_start..].to_vec();
        Table::from_rows(name, &headers, &rows)
    }

    /// The inputs of this module's parsing tests, with their options.
    const QUOTING_INPUTS: &[(&str, bool, char)] = &[
        (
            "city,phone\n\"Brandon, MN\",\"773 \"\"731\"\"\"\nChicago,555\n",
            true,
            ',',
        ),
        ("a,b\n\"line1\nline2\",x\n", true, ','),
        ("a,b\n1,2\n3\n", true, ','),
        ("a,b\n\"oops,2\n", true, ','),
        ("1,2\n3,4\n", false, ','),
        ("a;b\nx;y\n", true, ';'),
        ("", true, ','),
        ("a,b\n1,2", true, ','),
        ("a,b\n,nan\n", true, ','),
        ("a,b\r\nTRUE, None \r\n\n\n-,1.5e3\r\n", true, ','),
    ];

    #[test]
    fn parse_csv_matches_the_copying_oracle() {
        for &(input, has_header, separator) in QUOTING_INPUTS {
            let options = CsvOptions {
                separator,
                has_header,
            };
            let got = parse_csv("t", input, options);
            let want = parse_csv_by_copy("t", input, options);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{input:?}");
        }
    }

    #[test]
    fn round_trip_simple_table() {
        let table = Table::builder("t")
            .column("name", ["River Park", "Hyde Park"])
            .column("country", ["USA", "UK"])
            .build()
            .unwrap();
        let csv = write_csv(&table, CsvOptions::default());
        let parsed = parse_csv("t", &csv, CsvOptions::default()).unwrap();
        assert_eq!(parsed.num_rows(), 2);
        assert_eq!(parsed.cell(1, 0), Some(&Value::text("Hyde Park")));
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let csv = "city,phone\n\"Brandon, MN\",\"773 \"\"731\"\"\"\nChicago,555\n";
        let t = parse_csv("t", csv, CsvOptions::default()).unwrap();
        assert_eq!(t.cell(0, 0), Some(&Value::text("Brandon, MN")));
        assert_eq!(t.cell(0, 1), Some(&Value::text("773 \"731\"")));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn embedded_newline_in_quoted_field() {
        let csv = "a,b\n\"line1\nline2\",x\n";
        let t = parse_csv("t", csv, CsvOptions::default()).unwrap();
        assert_eq!(t.cell(0, 0), Some(&Value::text("line1\nline2")));
    }

    #[test]
    fn field_count_mismatch_is_an_error() {
        let csv = "a,b\n1,2\n3\n";
        let err = parse_csv("t", csv, CsvOptions::default()).unwrap_err();
        assert!(matches!(err, TableError::Csv { line: 3, .. }));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let csv = "a,b\n\"oops,2\n";
        assert!(parse_csv("t", csv, CsvOptions::default()).is_err());
    }

    #[test]
    fn headerless_parsing_generates_names() {
        let csv = "1,2\n3,4\n";
        let opts = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let t = parse_csv("t", csv, opts).unwrap();
        assert_eq!(t.headers(), &["col_0".to_string(), "col_1".to_string()]);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn alternative_separator() {
        let opts = CsvOptions {
            separator: ';',
            has_header: true,
        };
        let csv = "a;b\nx;y\n";
        let t = parse_csv("t", csv, opts).unwrap();
        assert_eq!(t.cell(0, 1), Some(&Value::text("y")));
        let out = write_csv(&t, opts);
        assert!(out.starts_with("a;b"));
    }

    #[test]
    fn write_escapes_separator_and_quotes() {
        let table = Table::builder("t")
            .column("c", ["Brandon, MN", "say \"hi\""])
            .build()
            .unwrap();
        let csv = write_csv(&table, CsvOptions::default());
        assert!(csv.contains("\"Brandon, MN\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(parse_csv("t", "", CsvOptions::default()).is_err());
    }

    #[test]
    fn trailing_newline_optional() {
        let t = parse_csv("t", "a,b\n1,2", CsvOptions::default()).unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn null_like_values_become_nulls() {
        let t = parse_csv("t", "a,b\n,nan\n", CsvOptions::default()).unwrap();
        assert!(t.cell(0, 0).unwrap().is_null());
        assert!(t.cell(0, 1).unwrap().is_null());
    }
}
