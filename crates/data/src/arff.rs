//! Minimal ARFF (Attribute-Relation File Format) reader.
//!
//! The original HiCS repeatability archive distributes its datasets as ARFF
//! files (the Weka format), with numeric attributes and a nominal `outlier`
//! / class attribute. This reader covers exactly that subset:
//!
//! * `@relation`, `@attribute <name> numeric|real|integer`,
//!   `@attribute <name> {a,b,...}` (nominal), `@data`;
//! * comma-separated data rows; `%` comment lines; case-insensitive
//!   keywords;
//! * nominal attributes are label candidates — a nominal attribute named
//!   `outlier` or `class` becomes the outlier labels (values `yes`,
//!   `outlier`, `1`, `true` = outlier), other nominals are rejected.
//!
//! Sparse ARFF, strings, dates and quoting are out of scope.

use crate::dataset::Dataset;
use std::io::BufRead;
use std::path::Path;

/// Errors raised while parsing an ARFF file.
#[derive(Debug)]
pub enum ArffError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural or value-level parse failure, with line number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// The file declared no numeric attributes or contained no data.
    Empty,
}

impl std::fmt::Display for ArffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArffError::Io(e) => write!(f, "I/O error: {e}"),
            ArffError::Parse { line, message } => write!(f, "line {line}: {message}"),
            ArffError::Empty => write!(f, "no numeric data found"),
        }
    }
}

impl std::error::Error for ArffError {}

impl From<std::io::Error> for ArffError {
    fn from(e: std::io::Error) -> Self {
        ArffError::Io(e)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum AttrKind {
    Numeric,
    /// Nominal with its allowed values (lowercased).
    Nominal(Vec<String>),
}

/// Parsed ARFF content: numeric data plus optional outlier labels.
#[derive(Debug, Clone)]
pub struct ArffData {
    /// Relation name from `@relation`.
    pub relation: String,
    /// The numeric attributes as a dataset.
    pub dataset: Dataset,
    /// Outlier labels, if a nominal `outlier`/`class` attribute was present.
    pub labels: Option<Vec<bool>>,
}

/// Streaming ARFF row reader: the `@relation`/`@attribute`/`@data` header
/// is parsed eagerly (it is a handful of lines), then data rows stream one
/// at a time through a reused line/row buffer — the bounded-memory
/// substrate under [`read_arff_file`] and the out-of-core importer.
pub struct ArffReader<R: BufRead> {
    reader: R,
    relation: String,
    names: Vec<String>,
    kinds: Vec<AttrKind>,
    lineno: usize,
    line: String,
    row: Vec<f64>,
}

impl<R: BufRead> ArffReader<R> {
    /// Parses the header through `@data` and positions the stream at the
    /// first data row.
    pub fn new(mut reader: R) -> Result<Self, ArffError> {
        let mut relation = String::new();
        let mut names: Vec<String> = Vec::new();
        let mut kinds: Vec<AttrKind> = Vec::new();
        let mut label_seen = false;
        let mut lineno = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            lineno += 1;
            if reader.read_line(&mut line)? == 0 {
                // EOF before @data: no data section at all.
                return Err(ArffError::Empty);
            }
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') {
                continue;
            }
            let lower = trimmed.to_ascii_lowercase();
            if let Some(rest) = lower.strip_prefix("@relation") {
                relation = rest.trim().to_string();
            } else if lower.starts_with("@attribute") {
                let rest = trimmed["@attribute".len()..].trim();
                let (name, kind) = parse_attribute(rest, lineno)?;
                if let AttrKind::Nominal(_) = kind {
                    let lname = name.to_ascii_lowercase();
                    if lname == "outlier" || lname == "class" || lname == "label" {
                        if label_seen {
                            return Err(ArffError::Parse {
                                line: lineno,
                                message: "multiple label attributes".into(),
                            });
                        }
                        label_seen = true;
                    } else {
                        return Err(ArffError::Parse {
                            line: lineno,
                            message: format!(
                                "unsupported nominal attribute {name:?} (only outlier/class labels)"
                            ),
                        });
                    }
                } else {
                    names.push(name);
                }
                kinds.push(kind);
            } else if lower.starts_with("@data") {
                break;
            } else {
                return Err(ArffError::Parse {
                    line: lineno,
                    message: format!("unexpected header line {trimmed:?}"),
                });
            }
        }
        if names.is_empty() {
            return Err(ArffError::Empty);
        }
        Ok(Self {
            reader,
            relation,
            names,
            kinds,
            lineno,
            line,
            row: Vec::new(),
        })
    }

    /// Names of the numeric attributes (the label attribute is excluded).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether the file declares an outlier/class label attribute.
    fn has_labels(&self) -> bool {
        self.kinds.iter().any(|k| matches!(k, AttrKind::Nominal(_)))
    }

    /// Parses the next data row. Returns `Ok(None)` at end of input. The
    /// returned slice borrows an internal buffer that is overwritten by the
    /// next call.
    #[allow(clippy::type_complexity)]
    pub fn next_row(&mut self) -> Result<Option<(&[f64], Option<bool>)>, ArffError> {
        loop {
            self.line.clear();
            self.lineno += 1;
            if self.reader.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') {
                continue;
            }
            // One pass over the fields, zipped against the declared
            // attribute kinds; an arity mismatch surfaces as soon as either
            // side runs out.
            let lineno = self.lineno;
            let arity_error = |found: usize| ArffError::Parse {
                line: lineno,
                message: format!("expected {} fields, found {found}", self.kinds.len()),
            };
            self.row.clear();
            let mut label = None;
            let mut fields = trimmed.split(',').map(str::trim);
            let mut found = 0usize;
            for kind in &self.kinds {
                let Some(field) = fields.next() else {
                    return Err(arity_error(found));
                };
                found += 1;
                match kind {
                    AttrKind::Numeric => {
                        let v: f64 = field.parse().map_err(|_| ArffError::Parse {
                            line: lineno,
                            message: format!("cannot parse {field:?} as numeric"),
                        })?;
                        self.row.push(v);
                    }
                    AttrKind::Nominal(allowed) => {
                        let val = field.trim_matches('\'').to_ascii_lowercase();
                        if !allowed.contains(&val) {
                            return Err(ArffError::Parse {
                                line: lineno,
                                message: format!("value {field:?} not in nominal domain"),
                            });
                        }
                        label = Some(matches!(
                            val.as_str(),
                            "yes" | "outlier" | "1" | "true" | "anomaly"
                        ));
                    }
                }
            }
            if fields.next().is_some() {
                // Surplus fields: finish counting for the error message.
                return Err(arity_error(found + 1 + fields.count()));
            }
            return Ok(Some((&self.row, label)));
        }
    }
}

/// Reads an ARFF document from a buffered reader.
fn read_arff<R: BufRead>(reader: R) -> Result<ArffData, ArffError> {
    let mut stream = ArffReader::new(reader)?;
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); stream.names().len()];
    let mut labels: Vec<bool> = Vec::new();
    while let Some((row, label)) = stream.next_row()? {
        for (c, &v) in columns.iter_mut().zip(row) {
            c.push(v);
        }
        if let Some(l) = label {
            labels.push(l);
        }
    }
    if columns.is_empty() || columns[0].is_empty() {
        return Err(ArffError::Empty);
    }
    let has_labels = stream.has_labels();
    Ok(ArffData {
        relation: stream.relation,
        dataset: Dataset::from_columns_named(columns, stream.names),
        labels: has_labels.then_some(labels),
    })
}

/// Reads an ARFF file from disk.
pub fn read_arff_file(path: &Path) -> Result<ArffData, ArffError> {
    let file = std::fs::File::open(path)?;
    read_arff(std::io::BufReader::new(file))
}

fn parse_attribute(rest: &str, line: usize) -> Result<(String, AttrKind), ArffError> {
    // Attribute names may be quoted; split the name from the type spec.
    let rest = rest.trim();
    let (name, type_spec) = if let Some(stripped) = rest.strip_prefix('\'') {
        let end = stripped.find('\'').ok_or_else(|| ArffError::Parse {
            line,
            message: "unterminated quoted attribute name".into(),
        })?;
        (stripped[..end].to_string(), stripped[end + 1..].trim())
    } else {
        let mut parts = rest.splitn(2, char::is_whitespace);
        let name = parts.next().unwrap_or_default().to_string();
        (name, parts.next().unwrap_or_default().trim())
    };
    if name.is_empty() || type_spec.is_empty() {
        return Err(ArffError::Parse {
            line,
            message: "malformed @attribute declaration".into(),
        });
    }
    let lower = type_spec.to_ascii_lowercase();
    let kind = if lower == "numeric" || lower == "real" || lower == "integer" {
        AttrKind::Numeric
    } else if lower.starts_with('{') && lower.ends_with('}') {
        let values = lower[1..lower.len() - 1]
            .split(',')
            .map(|v| v.trim().trim_matches('\'').to_string())
            .collect();
        AttrKind::Nominal(values)
    } else {
        return Err(ArffError::Parse {
            line,
            message: format!("unsupported attribute type {type_spec:?}"),
        });
    };
    Ok((name, kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
% HiCS-style synthetic dataset
@relation synth_multidim_010_000

@attribute attr0 numeric
@attribute attr1 real
@attribute 'outlier' {no,yes}

@data
0.1, 0.2, no
0.3, 0.4, yes
0.5, 0.6, no
";

    #[test]
    fn parses_relation_attributes_and_data() {
        let parsed = read_arff(SAMPLE.as_bytes()).unwrap();
        assert_eq!(parsed.relation, "synth_multidim_010_000");
        assert_eq!(parsed.dataset.n(), 3);
        assert_eq!(parsed.dataset.d(), 2);
        assert_eq!(
            parsed.dataset.names(),
            &["attr0".to_string(), "attr1".to_string()]
        );
        assert_eq!(parsed.labels, Some(vec![false, true, false]));
        assert_eq!(parsed.dataset.value(1, 1), 0.4);
    }

    #[test]
    fn numeric_only_file_has_no_labels() {
        let text = "@relation r\n@attribute a numeric\n@data\n1.0\n2.0\n";
        let parsed = read_arff(text.as_bytes()).unwrap();
        assert!(parsed.labels.is_none());
        assert_eq!(parsed.dataset.n(), 2);
    }

    #[test]
    fn class_attribute_counts_as_label() {
        let text = "@relation r\n@attribute a real\n@attribute class {inlier,outlier}\n@data\n1.0,outlier\n2.0,inlier\n";
        let parsed = read_arff(text.as_bytes()).unwrap();
        assert_eq!(parsed.labels, Some(vec![true, false]));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text =
            "% c\n\n@relation r\n% c2\n@attribute a numeric\n@data\n% about to start\n1.5\n\n2.5\n";
        let parsed = read_arff(text.as_bytes()).unwrap();
        assert_eq!(parsed.dataset.col(0), &[1.5, 2.5]);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let text = "@RELATION r\n@ATTRIBUTE a NUMERIC\n@DATA\n3.0\n";
        let parsed = read_arff(text.as_bytes()).unwrap();
        assert_eq!(parsed.dataset.value(0, 0), 3.0);
    }

    #[test]
    fn rejects_wrong_field_count() {
        let text = "@relation r\n@attribute a numeric\n@attribute b numeric\n@data\n1.0\n";
        match read_arff(text.as_bytes()) {
            Err(ArffError::Parse { line: 5, .. }) => {}
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_label_nominal() {
        let text = "@relation r\n@attribute color {red,blue}\n@data\nred\n";
        assert!(matches!(
            read_arff(text.as_bytes()),
            Err(ArffError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_bad_numeric_value() {
        let text = "@relation r\n@attribute a numeric\n@data\nabc\n";
        assert!(matches!(
            read_arff(text.as_bytes()),
            Err(ArffError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_empty_data() {
        let text = "@relation r\n@attribute a numeric\n@data\n";
        assert!(matches!(read_arff(text.as_bytes()), Err(ArffError::Empty)));
    }

    #[test]
    fn rejects_unknown_nominal_value() {
        let text =
            "@relation r\n@attribute a real\n@attribute outlier {no,yes}\n@data\n1.0,maybe\n";
        assert!(matches!(
            read_arff(text.as_bytes()),
            Err(ArffError::Parse { .. })
        ));
    }
}
