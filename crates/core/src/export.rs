//! Machine-readable export of similarity results: CSV and JSON writers for
//! ranked lists, similarity matrices, and alignment proposals — the
//! "textual lists" output channel of the paper, made tool-friendly.
//!
//! The writers are hand-rolled (no serde dependency): the formats involved
//! are flat and the escaping rules are small.

use crate::alignment::Correspondence;
use crate::facade::ConceptAndSimilarity;

/// Escapes one CSV field per RFC 4180 (quote when needed, double quotes).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// `s` as a quoted JSON string: `"` and `\` escaped, `\n`, `\r` and `\t`
/// by name, every other control character as `\u00XX`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number in Rust's shortest round-trip form; JSON has no
/// NaN or infinity, so a non-finite `v` is `null`.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Ranked similarity list → CSV (`ontology,concept,similarity`).
pub fn ranking_to_csv(rows: &[ConceptAndSimilarity]) -> String {
    let mut out = String::from("ontology,concept,similarity\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{}\n",
            csv_field(&r.ontology),
            csv_field(&r.concept),
            r.similarity
        ));
    }
    out
}

/// Ranked similarity list → JSON array of objects.
pub fn ranking_to_json(rows: &[ConceptAndSimilarity]) -> String {
    let items: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"ontology\":{},\"concept\":{},\"similarity\":{}}}",
                json_string(&r.ontology),
                json_string(&r.concept),
                json_number(r.similarity)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Similarity matrix → CSV with labeled header row and column.
pub fn matrix_to_csv(labels: &[String], matrix: &[Vec<f64>]) -> String {
    let mut out = String::from("concept");
    for label in labels {
        out.push(',');
        out.push_str(&csv_field(label));
    }
    out.push('\n');
    for (label, row) in labels.iter().zip(matrix) {
        out.push_str(&csv_field(label));
        for v in row {
            out.push_str(&format!(",{v}"));
        }
        out.push('\n');
    }
    out
}

/// Alignment proposal → CSV (`source,target,similarity`).
pub fn alignment_to_csv(correspondences: &[Correspondence]) -> String {
    let mut out = String::from("source,target,similarity\n");
    for c in correspondences {
        out.push_str(&format!(
            "{},{},{}\n",
            csv_field(&c.source_concept),
            csv_field(&c.target_concept),
            c.similarity
        ));
    }
    out
}

/// Alignment proposal → JSON array.
pub fn alignment_to_json(correspondences: &[Correspondence]) -> String {
    let items: Vec<String> = correspondences
        .iter()
        .map(|c| {
            format!(
                "{{\"source\":{},\"target\":{},\"similarity\":{}}}",
                json_string(&c.source_concept),
                json_string(&c.target_concept),
                json_number(c.similarity)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ConceptAndSimilarity> {
        vec![
            ConceptAndSimilarity {
                concept: "Professor".into(),
                ontology: "uni".into(),
                similarity: 1.0,
            },
            ConceptAndSimilarity {
                concept: "weird,\"name\"".into(),
                ontology: "o\n2".into(),
                similarity: 0.25,
            },
        ]
    }

    #[test]
    fn csv_escapes_delimiters_and_quotes() {
        let csv = ranking_to_csv(&rows());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "ontology,concept,similarity");
        assert_eq!(lines[1], "uni,Professor,1");
        // The second record has a quoted, multi-line ontology field and a
        // quoted concept field with doubled quotes.
        assert!(csv.contains("\"o\n2\""));
        assert!(csv.contains("\"weird,\"\"name\"\"\""));
    }

    #[test]
    fn json_escapes_strings() {
        let json = ranking_to_json(&rows());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"concept\":\"Professor\""));
        assert!(json.contains("weird,\\\"name\\\""));
        assert!(json.contains("\"o\\n2\""));
        // Sanity: both rows present.
        assert_eq!(json.matches("\"similarity\"").count(), 2);
        // The writers the server's response bodies use.
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}\t"), "\"\\u0001\\t\"");
        assert_eq!(json_number(0.5), "0.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn matrix_round_shape() {
        let labels = vec!["a".to_owned(), "b,x".to_owned()];
        let matrix = vec![vec![1.0, 0.5], vec![0.5, 1.0]];
        let csv = matrix_to_csv(&labels, &matrix);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "concept,a,\"b,x\"");
        assert_eq!(lines[1], "a,1,0.5");
    }

    #[test]
    fn alignment_exports() {
        let cs = vec![Correspondence {
            source: sst_soqa::GlobalConcept {
                ontology: 0,
                concept: sst_soqa::ConceptId(0),
            },
            target: sst_soqa::GlobalConcept {
                ontology: 1,
                concept: sst_soqa::ConceptId(0),
            },
            source_concept: "Student".into(),
            target_concept: "Learner".into(),
            similarity: 0.75,
        }];
        assert!(alignment_to_csv(&cs).contains("Student,Learner,0.75"));
        assert!(alignment_to_json(&cs).contains("\"target\":\"Learner\""));
    }

    #[test]
    fn empty_inputs_produce_valid_documents() {
        assert_eq!(ranking_to_json(&[]), "[]");
        assert_eq!(ranking_to_csv(&[]), "ontology,concept,similarity\n");
        assert_eq!(alignment_to_json(&[]), "[]");
    }
}
