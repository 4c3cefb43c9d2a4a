//! Measure metadata: the catalogue of SimPack measures with the properties
//! clients need to interpret scores (normalization, input kind).

use std::fmt;

/// What kind of input a measure consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// Feature sets / binary vectors (Eq. 1–3).
    Vector,
    /// Character strings.
    String,
    /// Token sequences (Eq. 4).
    Sequence,
    /// Positions in a specialization graph (Eq. 5–6).
    Graph,
    /// Information content over a taxonomy (Eq. 7–8).
    InformationTheoretic,
    /// Full-text TF-IDF vectors.
    FullText,
    /// Ordered labeled trees.
    Tree,
}

impl fmt::Display for MeasureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MeasureKind::Vector => "vector",
            MeasureKind::String => "string",
            MeasureKind::Sequence => "sequence",
            MeasureKind::Graph => "graph",
            MeasureKind::InformationTheoretic => "information-theoretic",
            MeasureKind::FullText => "full-text",
            MeasureKind::Tree => "tree",
        };
        f.write_str(s)
    }
}

/// Static description of one measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureDescriptor {
    /// Canonical name, e.g. `"lin"`.
    pub name: &'static str,
    /// Human-readable display name, e.g. `"Lin"`.
    pub display: &'static str,
    pub kind: MeasureKind,
    /// True when scores are guaranteed to lie in [0, 1]. Resnik is the
    /// famous exception (it returns information content in bits).
    pub normalized: bool,
    /// Literature reference.
    pub reference: &'static str,
}

/// The catalogue of measures this SimPack implements, in the order of the
/// toolkit's integer measure ids (`sst_core::measure_ids`).
pub const CATALOG: &[MeasureDescriptor] = &[
    MeasureDescriptor {
        name: "cosine",
        display: "Cosine",
        kind: MeasureKind::Vector,
        normalized: true,
        reference: "Baeza-Yates & Ribeiro-Neto 1999, Eq. 1",
    },
    MeasureDescriptor {
        name: "jaccard",
        display: "Extended Jaccard",
        kind: MeasureKind::Vector,
        normalized: true,
        reference: "Strehl, Ghosh & Mooney 2000, Eq. 2",
    },
    MeasureDescriptor {
        name: "overlap",
        display: "Overlap",
        kind: MeasureKind::Vector,
        normalized: true,
        reference: "Baeza-Yates & Ribeiro-Neto 1999, Eq. 3",
    },
    MeasureDescriptor {
        name: "dice",
        display: "Dice",
        kind: MeasureKind::Vector,
        normalized: true,
        reference: "Dice 1945 (extension)",
    },
    MeasureDescriptor {
        name: "levenshtein",
        display: "Levenshtein",
        kind: MeasureKind::Sequence,
        normalized: true,
        reference: "Levenshtein 1966, Eq. 4",
    },
    MeasureDescriptor {
        name: "jaro",
        display: "Jaro",
        kind: MeasureKind::String,
        normalized: true,
        reference: "Jaro 1989 (SecondString extension)",
    },
    MeasureDescriptor {
        name: "jaro_winkler",
        display: "Jaro-Winkler",
        kind: MeasureKind::String,
        normalized: true,
        reference: "Winkler 1990 (SecondString extension)",
    },
    MeasureDescriptor {
        name: "qgram",
        display: "Q-Gram",
        kind: MeasureKind::String,
        normalized: true,
        reference: "Ukkonen 1992 (SimMetrics extension)",
    },
    MeasureDescriptor {
        name: "monge_elkan",
        display: "Monge-Elkan",
        kind: MeasureKind::String,
        normalized: true,
        reference: "Monge & Elkan 1996 (SecondString extension)",
    },
    MeasureDescriptor {
        name: "shortest_path",
        display: "Shortest Path",
        kind: MeasureKind::Graph,
        normalized: true,
        reference: "Rada et al. 1989",
    },
    MeasureDescriptor {
        name: "edge",
        display: "Edge Counting",
        kind: MeasureKind::Graph,
        normalized: true,
        reference: "Resnik 1995 variant, Eq. 5",
    },
    MeasureDescriptor {
        name: "wu_palmer",
        display: "Conceptual Similarity",
        kind: MeasureKind::Graph,
        normalized: true,
        reference: "Wu & Palmer 1994, Eq. 6",
    },
    MeasureDescriptor {
        name: "resnik",
        display: "Resnik",
        kind: MeasureKind::InformationTheoretic,
        normalized: false,
        reference: "Resnik 1995, Eq. 7",
    },
    MeasureDescriptor {
        name: "lin",
        display: "Lin",
        kind: MeasureKind::InformationTheoretic,
        normalized: true,
        reference: "Lin 1998, Eq. 8",
    },
    MeasureDescriptor {
        name: "jiang_conrath",
        display: "Jiang-Conrath",
        kind: MeasureKind::InformationTheoretic,
        normalized: true,
        reference: "Jiang & Conrath 1997 (extension)",
    },
    MeasureDescriptor {
        name: "tfidf",
        display: "TFIDF",
        kind: MeasureKind::FullText,
        normalized: true,
        reference: "Baeza-Yates & Ribeiro-Neto 1999",
    },
    MeasureDescriptor {
        name: "tree_edit",
        display: "Tree Edit Distance",
        kind: MeasureKind::Tree,
        normalized: true,
        reference: "Zhang & Shasha 1989 (future-work measure)",
    },
    MeasureDescriptor {
        name: "needleman_wunsch",
        display: "Needleman-Wunsch",
        kind: MeasureKind::Sequence,
        normalized: true,
        reference: "Needleman & Wunsch 1970 (extension)",
    },
    MeasureDescriptor {
        name: "smith_waterman",
        display: "Smith-Waterman",
        kind: MeasureKind::Sequence,
        normalized: true,
        reference: "Smith & Waterman 1981 (extension)",
    },
    MeasureDescriptor {
        name: "dense_vector",
        display: "Dense Vector",
        kind: MeasureKind::Vector,
        normalized: true,
        reference: "signed random projection of TF-IDF vectors (extension)",
    },
];

/// Looks up a measure descriptor by canonical name.
pub fn descriptor(name: &str) -> Option<&'static MeasureDescriptor> {
    CATALOG.iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = CATALOG.iter().map(|d| d.name).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn resnik_is_the_only_unnormalized_measure() {
        let unnormalized: Vec<&str> = CATALOG
            .iter()
            .filter(|d| !d.normalized)
            .map(|d| d.name)
            .collect();
        assert_eq!(unnormalized, vec!["resnik"]);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(descriptor("lin").unwrap().display, "Lin");
        assert!(descriptor("nope").is_none());
    }

    #[test]
    fn covers_all_paper_table1_measures() {
        // Table 1 columns: Conceptual Similarity, Levenshtein, Lin, Resnik,
        // Shortest Path, TFIDF.
        for name in [
            "wu_palmer",
            "levenshtein",
            "lin",
            "resnik",
            "shortest_path",
            "tfidf",
        ] {
            assert!(descriptor(name).is_some(), "missing {name}");
        }
    }
}
