//! The single ontology tree (paper §3, Fig. 3).
//!
//! All registered ontologies are incorporated into one tree whose root is
//! the synthetic **Super Thing** concept, with each ontology's root
//! concepts as its direct children. This gives the distance-based measures
//! a contiguous, traversable path between concepts of *different*
//! ontologies without mixing their domains.
//!
//! The alternative the paper rejects — replacing every per-ontology root
//! with one shared `Thing` — is implemented as [`TreeMode::MergedThing`] so
//! Figure 3's negative result (`Student` as similar to `Blackbird` as to
//! `Professor`) can be reproduced experimentally.

use std::collections::HashMap;

use sst_simpack::Taxonomy;
use sst_soqa::{GlobalConcept, Soqa};

/// How the per-ontology hierarchies are joined into one tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TreeMode {
    /// The paper's design: a synthetic `Super Thing` root with each
    /// ontology's root concepts as direct subconcepts.
    #[default]
    SuperThing,
    /// Fig. 3(b): all ontology roots are replaced by one shared `Thing`, so
    /// concepts of different domains become immediate neighbours (used only
    /// to demonstrate why this blurs distance-based measures).
    MergedThing,
}

/// Name of the synthetic root in [`TreeMode::SuperThing`].
pub const SUPER_THING: &str = "Super Thing";

/// The unified tree: a [`Taxonomy`] over every concept of every registered
/// ontology plus the synthetic root, with bidirectional node↔concept maps.
#[derive(Debug)]
pub struct UnifiedTree {
    taxonomy: Taxonomy,
    mode: TreeMode,
    /// node id → concept (None for the synthetic root).
    concepts: Vec<Option<GlobalConcept>>,
    node_of: HashMap<GlobalConcept, u32>,
}

impl UnifiedTree {
    /// Builds the unified tree over all ontologies registered in `soqa`.
    pub fn build(soqa: &Soqa, mode: TreeMode) -> UnifiedTree {
        // Node 0 is the synthetic root (Super Thing, or the merged Thing).
        let mut concepts: Vec<Option<GlobalConcept>> = vec![None];
        let mut node_of: HashMap<GlobalConcept, u32> = HashMap::new();

        for oi in 0..soqa.ontology_count() {
            let ontology = soqa.ontology_at(oi);
            let roots: Vec<_> = ontology.roots().to_vec();
            for cid in ontology.concept_ids() {
                let gc = GlobalConcept {
                    ontology: oi,
                    concept: cid,
                };
                if mode == TreeMode::MergedThing && roots.contains(&cid) {
                    // Replaced by the shared root node.
                    node_of.insert(gc, 0);
                } else {
                    let node = concepts.len() as u32;
                    concepts.push(Some(gc));
                    node_of.insert(gc, node);
                }
            }
        }

        let mut taxonomy = Taxonomy::new(concepts.len(), 0);
        for oi in 0..soqa.ontology_count() {
            let ontology = soqa.ontology_at(oi);
            for cid in ontology.concept_ids() {
                let gc = GlobalConcept {
                    ontology: oi,
                    concept: cid,
                };
                let node = node_of[&gc];
                let supers = ontology.direct_supers(cid);
                if supers.is_empty() {
                    // Ontology root: child of Super Thing (no edge needed in
                    // MergedThing mode — the root *is* node 0 there).
                    if node != 0 {
                        taxonomy.add_edge(node, 0);
                    }
                } else {
                    for &sup in supers {
                        let sup_gc = GlobalConcept {
                            ontology: oi,
                            concept: sup,
                        };
                        taxonomy.add_edge(node, node_of[&sup_gc]);
                    }
                }
            }
        }
        UnifiedTree {
            taxonomy,
            mode,
            concepts,
            node_of,
        }
    }

    /// The tree-join mode this tree was built with.
    pub fn mode(&self) -> TreeMode {
        self.mode
    }

    /// The underlying specialization DAG (rooted at node 0).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Number of nodes including the synthetic root.
    pub fn node_count(&self) -> usize {
        self.concepts.len()
    }

    /// The tree node for a concept.
    pub fn node(&self, gc: GlobalConcept) -> u32 {
        self.node_of[&gc]
    }

    /// The concept at a node; `None` for the synthetic root (and, in
    /// merged mode, for the shared `Thing`).
    pub fn concept(&self, node: u32) -> Option<GlobalConcept> {
        self.concepts[node as usize]
    }

    /// All concepts in the subtree rooted at `node` (excluding synthetic
    /// nodes), in BFS order including the root concept itself if real.
    pub fn subtree_concepts(&self, node: u32) -> Vec<GlobalConcept> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.node_count()];
        let mut queue = std::collections::VecDeque::from([node]);
        seen[node as usize] = true;
        while let Some(n) = queue.pop_front() {
            if let Some(gc) = self.concepts[n as usize] {
                out.push(gc);
            }
            for &c in self.taxonomy.children(n) {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    queue.push_back(c);
                }
            }
        }
        out
    }

    /// Every real concept in the tree.
    pub fn all_concepts(&self) -> Vec<GlobalConcept> {
        self.concepts.iter().flatten().copied().collect()
    }

    /// The path of concept names from the root to `gc` along shortest
    /// super chains — the token sequence the Levenshtein measure's M₂
    /// mapping uses.
    pub fn root_path_names(&self, soqa: &Soqa, gc: GlobalConcept) -> Vec<String> {
        let mut path = Vec::new();
        self.root_path(gc, &mut path);
        path.iter()
            .map(|&node| match self.concept(node) {
                Some(c) => soqa.concept(c).name.clone(),
                None => SUPER_THING.to_owned(),
            })
            .collect()
    }

    /// Replaces `path` with the nodes from the root to `gc` along shortest
    /// super chains: from `gc`'s node up, each step takes the first parent
    /// of minimum depth.
    pub(crate) fn root_path(&self, gc: GlobalConcept, path: &mut Vec<u32>) {
        path.clear();
        let mut node = self.node(gc);
        let depths = self.taxonomy.depths();
        loop {
            path.push(node);
            if node == 0 {
                break;
            }
            let parents = self.taxonomy.parents(node);
            match parents.iter().min_by_key(|&&p| depths.depth(p)) {
                Some(&p) => node = p,
                None => break,
            }
        }
        path.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_soqa::{Ontology, OntologyBuilder, OntologyMetadata};

    fn uni() -> Ontology {
        let mut b = OntologyBuilder::new(OntologyMetadata {
            name: "uni".into(),
            ..OntologyMetadata::default()
        });
        let thing = b.concept("Thing");
        let person = b.concept("Person");
        let student = b.concept("Student");
        let professor = b.concept("Professor");
        b.add_subclass(person, thing);
        b.add_subclass(student, person);
        b.add_subclass(professor, person);
        b.build()
    }

    fn birds() -> Ontology {
        let mut b = OntologyBuilder::new(OntologyMetadata {
            name: "birds".into(),
            ..OntologyMetadata::default()
        });
        let thing = b.concept("Thing");
        let bird = b.concept("Bird");
        let blackbird = b.concept("Blackbird");
        b.add_subclass(bird, thing);
        b.add_subclass(blackbird, bird);
        b.build()
    }

    fn setup() -> (Soqa, UnifiedTree, UnifiedTree) {
        let mut soqa = Soqa::new();
        soqa.register(uni()).unwrap();
        soqa.register(birds()).unwrap();
        let super_thing = UnifiedTree::build(&soqa, TreeMode::SuperThing);
        let merged = UnifiedTree::build(&soqa, TreeMode::MergedThing);
        (soqa, super_thing, merged)
    }

    #[test]
    fn super_thing_counts_every_concept() {
        let (soqa, tree, _) = setup();
        assert_eq!(tree.node_count(), 1 + soqa.total_concept_count());
        assert_eq!(tree.all_concepts().len(), soqa.total_concept_count());
    }

    #[test]
    fn merged_mode_collapses_roots() {
        let (soqa, _, merged) = setup();
        // Two Thing roots collapse into node 0.
        assert_eq!(merged.node_count(), 1 + soqa.total_concept_count() - 2);
        let uni_thing = soqa.resolve("uni", "Thing").unwrap();
        let birds_thing = soqa.resolve("birds", "Thing").unwrap();
        assert_eq!(merged.node(uni_thing), 0);
        assert_eq!(merged.node(birds_thing), 0);
    }

    /// Figure 3's argument, quantitatively: under Super Thing the distance
    /// Student–Professor (2) is far smaller than Student–Blackbird (6); in
    /// the merged tree Blackbird moves closer (4) while Professor stays
    /// at 2 — and Student–Bird becomes as close (3 vs … ) as in-domain
    /// concepts, blurring domains.
    #[test]
    fn figure3_distances() {
        let (soqa, st, merged) = setup();
        let student = soqa.resolve("uni", "Student").unwrap();
        let professor = soqa.resolve("uni", "Professor").unwrap();
        let blackbird = soqa.resolve("birds", "Blackbird").unwrap();

        let d = |t: &UnifiedTree, a, b| t.taxonomy().shortest_path(t.node(a), t.node(b)).unwrap();
        assert_eq!(d(&st, student, professor), 2);
        assert_eq!(d(&st, student, blackbird), 6);
        assert_eq!(d(&merged, student, professor), 2);
        assert_eq!(d(&merged, student, blackbird), 4);
        // The gap shrinks from 3× to 2× — with flatter ontologies (paper's
        // Fig. 3 has depth-1 domains) it vanishes entirely.
        let mut flat_soqa = Soqa::new();
        let mut b1 = OntologyBuilder::new(OntologyMetadata {
            name: "o1".into(),
            ..OntologyMetadata::default()
        });
        let t1 = b1.concept("Thing");
        for n in ["Student", "Professor"] {
            let c = b1.concept(n);
            b1.add_subclass(c, t1);
        }
        let mut b2 = OntologyBuilder::new(OntologyMetadata {
            name: "o2".into(),
            ..OntologyMetadata::default()
        });
        let t2 = b2.concept("Thing");
        let bb = b2.concept("Blackbird");
        b2.add_subclass(bb, t2);
        flat_soqa.register(b1.build()).unwrap();
        flat_soqa.register(b2.build()).unwrap();
        let flat_merged = UnifiedTree::build(&flat_soqa, TreeMode::MergedThing);
        let s = flat_soqa.resolve("o1", "Student").unwrap();
        let p = flat_soqa.resolve("o1", "Professor").unwrap();
        let blackb = flat_soqa.resolve("o2", "Blackbird").unwrap();
        // Exactly the paper's complaint: equal distances.
        assert_eq!(
            flat_merged
                .taxonomy()
                .shortest_path(flat_merged.node(s), flat_merged.node(p)),
            flat_merged
                .taxonomy()
                .shortest_path(flat_merged.node(s), flat_merged.node(blackb)),
        );
    }

    #[test]
    fn subtree_concepts_cover_descendants() {
        let (soqa, tree, _) = setup();
        let person = soqa.resolve("uni", "Person").unwrap();
        let names: Vec<String> = tree
            .subtree_concepts(tree.node(person))
            .iter()
            .map(|&gc| soqa.concept(gc).name.clone())
            .collect();
        assert_eq!(names, vec!["Person", "Student", "Professor"]);
        // From the synthetic root: everything.
        assert_eq!(tree.subtree_concepts(0).len(), soqa.total_concept_count());
    }

    #[test]
    fn root_paths_are_qualified_from_super_thing() {
        let (soqa, tree, _) = setup();
        let student = soqa.resolve("uni", "Student").unwrap();
        assert_eq!(
            tree.root_path_names(&soqa, student),
            vec![SUPER_THING, "Thing", "Person", "Student"]
        );
    }

    #[test]
    fn same_name_concepts_map_to_distinct_nodes() {
        let (soqa, tree, _) = setup();
        let a = soqa.resolve("uni", "Thing").unwrap();
        let b = soqa.resolve("birds", "Thing").unwrap();
        assert_ne!(tree.node(a), tree.node(b));
        assert_eq!(tree.concept(tree.node(a)), Some(a));
    }
}
