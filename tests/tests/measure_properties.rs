//! Property-based tests: measure invariants over randomly generated
//! taxonomies — symmetry, identity, normalization, and the triangle-ish
//! monotonicity properties the distance measures promise. Sampled with
//! the vendored deterministic PRNG so failures reproduce exactly.

use sst_bench::{generate_taxonomy, load_corpus, SplitMix64, TaxonomySpec};
use sst_core::{SstBuilder, TreeMode};
use sst_simpack::{
    edge_similarity, lin_similarity, resnik_similarity, shortest_path_similarity,
    wu_palmer_similarity, wu_palmer_similarity_rooted, InformationContent, Taxonomy,
};

/// Builds a random taxonomy directly (avoids the heavier Ontology layer):
/// random parents with occasional multiple inheritance.
fn arb_taxonomy(rng: &mut SplitMix64) -> Taxonomy {
    let n = rng.gen_range(2..60);
    let mut t = Taxonomy::new(n, 0);
    for child in 1..n as u32 {
        let parent = rng.gen_range(0..child as usize) as u32;
        t.add_edge(child, parent);
        // Occasionally add a second parent (multiple inheritance).
        if rng.gen_bool(0.2) && child > 1 {
            let second = rng.gen_range(0..child as usize) as u32;
            t.add_edge(child, second);
        }
    }
    t
}

const CASES: u64 = 64;

#[test]
fn graph_measures_are_symmetric_normalized_and_reflexive() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let t = arb_taxonomy(&mut rng);
        let n = t.node_count();
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        let ic = InformationContent::from_subclasses(&t);
        for f in [
            shortest_path_similarity,
            edge_similarity,
            wu_palmer_similarity,
            wu_palmer_similarity_rooted,
        ] {
            let ab = f(&t, a, b);
            assert!((ab - f(&t, b, a)).abs() < 1e-12, "seed {seed}");
            assert!(
                (0.0..=1.0 + 1e-12).contains(&ab),
                "seed {seed}: out of range: {}",
                ab
            );
            assert!((f(&t, a, a) - 1.0).abs() < 1e-12, "seed {seed}");
        }
        let lin_ab = lin_similarity(&t, &ic, a, b);
        assert!(
            (lin_ab - lin_similarity(&t, &ic, b, a)).abs() < 1e-12,
            "seed {seed}"
        );
        assert!((0.0..=1.0 + 1e-12).contains(&lin_ab), "seed {seed}");
        let res = resnik_similarity(&t, &ic, a, b);
        assert!(res >= 0.0 && res.is_finite(), "seed {seed}");
        // Resnik self-similarity equals own IC and dominates pair scores.
        assert!(
            resnik_similarity(&t, &ic, a, a) + 1e-12 >= res,
            "seed {seed}"
        );
    }
}

#[test]
fn deeper_mrca_never_hurts_wu_palmer() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x3A3A);
        let t = arb_taxonomy(&mut rng);
        let node = rng.gen_range(0..t.node_count()) as u32;
        // Along a *single-parent* chain node → parent → grandparent, the
        // similarity to the parent is at least the similarity to the
        // grandparent. (With multiple inheritance a second, shorter route
        // can make an ancestor further up the chain score higher, so the
        // property is restricted to unique-parent chains.)
        let [parent] = t.parents(node) else { continue };
        let [grand] = t.parents(*parent) else {
            continue;
        };
        let sp = wu_palmer_similarity_rooted(&t, node, *parent);
        let sg = wu_palmer_similarity_rooted(&t, node, *grand);
        assert!(
            sp + 1e-12 >= sg,
            "seed {seed}: parent {sp} < grandparent {sg}"
        );
    }
}

#[test]
fn ic_probabilities_are_monotone_toward_the_root() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x1C1C);
        let t = arb_taxonomy(&mut rng);
        let ic = InformationContent::from_subclasses(&t);
        let node = rng.gen_range(0..t.node_count()) as u32;
        for &p in t.parents(node) {
            assert!(
                ic.probability(p) + 1e-12 >= ic.probability(node),
                "seed {seed}"
            );
        }
        assert!((ic.probability(t.root()) - 1.0).abs() < 1e-9, "seed {seed}");
    }
}

/// Full-stack property: on generated ontologies, every registered
/// measure keeps its invariants through the facade.
#[test]
fn facade_measures_hold_invariants_on_generated_ontologies() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::seed_from_u64(case.wrapping_mul(0x0FAC).wrapping_add(1));
        let concepts = rng.gen_range(10..80);
        let seed = rng.next_u64();
        let ontology = generate_taxonomy(TaxonomySpec {
            concepts,
            seed,
            instances: concepts / 2,
            ..Default::default()
        });
        let name = ontology.name().to_owned();
        let names: Vec<String> = ontology
            .concept_ids()
            .map(|id| ontology.concept(id).name.clone())
            .collect();
        let sst = SstBuilder::new()
            .register_ontology(ontology)
            .unwrap()
            .build();
        let a = &names[seed as usize % names.len()];
        let b = &names[(seed as usize / 7) % names.len()];
        for (id, info) in sst.measures().into_iter().enumerate() {
            let ab = sst.get_similarity(a, &name, b, &name, id).unwrap();
            let ba = sst.get_similarity(b, &name, a, &name, id).unwrap();
            assert!(
                (ab - ba).abs() < 1e-9,
                "case {case}: {} asymmetric",
                info.name
            );
            assert!(ab >= 0.0 && ab.is_finite(), "case {case}");
            if info.normalized {
                assert!(ab <= 1.0 + 1e-9, "case {case}: {} = {}", info.name, ab);
                let self_sim = sst.get_similarity(a, &name, a, &name, id).unwrap();
                assert!(
                    (self_sim - 1.0).abs() < 1e-9,
                    "case {case}: {} self {}",
                    info.name,
                    self_sim
                );
            }
        }
    }
}

/// The identity axiom, exactly: every normalized built-in scores every
/// registered concept of the paper corpus 1.0 against itself, bit for bit,
/// in both tree modes — including the ontology roots that `MergedThing`
/// merges into the shared root.
#[test]
fn normalized_measures_score_every_concept_exactly_one_against_itself() {
    for mode in [TreeMode::SuperThing, TreeMode::MergedThing] {
        let sst = load_corpus(mode, false);
        let soqa = sst.soqa();
        for (id, info) in sst.measures().into_iter().enumerate() {
            if !info.normalized {
                continue;
            }
            for gc in soqa.all_concepts() {
                let (concept, ontology) =
                    (&soqa.concept(gc).name, soqa.ontology_at(gc.ontology).name());
                let own = sst
                    .get_similarity(concept, ontology, concept, ontology, id)
                    .unwrap();
                assert_eq!(
                    own.to_bits(),
                    1.0f64.to_bits(),
                    "{mode:?} {}: {ontology}:{concept} scores {own} against itself",
                    info.name
                );
            }
        }
    }
}
