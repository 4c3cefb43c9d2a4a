//! Seeded differential tests for the library kernels: every bit-parallel,
//! bitset-backed or ancestor-list kernel must reproduce its classic
//! reference implementation *bit for bit* on randomized inputs, including
//! the multi-block regime (patterns longer than one 64-bit word),
//! non-ASCII alphabets and multi-parent taxonomies. The references — the
//! classic Levenshtein DP, the allocating greedy Jaro scan and the
//! full-table common-ancestor scans — live only here. The PRNG is
//! deterministic (SplitMix64), so any failure reproduces exactly from the
//! printed seed.

use sst_simpack::{
    edge_similarity, jaro, jaro_fast, jaro_winkler, jaro_winkler_fast, jiang_conrath_similarity,
    levenshtein_distance, levenshtein_similarity, levenshtein_similarity_table, lin_similarity,
    myers_sequence_similarity_from, myers_similarity_chars_from, needleman_wunsch,
    needleman_wunsch_similarity, qgram, qgram_packed_from, resnik_similarity, sequence_similarity,
    smith_waterman, smith_waterman_similarity, wu_palmer_similarity, wu_palmer_similarity_rooted,
    AlignmentScoring, CostModel, DepthTable, InformationContent, JaroMask, MyersPattern, NodeId,
    QGramPacked, Taxonomy,
};

/// Deterministic PRNG (SplitMix64) so failures reproduce exactly.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Mixed alphabet: ASCII letters plus multi-byte code points (Latin-1
/// supplement, Greek, CJK, and an astral-plane symbol) so char-to-symbol
/// casts and 21-bit q-gram packing see the full scalar-value range.
const ALPHABET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'A', 'Z', '0', '9', '_', ' ', 'é', 'ß', 'λ', 'Ω', '中', '文', '𝛼',
];

fn word(rng: &mut Rng, max_len: usize) -> Vec<char> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

/// Classic O(nm) two-row Levenshtein DP over arbitrary symbols — the
/// independent reference the bit-parallel kernel is checked against.
fn classic_levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = Vec::with_capacity(b.len() + 1);
    for (i, x) in a.iter().enumerate() {
        curr.clear();
        curr.push(i + 1);
        for (y, w) in b.iter().zip(prev.windows(2)) {
            let sub = w[0] + usize::from(x != y);
            let del = w[1] + 1;
            let ins = curr.last().copied().unwrap_or(0) + 1;
            curr.push(sub.min(del).min(ins));
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev.last().copied().unwrap_or(0)
}

/// Levenshtein similarity `1 − d / max(|a|, |b|)` over the classic DP.
fn classic_levenshtein_similarity(a: &[char], b: &[char]) -> f64 {
    let max_len = a.len().max(b.len());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - classic_levenshtein(a, b) as f64 / max_len as f64
}

/// Myers over chars equals the classic DP distance and similarity bit for
/// bit: on the textbook pairs, on lengths straddling the 64-symbol block
/// boundary, and on random words across the single-block (≤ 64) and
/// multi-block (up to 300-symbol) regimes.
#[test]
fn myers_chars_matches_classic_dp_including_multiblock() {
    let classics = [
        ("kitten", "sitting"),
        ("flaw", "lawn"),
        ("", "abc"),
        ("abc", ""),
        ("same", "same"),
        ("zürich", "zurich"),
        ("a", "a"),
        ("a", "b"),
    ];
    let mut cases: Vec<(Vec<char>, Vec<char>)> = classics
        .iter()
        .map(|(a, b)| (a.chars().collect(), b.chars().collect()))
        .collect();
    for la in [63usize, 64, 65, 127, 128, 129, 200] {
        for lb in [1usize, 63, 64, 65, 130, 256] {
            let cycle = |len: usize, period: u8| -> Vec<char> {
                (0..len)
                    .map(|i| char::from(b'a' + (i % usize::from(period)) as u8))
                    .collect()
            };
            cases.push((cycle(la, 7), cycle(lb, 5)));
        }
    }
    for seed in 0..400u64 {
        let mut rng = Rng(seed.wrapping_mul(0xC0FF_EE01));
        // Skew lengths so both regimes are well sampled: half the cases
        // stay under one block, half stretch into multi-block territory.
        let max = if seed % 2 == 0 { 64 } else { 300 };
        cases.push((word(&mut rng, max), word(&mut rng, max)));
    }
    for (case, (a, b)) in cases.iter().enumerate() {
        let fast = myers_similarity_chars_from(&MyersPattern::from_chars(a), b);
        let reference = classic_levenshtein_similarity(a, b);
        assert_eq!(
            fast.to_bits(),
            reference.to_bits(),
            "case {case}: myers {fast} vs classic {reference} (|a|={}, |b|={})",
            a.len(),
            b.len()
        );
        let (sa, sb): (String, String) = (a.iter().collect(), b.iter().collect());
        assert_eq!(
            levenshtein_similarity(&sa, &sb).to_bits(),
            reference.to_bits(),
            "case {case} str similarity"
        );
        assert_eq!(
            levenshtein_distance(&sa, &sb),
            classic_levenshtein(a, b),
            "case {case} distance"
        );
    }
}

/// The all-pairs table (the Monge-Elkan inner table) equals
/// `levenshtein_similarity` and the classic DP cell by cell, bit for bit,
/// over a pool of ASCII, non-ASCII and digit tokens, the empty token,
/// tokens at and around the 64-character block boundary and past two
/// blocks, and random words of the mixed alphabet.
#[test]
fn levenshtein_table_matches_pairwise_similarity() {
    let cycle = |len: usize, from: char| -> String {
        (0..len)
            .map(|i| char::from_u32(from as u32 + (i % 11) as u32).unwrap_or(from))
            .collect()
    };
    let mut pool: Vec<String> = [
        "professor",
        "professors",
        "student",
        "course",
        "étudiant",
        "straße",
        "中文课程",
        "𝛼λΩ",
        "101",
        "cs101",
        "2006",
        "",
    ]
    .iter()
    .map(|t| t.to_string())
    .collect();
    for len in [63, 64, 65, 130] {
        pool.push(cycle(len, 'a'));
        pool.push(cycle(len, 'é'));
    }
    let mut rng = Rng(0x7ab1e);
    for _ in 0..40 {
        pool.push(word(&mut rng, 140).into_iter().collect());
    }
    let table = levenshtein_similarity_table(&pool);
    assert_eq!(table.len(), pool.len());
    for (x, row) in pool.iter().zip(&table) {
        assert_eq!(row.len(), pool.len());
        for (y, &cell) in pool.iter().zip(row) {
            let (cx, cy): (Vec<char>, Vec<char>) = (x.chars().collect(), y.chars().collect());
            let reference = classic_levenshtein_similarity(&cx, &cy);
            assert_eq!(
                cell.to_bits(),
                levenshtein_similarity(x, y).to_bits(),
                "{x:?} vs {y:?}"
            );
            assert_eq!(cell.to_bits(), reference.to_bits(), "{x:?} vs {y:?}");
        }
    }
    assert!(levenshtein_similarity_table(&[]).is_empty());
}

/// Myers over interned u32 tokens reproduces the unit-cost weighted
/// sequence DP (Eq. 4 with `CostModel::UNIT`) bit for bit.
#[test]
fn myers_ids_matches_unit_sequence_similarity() {
    for seed in 0..400u64 {
        let mut rng = Rng(seed.wrapping_mul(0xBEEF_0002));
        let max = if seed % 2 == 0 { 64 } else { 300 };
        // Small id alphabet forces plenty of matches; occasional large ids
        // exercise the sparse symbol table.
        let ids = |rng: &mut Rng| -> Vec<u32> {
            let len = rng.below(max + 1);
            (0..len)
                .map(|_| {
                    if rng.below(16) == 0 {
                        rng.next() as u32
                    } else {
                        rng.below(12) as u32
                    }
                })
                .collect()
        };
        let a = ids(&mut rng);
        let b = ids(&mut rng);
        let fast = myers_sequence_similarity_from(&MyersPattern::new(&a), &b);
        let reference = sequence_similarity(&a, &b, CostModel::UNIT);
        assert_eq!(
            fast.to_bits(),
            reference.to_bits(),
            "seed {seed}: myers {fast} vs sequence DP {reference} (|a|={}, |b|={})",
            a.len(),
            b.len()
        );
    }
}

/// Packed (sorted-u64 bitset) q-gram profiles reproduce the hash-set
/// profile's Dice value bit for bit for every q that packs (q ≤ 3).
#[test]
fn qgram_packed_matches_hash_profile() {
    for seed in 0..400u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9_0003));
        let a: String = word(&mut rng, 40).into_iter().collect();
        let b: String = word(&mut rng, 40).into_iter().collect();
        for q in 1..=3usize {
            let pa = QGramPacked::new(&a, q).expect("q <= 3 packs");
            let pb = QGramPacked::new(&b, q).expect("q <= 3 packs");
            let fast = qgram_packed_from(&pa, &pb);
            let reference = qgram(&a, &b, q);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "seed {seed} q={q}: packed {fast} vs hash {reference} ({a:?} vs {b:?})"
            );
        }
        assert!(QGramPacked::new(&a, 4).is_none(), "q=4 must not pack");
    }
}

/// The alignment kernels' per-thread DP rows carry capacity only, never
/// state: every score computed on one thread after hundreds of pairs of
/// other sizes equals the score computed on a fresh thread, bit for bit.
#[test]
fn alignment_scratch_reuse_matches_fresh_allocation() {
    let scoring = AlignmentScoring::default();
    let scores = |a: &[char], b: &[char]| {
        [
            needleman_wunsch(a, b, scoring),
            needleman_wunsch_similarity(a, b, scoring),
            smith_waterman(a, b, scoring),
            smith_waterman_similarity(a, b, scoring),
        ]
        .map(f64::to_bits)
    };
    let pairs: Vec<(Vec<char>, Vec<char>)> = (0..400u64)
        .map(|seed| {
            let mut rng = Rng(seed.wrapping_mul(0xA119_0005));
            (word(&mut rng, 30), word(&mut rng, 30))
        })
        .collect();
    let reused: Vec<[u64; 4]> = pairs.iter().map(|(a, b)| scores(a, b)).collect();
    for (seed, ((a, b), expected)) in pairs.iter().zip(&reused).enumerate() {
        let fresh =
            std::thread::scope(|s| s.spawn(|| scores(a, b)).join()).expect("scoring thread");
        assert_eq!(fresh, *expected, "seed {seed}");
    }
}

/// The allocating greedy Jaro scan: each `a` character takes the first
/// unused equal `b` character inside the match window.
fn reference_jaro(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut b_matches = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                b_matches.push(j);
                break;
            }
        }
    }
    let m = b_matches.len();
    if m == 0 {
        return 0.0;
    }
    let mut sorted = b_matches.clone();
    sorted.sort_unstable();
    let transpositions = b_matches
        .iter()
        .zip(&sorted)
        .filter(|(x, y)| x != y)
        .count();
    let t = transpositions as f64 / 2.0;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
}

/// Winkler's prefix boost (common prefix ≤ 4, p = 0.1) above the 0.7
/// threshold.
fn reference_jaro_winkler(a: &[char], b: &[char]) -> f64 {
    let j = reference_jaro(a, b);
    if j <= 0.7 {
        return j;
    }
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// The masked Jaro / Jaro-Winkler kernel and the greedy scan reproduce the
/// allocating reference bit for bit — with a precomputed position mask,
/// and without one (the > 64-char regime) — as do the `&str` entry points.
#[test]
fn jaro_fast_matches_reference_with_and_without_mask() {
    for seed in 0..400u64 {
        let mut rng = Rng(seed.wrapping_mul(0x1A70_0004));
        // Half the cases fit the 64-char mask window, half overflow it.
        let max = if seed % 2 == 0 { 64 } else { 100 };
        let a = word(&mut rng, max);
        let b = word(&mut rng, max);
        let sa: String = a.iter().collect();
        let sb: String = b.iter().collect();
        let mask = JaroMask::new(&b);
        assert_eq!(mask.is_some(), b.len() <= 64, "seed {seed} mask gate");
        let reference = reference_jaro(&a, &b);
        let reference_w = reference_jaro_winkler(&a, &b);
        for use_mask in [false, true] {
            let bmask = if use_mask { mask.as_ref() } else { None };
            let fast = jaro_fast(&a, &b, bmask);
            assert_eq!(
                fast.to_bits(),
                reference.to_bits(),
                "seed {seed} mask={use_mask}: jaro {fast} vs {reference} ({sa:?} vs {sb:?})"
            );
            let fast_w = jaro_winkler_fast(&a, &b, bmask);
            assert_eq!(
                fast_w.to_bits(),
                reference_w.to_bits(),
                "seed {seed} mask={use_mask}: jaro-winkler {fast_w} vs {reference_w}"
            );
        }
        assert_eq!(
            jaro(&sa, &sb).to_bits(),
            reference.to_bits(),
            "seed {seed} jaro"
        );
        assert_eq!(
            jaro_winkler(&sa, &sb).to_bits(),
            reference_w.to_bits(),
            "seed {seed} jaro-winkler"
        );
    }
}

/// Random rooted DAG over 2–40 nodes: every node after the root gets one
/// to three parents among the earlier nodes (multiple inheritance), and
/// about one in twenty gets none (a disconnected node).
fn random_dag(rng: &mut Rng) -> Taxonomy {
    let n = 2 + rng.below(39);
    let mut t = Taxonomy::new(n, 0);
    for child in 1..n {
        if rng.below(20) == 0 {
            continue;
        }
        let parents = 1 + usize::from(rng.below(3) == 0) + usize::from(rng.below(10) == 0);
        for _ in 0..parents {
            t.add_edge(child as NodeId, rng.below(child) as NodeId);
        }
    }
    t
}

/// Full-table reference: the shortest summed upward distance over every
/// node that subsumes both concepts.
fn path_via_common_ancestor_from(da: &[Option<u32>], db: &[Option<u32>]) -> Option<u32> {
    da.iter()
        .zip(db)
        .filter_map(|(x, y)| Some(x.as_ref()? + y.as_ref()?))
        .min()
}

/// Full-table reference: the common ancestor with the smallest summed
/// upward distance, then the greatest depth, then the smallest id.
fn mrca_from(
    da: &[Option<u32>],
    db: &[Option<u32>],
    depths: &DepthTable,
) -> Option<(NodeId, u32, u32)> {
    let mut best: Option<(NodeId, u32, u32, u32)> = None;
    for n in 0..da.len() as NodeId {
        let (Some(n1), Some(n2)) = (da[n as usize], db[n as usize]) else {
            continue;
        };
        let depth = depths.depth(n);
        let better = match best {
            None => true,
            Some((bn, b1, b2, bd)) => {
                let (sum, bsum) = (n1 + n2, b1 + b2);
                sum < bsum || (sum == bsum && (depth > bd || (depth == bd && n < bn)))
            }
        };
        if better {
            best = Some((n, n1, n2, depth));
        }
    }
    best.map(|(n, n1, n2, _)| (n, n1, n2))
}

/// Full-table reference: the common subsumer of maximal information
/// content, ties to the smaller id.
fn best_subsumer_from(
    ic: &InformationContent,
    da: &[Option<u32>],
    db: &[Option<u32>],
) -> Option<NodeId> {
    (0..da.len() as NodeId)
        .filter(|&n| da[n as usize].is_some() && db[n as usize].is_some())
        .max_by(|&x, &y| {
            ic.ic(x)
                .partial_cmp(&ic.ic(y))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(y.cmp(&x))
        })
}

/// The graph and information-content measures, which select their common
/// ancestor by merging two compact ancestor lists, reproduce the
/// full-table scans over `Taxonomy::up_distances` bit for bit: the same
/// path length, MRCA and best subsumer, and Eq. 5–8 evaluated on them.
#[test]
fn graph_and_ic_kernels_match_full_table_scans() {
    for seed in 0..300u64 {
        let mut rng = Rng(seed.wrapping_mul(0xDA6_0006));
        let t = random_dag(&mut rng);
        let n = t.node_count();
        // Few distinct counts, so information contents tie often.
        let counts: Vec<f64> = (0..n).map(|_| rng.below(3) as f64).collect();
        let ic = InformationContent::from_counts(&t, &counts);
        let depths = t.depths();
        let max = depths.max() as f64;
        let tables: Vec<Vec<Option<u32>>> = (0..n as NodeId).map(|a| t.up_distances(a)).collect();
        for a in 0..n as NodeId {
            for b in 0..n as NodeId {
                let (da, db) = (&tables[a as usize], &tables[b as usize]);
                let what = format!("seed {seed} pair ({a}, {b}) of {n}");
                let same = f64::from(u8::from(a == b));

                let path = path_via_common_ancestor_from(da, db);
                assert_eq!(t.path_via_common_ancestor(a, b), path, "{what} path");
                let edge = if max == 0.0 {
                    same
                } else {
                    path.map_or(0.0, |len| {
                        ((2.0 * max - len as f64) / (2.0 * max)).clamp(0.0, 1.0)
                    })
                };
                assert_eq!(
                    edge_similarity(&t, a, b).to_bits(),
                    edge.to_bits(),
                    "{what}"
                );

                let mrca = mrca_from(da, db, &depths);
                assert_eq!(t.mrca(a, b), mrca, "{what} mrca");
                let (wp, rooted) = mrca.map_or((0.0, 0.0), |(m, n1, n2)| {
                    let (n1, n2, n3) = (n1 as f64, n2 as f64, depths.depth(m) as f64);
                    let denom = n1 + n2 + 2.0 * n3;
                    let wp = if denom == 0.0 { same } else { 2.0 * n3 / denom };
                    let r3 = n3 + 1.0;
                    (wp, 2.0 * r3 / (n1 + n2 + 2.0 * r3))
                });
                assert_eq!(
                    wu_palmer_similarity(&t, a, b).to_bits(),
                    wp.to_bits(),
                    "{what}"
                );
                assert_eq!(
                    wu_palmer_similarity_rooted(&t, a, b).to_bits(),
                    rooted.to_bits(),
                    "{what}"
                );

                let best = best_subsumer_from(&ic, da, db);
                let resnik = best.map_or(0.0, |z| ic.ic(z)) + 0.0;
                assert_eq!(
                    resnik_similarity(&t, &ic, a, b).to_bits(),
                    resnik.to_bits(),
                    "{what} resnik"
                );
                let denom = ic.probability(a).log2() + ic.probability(b).log2();
                let lin = if denom == 0.0 {
                    same
                } else {
                    best.map_or(0.0, |z| {
                        (2.0 * ic.probability(z).log2() / denom).clamp(0.0, 1.0) + 0.0
                    })
                };
                assert_eq!(
                    lin_similarity(&t, &ic, a, b).to_bits(),
                    lin.to_bits(),
                    "{what} lin"
                );
                let jc = best.map_or(0.0, |z| {
                    1.0 / (1.0 + (ic.ic(a) + ic.ic(b) - 2.0 * ic.ic(z)).max(0.0))
                });
                assert_eq!(
                    jiang_conrath_similarity(&t, &ic, a, b).to_bits(),
                    jc.to_bits(),
                    "{what} jiang-conrath"
                );
            }
        }
    }
}
