//! Distance-based similarity measures over specialization graphs
//! (paper §2.2, Eq. 5–6).
//!
//! The specialization graph of an ontology with multiple inheritance is a
//! rooted DAG, so the "ontology distance" comes in two flavours the paper
//! names: the shortest path *through a common ancestor* and the shortest
//! path *in general* (undirected, possibly through common descendants).

use std::collections::VecDeque;
use std::sync::{Arc, PoisonError, RwLock};

/// Node handle within a [`Taxonomy`].
pub type NodeId = u32;

/// Cached per-node depths plus the maximum depth (`MAX` of Eq. 5),
/// computed in one downward BFS and shared via `Arc` so batch scans can
/// hold one reference instead of re-locking the cache per lookup.
#[derive(Debug, Clone)]
pub struct DepthTable {
    depths: Vec<u32>,
    max: u32,
}

impl DepthTable {
    /// Depth of `n` (shortest edge count from the root).
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depths[n as usize]
    }

    /// The depth of the deepest node.
    pub fn max(&self) -> u32 {
        self.max
    }

    /// All depths, indexed by node id.
    pub fn as_slice(&self) -> &[u32] {
        &self.depths
    }
}

/// A rooted specialization DAG. Nodes are dense ids; edges point from
/// subconcept to superconcept.
///
/// Depths are cached after first use (and invalidated by [`Taxonomy::
/// add_edge`]): the distance-based measures ask for `depth`/`max_depth`
/// per pair, and recomputing a BFS per query would dominate k-most-similar
/// scans.
#[derive(Debug)]
pub struct Taxonomy {
    parents: Vec<Vec<NodeId>>,
    children: Vec<Vec<NodeId>>,
    root: NodeId,
    depth_cache: RwLock<Option<Arc<DepthTable>>>,
}

impl Clone for Taxonomy {
    fn clone(&self) -> Self {
        Taxonomy {
            parents: self.parents.clone(),
            children: self.children.clone(),
            root: self.root,
            depth_cache: RwLock::new(
                self.depth_cache
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl Taxonomy {
    /// Creates a taxonomy with `node_count` nodes rooted at `root`.
    pub fn new(node_count: usize, root: NodeId) -> Self {
        // lint: allow(panic) construction-time invariant; taxonomies are built by UnifiedTree with a valid root
        assert!((root as usize) < node_count, "root out of range");
        Taxonomy {
            parents: vec![Vec::new(); node_count],
            children: vec![Vec::new(); node_count],
            root,
            depth_cache: RwLock::new(None),
        }
    }

    /// Declares `child` a direct subconcept of `parent` (idempotent; self
    /// loops ignored).
    pub fn add_edge(&mut self, child: NodeId, parent: NodeId) {
        if child == parent {
            return;
        }
        if !self.parents[child as usize].contains(&parent) {
            self.parents[child as usize].push(parent);
            self.children[parent as usize].push(child);
            *self
                .depth_cache
                .write()
                .unwrap_or_else(PoisonError::into_inner) = None;
        }
    }

    /// Depths of every node (shortest edge count from the root, downward
    /// BFS over child edges; unreachable nodes get depth 0), together with
    /// the maximum depth. Computed once and cached until the taxonomy
    /// changes, so `max_depth` is an O(1) lookup rather than an O(n) scan.
    pub fn depths(&self) -> Arc<DepthTable> {
        if let Some(cached) = self
            .depth_cache
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
        {
            return cached;
        }
        let mut depths = vec![0u32; self.node_count()];
        let mut seen = vec![false; self.node_count()];
        seen[self.root as usize] = true;
        let mut queue = VecDeque::from([self.root]);
        while let Some(n) = queue.pop_front() {
            for &c in &self.children[n as usize] {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    depths[c as usize] = depths[n as usize] + 1;
                    queue.push_back(c);
                }
            }
        }
        let max = depths.iter().copied().max().unwrap_or(0);
        let table = Arc::new(DepthTable { depths, max });
        *self
            .depth_cache
            .write()
            .unwrap_or_else(PoisonError::into_inner) = Some(table.clone());
        table
    }

    pub fn node_count(&self) -> usize {
        self.parents.len()
    }

    pub fn root(&self) -> NodeId {
        self.root
    }

    pub fn parents(&self, n: NodeId) -> &[NodeId] {
        &self.parents[n as usize]
    }

    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.children[n as usize]
    }

    /// Upward distances from `start` to every ancestor-or-self:
    /// `dist[n] = Some(k)` if `n` subsumes `start` at k steps.
    pub fn up_distances(&self, start: NodeId) -> Vec<Option<u32>> {
        self.bfs(start, false)
    }

    /// Undirected BFS distances from `start` to every node (over parent and
    /// child edges alike). `undirected[b]` equals
    /// [`Taxonomy::shortest_path`]`(start, b)` for every `b`.
    pub fn undirected_distances(&self, start: NodeId) -> Vec<Option<u32>> {
        self.bfs(start, true)
    }

    /// The compact ancestor-or-self list of `start`: the `Some` entries of
    /// [`Taxonomy::up_distances`], found by a BFS that visits only the
    /// ancestors instead of filling a node-count-sized table.
    pub fn ancestors(&self, start: NodeId) -> AncestorList {
        // `entries` doubles as the FIFO queue, so every ancestor keeps the
        // distance of its first discovery, exactly as in the table BFS.
        let mut entries = vec![(start, 0u32)];
        let mut next = 0;
        while let Some(&(n, d)) = entries.get(next) {
            for &p in &self.parents[n as usize] {
                if entries.iter().all(|&(m, _)| m != p) {
                    entries.push((p, d + 1));
                }
            }
            next += 1;
        }
        entries.sort_unstable();
        AncestorList { entries }
    }

    /// BFS from `start` over parent edges, plus child edges when
    /// `undirected`.
    fn bfs(&self, start: NodeId, undirected: bool) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.node_count()];
        dist[start as usize] = Some(0);
        let mut queue = VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            let Some(d) = dist[n as usize] else { continue };
            let down: &[NodeId] = if undirected {
                &self.children[n as usize]
            } else {
                &[]
            };
            for &m in self.parents[n as usize].iter().chain(down) {
                if dist[m as usize].is_none() {
                    dist[m as usize] = Some(d + 1);
                    queue.push_back(m);
                }
            }
        }
        dist
    }

    /// Depth of `n`: shortest upward distance from `n` to the root.
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depths().depth(n)
    }

    /// `MAX` of Eq. 5: the depth of the deepest node (cached, O(1)).
    pub fn max_depth(&self) -> u32 {
        self.depths().max()
    }

    /// Length of the shortest undirected path between `a` and `b` —
    /// the paper's "shortest path in general", which may run through common
    /// descendants. `None` if the graph is disconnected between them.
    pub fn shortest_path(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return Some(0);
        }
        let mut dist = vec![None; self.node_count()];
        dist[a as usize] = Some(0);
        let mut queue = VecDeque::from([a]);
        while let Some(n) = queue.pop_front() {
            let Some(d) = dist[n as usize] else { continue };
            for &m in self.parents[n as usize]
                .iter()
                .chain(&self.children[n as usize])
            {
                if dist[m as usize].is_none() {
                    if m == b {
                        return Some(d + 1);
                    }
                    dist[m as usize] = Some(d + 1);
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Length of the shortest path from `a` to `b` running through a common
    /// ancestor (the classical edge-counting distance on taxonomies).
    pub fn path_via_common_ancestor(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let da = self.up_distances(a);
        let db = self.up_distances(b);
        path_via_common_ancestor_from(&da, &db)
    }

    /// Most recent common ancestor: the common ancestor minimizing the
    /// summed upward distances (ties broken by greater depth, then by id for
    /// determinism). Returns the node together with N1 = dist(a → mrca) and
    /// N2 = dist(b → mrca).
    pub fn mrca(&self, a: NodeId, b: NodeId) -> Option<(NodeId, u32, u32)> {
        let da = self.up_distances(a);
        let db = self.up_distances(b);
        // One depth-table fetch for the whole candidate scan — the previous
        // `self.depth(n)` re-acquired the cache lock per candidate node.
        let depths = self.depths();
        mrca_from(&da, &db, &depths)
    }
}

/// Compact ancestor list of one source concept: `(node, upward distance)`
/// for every ancestor-or-self, sorted by node id. Ontology DAGs are
/// shallow, so a concept's ancestor set is tiny compared to the node count
/// — walking two of these lists replaces the O(node-count) full-table scans
/// of [`mrca_from`]/[`path_via_common_ancestor_from`] with a merge over a
/// handful of entries. Iteration stays in ascending id order, so every
/// tie-break selects the same node and the measures stay bit-identical.
#[derive(Debug, Clone, Default)]
pub struct AncestorList {
    entries: Vec<(NodeId, u32)>,
}

impl AncestorList {
    /// Extracts the `Some` entries of a full upward-distance table (already
    /// in ascending id order).
    pub fn from_table(up: &[Option<u32>]) -> AncestorList {
        AncestorList {
            entries: up
                .iter()
                .enumerate()
                .filter_map(|(n, d)| d.map(|d| (n as NodeId, d)))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge-walks two lists, yielding the common nodes in ascending id
    /// order with both upward distances.
    pub(crate) fn common<'a>(&'a self, other: &'a AncestorList) -> CommonAncestors<'a> {
        CommonAncestors {
            xs: &self.entries,
            ys: &other.entries,
        }
    }
}

/// Iterator over the common entries of two sorted [`AncestorList`]s.
#[derive(Debug)]
pub(crate) struct CommonAncestors<'a> {
    xs: &'a [(NodeId, u32)],
    ys: &'a [(NodeId, u32)],
}

impl Iterator for CommonAncestors<'_> {
    type Item = (NodeId, u32, u32);

    fn next(&mut self) -> Option<(NodeId, u32, u32)> {
        loop {
            let (&(xn, xd), &(yn, yd)) = (self.xs.first()?, self.ys.first()?);
            match xn.cmp(&yn) {
                std::cmp::Ordering::Less => self.xs = self.xs.get(1..).unwrap_or(&[]),
                std::cmp::Ordering::Greater => self.ys = self.ys.get(1..).unwrap_or(&[]),
                std::cmp::Ordering::Equal => {
                    self.xs = self.xs.get(1..).unwrap_or(&[]);
                    self.ys = self.ys.get(1..).unwrap_or(&[]);
                    return Some((xn, xd, yd));
                }
            }
        }
    }
}

/// [`path_via_common_ancestor_from`] over compact ancestor lists. `min`
/// over the same value set as the full-table zip, so the result is
/// identical.
pub fn path_via_common_ancestor_compact(a: &AncestorList, b: &AncestorList) -> Option<u32> {
    a.common(b).map(|(_, x, y)| x + y).min()
}

/// [`mrca_from`] over compact ancestor lists: the candidate scan visits the
/// common nodes in the same ascending id order with the same tie-breaks.
pub fn mrca_compact(
    a: &AncestorList,
    b: &AncestorList,
    depths: &DepthTable,
) -> Option<(NodeId, u32, u32)> {
    let mut best: Option<(NodeId, u32, u32, u32)> = None;
    for (n, n1, n2) in a.common(b) {
        let depth = depths.depth(n);
        let better = match &best {
            None => true,
            Some((bn, b1, b2, bd)) => {
                let (bn, b1, b2, bd) = (*bn, *b1, *b2, *bd);
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

/// [`edge_similarity_from`] over compact ancestor lists.
pub fn edge_similarity_compact(
    a: &AncestorList,
    b: &AncestorList,
    same: bool,
    max_depth: u32,
) -> f64 {
    edge_length_similarity(path_via_common_ancestor_compact(a, b), same, max_depth)
}

/// [`wu_palmer_similarity_from`] over compact ancestor lists.
pub fn wu_palmer_similarity_compact(
    a: &AncestorList,
    b: &AncestorList,
    depths: &DepthTable,
    same: bool,
) -> f64 {
    wu_palmer_core(mrca_compact(a, b, depths), depths, same)
}

/// [`wu_palmer_similarity_rooted_from`] over compact ancestor lists.
pub fn wu_palmer_similarity_rooted_compact(
    a: &AncestorList,
    b: &AncestorList,
    depths: &DepthTable,
) -> f64 {
    wu_palmer_rooted_core(mrca_compact(a, b, depths), depths)
}

/// Table-based [`Taxonomy::path_via_common_ancestor`]: zip-min over two
/// precomputed upward-distance tables.
pub fn path_via_common_ancestor_from(da: &[Option<u32>], db: &[Option<u32>]) -> Option<u32> {
    da.iter()
        .zip(db)
        .filter_map(|(x, y)| Some(x.as_ref()? + y.as_ref()?))
        .min()
}

/// Table-based [`Taxonomy::mrca`]: same scan and tie-breaks (smaller summed
/// distance, then greater depth, then smaller id) over precomputed upward
/// distances and a shared depth table.
pub fn mrca_from(
    da: &[Option<u32>],
    db: &[Option<u32>],
    depths: &DepthTable,
) -> Option<(NodeId, u32, u32)> {
    let mut best: Option<(NodeId, u32, u32, u32)> = None; // (node, n1, n2, depth)
    for n in 0..da.len() as NodeId {
        let (Some(n1), Some(n2)) = (da[n as usize], db[n as usize]) else {
            continue;
        };
        let depth = depths.depth(n);
        let better = match &best {
            None => true,
            Some((bn, b1, b2, bd)) => {
                let (bn, b1, b2, bd) = (*bn, *b1, *b2, *bd);
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

/// Shortest-path similarity: `1 / (1 + len)` over the undirected shortest
/// path; 0 when disconnected. Self-similarity is 1.
pub fn shortest_path_similarity(t: &Taxonomy, a: NodeId, b: NodeId) -> f64 {
    shortest_path_length_similarity(t.shortest_path(a, b))
}

/// `1 / (1 + len)` of a shortest-path length (0 when disconnected) — the
/// formula of [`shortest_path_similarity`], for callers that read lengths
/// from a precomputed [`Taxonomy::undirected_distances`] row.
pub fn shortest_path_length_similarity(len: Option<u32>) -> f64 {
    match len {
        Some(len) => 1.0 / (1.0 + len as f64),
        None => 0.0,
    }
}

/// The normalized edge-counting measure of Eq. 5:
/// `(2·MAX − len(a, b)) / (2·MAX)` with `len` the shortest path through a
/// common ancestor. Disconnected pairs score 0.
pub fn edge_similarity(t: &Taxonomy, a: NodeId, b: NodeId) -> f64 {
    edge_length_similarity(t.path_via_common_ancestor(a, b), a == b, t.max_depth())
}

/// Table-based [`edge_similarity`] over two precomputed upward-distance
/// tables and a cached `MAX` depth.
pub fn edge_similarity_from(
    da: &[Option<u32>],
    db: &[Option<u32>],
    same: bool,
    max_depth: u32,
) -> f64 {
    edge_length_similarity(path_via_common_ancestor_from(da, db), same, max_depth)
}

fn edge_length_similarity(len: Option<u32>, same: bool, max_depth: u32) -> f64 {
    let max = max_depth as f64;
    if max == 0.0 {
        return if same { 1.0 } else { 0.0 };
    }
    match len {
        Some(len) => ((2.0 * max - len as f64) / (2.0 * max)).clamp(0.0, 1.0),
        None => 0.0,
    }
}

/// Wu & Palmer conceptual similarity (Eq. 6):
/// `2·N3 / (N1 + N2 + 2·N3)` where N3 is the depth of the MRCA and N1, N2
/// the distances from the two concepts to it.
pub fn wu_palmer_similarity(t: &Taxonomy, a: NodeId, b: NodeId) -> f64 {
    wu_palmer_core(t.mrca(a, b), &t.depths(), a == b)
}

/// Table-based [`wu_palmer_similarity`].
pub fn wu_palmer_similarity_from(
    da: &[Option<u32>],
    db: &[Option<u32>],
    depths: &DepthTable,
    same: bool,
) -> f64 {
    wu_palmer_core(mrca_from(da, db, depths), depths, same)
}

fn wu_palmer_core(mrca: Option<(NodeId, u32, u32)>, depths: &DepthTable, same: bool) -> f64 {
    let Some((mrca, n1, n2)) = mrca else {
        return 0.0;
    };
    let n3 = depths.depth(mrca) as f64;
    let (n1, n2) = (n1 as f64, n2 as f64);
    let denom = n1 + n2 + 2.0 * n3;
    if denom == 0.0 {
        // Both concepts are the root itself.
        return if same { 1.0 } else { 0.0 };
    }
    2.0 * n3 / denom
}

/// Wu & Palmer with node-counted depth: `N3' = depth(MRCA) + 1`, i.e. the
/// root itself counts as one level. This is the convention the original
/// SimPack used inside SST — it keeps cross-ontology pairs (whose MRCA is
/// the Super-Thing root) at a small *nonzero* similarity ordered by path
/// length, matching the paper's Table 1 column. Self-similarity is 1.
pub fn wu_palmer_similarity_rooted(t: &Taxonomy, a: NodeId, b: NodeId) -> f64 {
    wu_palmer_rooted_core(t.mrca(a, b), &t.depths())
}

/// Table-based [`wu_palmer_similarity_rooted`].
pub fn wu_palmer_similarity_rooted_from(
    da: &[Option<u32>],
    db: &[Option<u32>],
    depths: &DepthTable,
) -> f64 {
    wu_palmer_rooted_core(mrca_from(da, db, depths), depths)
}

fn wu_palmer_rooted_core(mrca: Option<(NodeId, u32, u32)>, depths: &DepthTable) -> f64 {
    let Some((mrca, n1, n2)) = mrca else {
        return 0.0;
    };
    let n3 = depths.depth(mrca) as f64 + 1.0;
    let (n1, n2) = (n1 as f64, n2 as f64);
    2.0 * n3 / (n1 + n2 + 2.0 * n3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0=root, 1=Person, 2=Student, 3=Professor, 4=FullProf, 5=Animal,
    /// 6=Bird
    fn sample() -> Taxonomy {
        let mut t = Taxonomy::new(7, 0);
        t.add_edge(1, 0);
        t.add_edge(2, 1);
        t.add_edge(3, 1);
        t.add_edge(4, 3);
        t.add_edge(5, 0);
        t.add_edge(6, 5);
        t
    }

    #[test]
    fn depth_and_max() {
        let t = sample();
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(4), 3);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn shortest_paths() {
        let t = sample();
        assert_eq!(t.shortest_path(2, 3), Some(2)); // Student-Person-Professor
        assert_eq!(t.shortest_path(2, 6), Some(4));
        assert_eq!(t.shortest_path(4, 4), Some(0));
        assert_eq!(t.path_via_common_ancestor(2, 3), Some(2));
        assert_eq!(t.path_via_common_ancestor(2, 6), Some(4));
    }

    #[test]
    fn shortest_path_through_common_descendant() {
        // Diamond: 0 root; 1, 2 children of 0; 3 child of both 1 and 2.
        let mut t = Taxonomy::new(4, 0);
        t.add_edge(1, 0);
        t.add_edge(2, 0);
        t.add_edge(3, 1);
        t.add_edge(3, 2);
        // General path 1–3–2 has length 2, same as 1–0–2; in a deeper
        // diamond the descendant route wins:
        let mut deep = Taxonomy::new(6, 0);
        deep.add_edge(1, 0);
        deep.add_edge(2, 1); // left chain: 0-1-2
        deep.add_edge(3, 0);
        deep.add_edge(4, 3); // right chain: 0-3-4
        deep.add_edge(5, 2);
        deep.add_edge(5, 4); // shared leaf
        assert_eq!(deep.shortest_path(2, 4), Some(2)); // through leaf 5
        assert_eq!(deep.path_via_common_ancestor(2, 4), Some(4)); // via root
        assert_eq!(t.shortest_path(1, 2), Some(2));
    }

    #[test]
    fn mrca_picks_nearest_ancestor() {
        let t = sample();
        let (m, n1, n2) = t.mrca(2, 3).unwrap();
        assert_eq!((m, n1, n2), (1, 1, 1)); // Person
        let (m, ..) = t.mrca(2, 6).unwrap();
        assert_eq!(m, 0); // root
        let (m, n1, n2) = t.mrca(3, 4).unwrap();
        assert_eq!((m, n1, n2), (3, 0, 1)); // Professor subsumes FullProf
    }

    #[test]
    fn shortest_path_similarity_values() {
        let t = sample();
        assert_eq!(shortest_path_similarity(&t, 2, 2), 1.0);
        assert!((shortest_path_similarity(&t, 2, 3) - 1.0 / 3.0).abs() < 1e-12);
        assert!((shortest_path_similarity(&t, 2, 6) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn edge_similarity_values() {
        let t = sample();
        // MAX = 3 → denominator 6.
        assert_eq!(edge_similarity(&t, 2, 2), 1.0);
        assert!((edge_similarity(&t, 2, 3) - 4.0 / 6.0).abs() < 1e-12);
        assert!((edge_similarity(&t, 2, 6) - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn wu_palmer_values() {
        let t = sample();
        assert_eq!(wu_palmer_similarity(&t, 2, 2), 1.0);
        // Student vs Professor: N1=N2=1, N3=depth(Person)=1 → 2/(1+1+2)=0.5
        assert!((wu_palmer_similarity(&t, 2, 3) - 0.5).abs() < 1e-12);
        // Student vs Bird: MRCA is root, N3=0 → 0.
        assert_eq!(wu_palmer_similarity(&t, 2, 6), 0.0);
        // Root vs root is 1 by convention; root vs child is 0 (N3=0).
        assert_eq!(wu_palmer_similarity(&t, 0, 0), 1.0);
        assert_eq!(wu_palmer_similarity(&t, 0, 1), 0.0);
    }

    #[test]
    fn rooted_wu_palmer_nonzero_across_root() {
        let t = sample();
        // Student vs Bird: MRCA root, N3'=1, N1=N2=2 → 2/(4+2)
        assert!((wu_palmer_similarity_rooted(&t, 2, 6) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(wu_palmer_similarity_rooted(&t, 2, 2), 1.0);
        // Still orders in-domain above cross-domain.
        assert!(wu_palmer_similarity_rooted(&t, 2, 3) > wu_palmer_similarity_rooted(&t, 2, 6));
    }

    #[test]
    fn measures_are_symmetric() {
        let t = sample();
        for (a, b) in [(2, 3), (2, 6), (4, 6), (0, 4)] {
            for f in [
                shortest_path_similarity,
                edge_similarity,
                wu_palmer_similarity,
            ] {
                assert!((f(&t, a, b) - f(&t, b, a)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn multiple_inheritance_uses_best_parent() {
        // 4 inherits from both 3 (deep) and 5 (shallow).
        let mut t = Taxonomy::new(6, 0);
        t.add_edge(1, 0);
        t.add_edge(2, 1);
        t.add_edge(3, 2);
        t.add_edge(5, 0);
        t.add_edge(4, 3);
        t.add_edge(4, 5);
        assert_eq!(t.depth(4), 2); // via 5
        let (m, ..) = t.mrca(4, 5).unwrap();
        assert_eq!(m, 5);
    }

    #[test]
    fn depth_cache_invalidates_on_new_edges() {
        let mut t = Taxonomy::new(4, 0);
        t.add_edge(1, 0);
        assert_eq!(t.depth(1), 1);
        assert_eq!(t.depth(2), 0); // not yet attached
        t.add_edge(2, 1); // must invalidate the cache
        assert_eq!(t.depth(2), 2);
        assert_eq!(t.max_depth(), 2);
        // Clone carries the cache but stays correct after mutation.
        let mut c = t.clone();
        c.add_edge(3, 2);
        assert_eq!(c.depth(3), 3);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn singleton_taxonomy() {
        let t = Taxonomy::new(1, 0);
        assert_eq!(t.max_depth(), 0);
        assert_eq!(edge_similarity(&t, 0, 0), 1.0);
        assert_eq!(wu_palmer_similarity(&t, 0, 0), 1.0);
        assert_eq!(shortest_path_similarity(&t, 0, 0), 1.0);
    }

    #[test]
    fn undirected_distances_match_shortest_path() {
        let mut deep = Taxonomy::new(6, 0);
        deep.add_edge(1, 0);
        deep.add_edge(2, 1);
        deep.add_edge(3, 0);
        deep.add_edge(4, 3);
        deep.add_edge(5, 2);
        deep.add_edge(5, 4);
        for a in 0..6 {
            let table = deep.undirected_distances(a);
            for b in 0..6 {
                assert_eq!(table[b as usize], deep.shortest_path(a, b), "{a}-{b}");
            }
        }
    }

    #[test]
    fn compact_ancestor_lists_match_full_tables_bitwise() {
        for t in [sample(), {
            // Deep diamond with multiple inheritance.
            let mut t = Taxonomy::new(6, 0);
            t.add_edge(1, 0);
            t.add_edge(2, 1);
            t.add_edge(3, 2);
            t.add_edge(5, 0);
            t.add_edge(4, 3);
            t.add_edge(4, 5);
            t
        }] {
            let n = t.node_count() as NodeId;
            let depths = t.depths();
            let tables: Vec<_> = (0..n).map(|a| t.up_distances(a)).collect();
            let lists: Vec<_> = tables
                .iter()
                .map(|up| AncestorList::from_table(up))
                .collect();
            for a in 0..n {
                assert_eq!(t.ancestors(a).entries, lists[a as usize].entries);
            }
            for a in 0..n {
                for b in 0..n {
                    let (ta, tb) = (&tables[a as usize], &tables[b as usize]);
                    let (la, lb) = (&lists[a as usize], &lists[b as usize]);
                    assert_eq!(
                        path_via_common_ancestor_compact(la, lb),
                        path_via_common_ancestor_from(ta, tb)
                    );
                    assert_eq!(mrca_compact(la, lb, &depths), mrca_from(ta, tb, &depths));
                    assert_eq!(
                        edge_similarity_compact(la, lb, a == b, depths.max()).to_bits(),
                        edge_similarity_from(ta, tb, a == b, depths.max()).to_bits()
                    );
                    assert_eq!(
                        wu_palmer_similarity_compact(la, lb, &depths, a == b).to_bits(),
                        wu_palmer_similarity_from(ta, tb, &depths, a == b).to_bits()
                    );
                    assert_eq!(
                        wu_palmer_similarity_rooted_compact(la, lb, &depths).to_bits(),
                        wu_palmer_similarity_rooted_from(ta, tb, &depths).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn source_tables_reproduce_pairwise_measures_bit_identically() {
        let t = sample();
        let depths = t.depths();
        for a in 0..7 {
            let (up_a, undirected) = (t.up_distances(a), t.undirected_distances(a));
            for b in 0..7 {
                let up_b = t.up_distances(b);
                assert_eq!(
                    shortest_path_length_similarity(undirected[b as usize]).to_bits(),
                    shortest_path_similarity(&t, a, b).to_bits()
                );
                assert_eq!(
                    edge_similarity_from(&up_a, &up_b, a == b, depths.max()).to_bits(),
                    edge_similarity(&t, a, b).to_bits()
                );
                assert_eq!(
                    wu_palmer_similarity_from(&up_a, &up_b, &depths, a == b).to_bits(),
                    wu_palmer_similarity(&t, a, b).to_bits()
                );
                assert_eq!(
                    wu_palmer_similarity_rooted_from(&up_a, &up_b, &depths).to_bits(),
                    wu_palmer_similarity_rooted(&t, a, b).to_bits()
                );
                assert_eq!(mrca_from(&up_a, &up_b, &depths), t.mrca(a, b));
            }
        }
    }
}
