//! Ordered-tree edit distance (Zhang & Shasha 1989) — the "additional
//! similarity measures (especially for trees)" the paper lists as future
//! work, implemented here so taxonomy subtrees can be compared structurally.

/// An ordered, labeled tree built incrementally.
#[derive(Debug, Clone, Default)]
pub struct LabeledTree {
    labels: Vec<String>,
    children: Vec<Vec<usize>>,
    root: Option<usize>,
}

impl LabeledTree {
    pub fn new() -> Self {
        LabeledTree::default()
    }

    /// Adds a node with `label` under `parent` (`None` = the root; only one
    /// root is allowed). Returns the node index.
    pub fn add_node(&mut self, label: impl Into<String>, parent: Option<usize>) -> usize {
        let id = self.labels.len();
        self.labels.push(label.into());
        self.children.push(Vec::new());
        match parent {
            Some(p) => self.children[p].push(id),
            None => {
                // lint: allow(panic) builder misuse (second root) is a programming error, not input-dependent
                assert!(self.root.is_none(), "tree already has a root");
                self.root = Some(id);
            }
        }
        id
    }

    /// Builds a tree from a nested tuple description, e.g.
    /// `("f", [("a", []), ("b", [("c", [])])])` written as s-expressions:
    /// `(f a (b c))`.
    pub fn from_sexpr(text: &str) -> Result<LabeledTree, String> {
        let value = sst_sexpr_parse(text)?;
        let mut tree = LabeledTree::new();
        build_from_value(&value, None, &mut tree)?;
        Ok(tree)
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn label(&self, node: usize) -> &str {
        &self.labels[node]
    }

    /// Post-order traversal of node indices.
    fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        if let Some(root) = self.root {
            self.post_visit(root, &mut order);
        }
        order
    }

    fn post_visit(&self, node: usize, order: &mut Vec<usize>) {
        for &c in &self.children[node] {
            self.post_visit(c, order);
        }
        order.push(node);
    }
}

// A tiny local s-expression reader (kept here to avoid a dependency cycle:
// sst-sexpr depends on nothing, but simpack is meant to stay standalone).
fn sst_sexpr_parse(text: &str) -> Result<SexprNode, String> {
    let mut chars = text.chars().peekable();
    let node = parse_node(&mut chars)?;
    for c in chars {
        if !c.is_whitespace() {
            return Err(format!("trailing content `{c}`"));
        }
    }
    Ok(node)
}

#[derive(Debug)]
struct SexprNode {
    label: String,
    children: Vec<SexprNode>,
}

fn parse_node(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<SexprNode, String> {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
    match chars.peek() {
        Some('(') => {
            chars.next();
            let label = read_word(chars)?;
            let mut children = Vec::new();
            loop {
                while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                    chars.next();
                }
                match chars.peek() {
                    Some(')') => {
                        chars.next();
                        return Ok(SexprNode { label, children });
                    }
                    Some(_) => children.push(parse_node(chars)?),
                    None => return Err("unterminated list".to_owned()),
                }
            }
        }
        Some(_) => Ok(SexprNode {
            label: read_word(chars)?,
            children: Vec::new(),
        }),
        None => Err("empty input".to_owned()),
    }
}

fn read_word(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    let mut word = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() || c == '(' || c == ')' {
            break;
        }
        word.push(c);
        chars.next();
    }
    if word.is_empty() {
        Err("expected a label".to_owned())
    } else {
        Ok(word)
    }
}

fn build_from_value(
    value: &SexprNode,
    parent: Option<usize>,
    tree: &mut LabeledTree,
) -> Result<(), String> {
    let id = tree.add_node(value.label.clone(), parent);
    for child in &value.children {
        build_from_value(child, Some(id), tree)?;
    }
    Ok(())
}

/// Zhang-Shasha tree edit distance with unit costs (insert, delete,
/// relabel each cost 1).
pub fn tree_edit_distance(a: &LabeledTree, b: &LabeledTree) -> usize {
    tree_edit_distance_zs(&ZsTree::new(a), &ZsTree::new(b))
}

/// Reusable flat DP buffers for the Zhang-Shasha distance, one per thread:
/// the `n_a × n_b` subtree-distance table plus the per-keyroot-pair forest
/// table.
#[derive(Debug, Clone, Default)]
struct ZsScratch {
    treedist: Vec<usize>,
    fd: Vec<usize>,
}

/// Runs `f` with this thread's [`ZsScratch`].
fn with_zs_scratch<R>(f: impl FnOnce(&mut ZsScratch) -> R) -> R {
    use std::cell::RefCell;
    thread_local! {
        static SCRATCH: RefCell<ZsScratch> = RefCell::new(ZsScratch::default());
    }
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // Unreachable in practice (`f` never re-enters); a fresh scratch
        // computes the same distance.
        Err(_) => f(&mut ZsScratch::default()),
    })
}

/// [`tree_edit_distance`] over pre-built [`ZsTree`] forms.
fn tree_edit_distance_zs(ta: &ZsTree, tb: &ZsTree) -> usize {
    if ta.n == 0 {
        return tb.n;
    }
    if tb.n == 0 {
        return ta.n;
    }
    with_zs_scratch(|scratch| {
        let cells = ta.n * tb.n;
        scratch.treedist.clear();
        scratch.treedist.resize(cells, 0);
        for &i in &ta.keyroots {
            for &j in &tb.keyroots {
                compute_treedist(ta, tb, i, j, &mut scratch.treedist, &mut scratch.fd);
            }
        }
        scratch.treedist.last().copied().unwrap_or(0)
    })
}

/// Tree similarity: `1 − d / (|a| + |b|)`. The denominator is the worst
/// case (delete all of `a`, insert all of `b`), so the value is in [0, 1].
pub fn tree_similarity(a: &LabeledTree, b: &LabeledTree) -> f64 {
    tree_similarity_zs(&ZsTree::new(a), &ZsTree::new(b))
}

/// [`tree_similarity`] over pre-built [`ZsTree`] forms: batch scans
/// preprocess each tree once (postorder, leftmost leaves, keyroots) and
/// reuse the forms across every pair.
pub fn tree_similarity_zs(ta: &ZsTree, tb: &ZsTree) -> f64 {
    let total = ta.n + tb.n;
    if total == 0 {
        return 1.0;
    }
    1.0 - tree_edit_distance_zs(ta, tb) as f64 / total as f64
}

/// Preprocessed tree in Zhang-Shasha form: postorder labels, leftmost-leaf
/// indices, and keyroots.
#[derive(Debug, Clone)]
pub struct ZsTree {
    labels: Vec<String>,
    /// FNV-1a hash of each label: the relabel-cost check compares hashes
    /// first and only falls back to the strings on a hash match, which
    /// cannot change the outcome (distinct hashes imply distinct strings).
    label_hashes: Vec<u64>,
    /// l[i] = postorder index of the leftmost leaf of the subtree at i.
    l: Vec<usize>,
    keyroots: Vec<usize>,
    n: usize,
}

/// FNV-1a over the label bytes.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl ZsTree {
    /// Preprocesses `tree` for repeated distance computations.
    pub fn new(tree: &LabeledTree) -> Self {
        let order = tree.postorder();
        let n = order.len();
        let mut pos = vec![0usize; n];
        for (i, &node) in order.iter().enumerate() {
            pos[node] = i;
        }
        let mut l = vec![0usize; n];
        for (i, &node) in order.iter().enumerate() {
            // Leftmost leaf: follow first children down.
            let mut cur = node;
            while let Some(&first) = tree.children[cur].first() {
                cur = first;
            }
            l[i] = pos[cur];
        }
        // Keyroots: nodes with no left sibling path above them — highest
        // node for each distinct leftmost leaf.
        let mut keyroots = Vec::new();
        for i in 0..n {
            let is_keyroot = (i + 1..n).all(|j| l[j] != l[i]);
            if is_keyroot {
                keyroots.push(i);
            }
        }
        let labels: Vec<String> = order
            .iter()
            .map(|&node| tree.labels[node].clone())
            .collect();
        let label_hashes = labels.iter().map(|s| fnv1a(s)).collect();
        ZsTree {
            labels,
            label_hashes,
            l,
            keyroots,
            n,
        }
    }
}

/// One keyroot-pair forest DP over flat row-major buffers: `treedist` has
/// stride `b.n`, the forest table `fd` stride `n`. Every flat offset is
/// precomputed into a named variable, so the recurrence reads like the
/// two-dimensional original.
fn compute_treedist(
    a: &ZsTree,
    b: &ZsTree,
    i: usize,
    j: usize,
    treedist: &mut [usize],
    fd: &mut Vec<usize>,
) {
    let cols = b.n;
    let li = a.l[i];
    let lj = b.l[j];
    let m = i - li + 2;
    let n = j - lj + 2;
    // forestdist over postorder ranges, 1-indexed with 0 = empty forest.
    // Deleting/inserting an i-token prefix costs i, so the border cells are
    // just their own index.
    fd.clear();
    fd.resize(m * n, 0);
    for di in 0..m {
        let border = di * n;
        if let Some(cell) = fd.get_mut(border) {
            *cell = di;
        }
    }
    for (dj, cell) in fd.iter_mut().enumerate().take(n) {
        *cell = dj;
    }
    for di in 1..m {
        // Named predecessor offsets keep the recurrence readable and the
        // subscripts free of inline arithmetic.
        let pdi = di - 1;
        let ai = li + pdi;
        let row = di * n;
        let prow = pdi * n;
        let la = a.l[ai];
        let ha = a.label_hashes[ai];
        let td_row = ai * cols;
        for dj in 1..n {
            let pdj = dj - 1;
            let bj = lj + pdj;
            let cur = row + dj;
            let up = prow + dj;
            let left = row + pdj;
            let diag = prow + pdj;
            let lb = b.l[bj];
            let td_idx = td_row + bj;
            let value = if la == li && lb == lj {
                let relabel = if ha == b.label_hashes[bj] {
                    usize::from(a.labels[ai] != b.labels[bj])
                } else {
                    1
                };
                let cell = (fd[up] + 1).min(fd[left] + 1).min(fd[diag] + relabel);
                if let Some(slot) = treedist.get_mut(td_idx) {
                    *slot = cell;
                }
                cell
            } else {
                let da = la - li;
                let db = lb - lj;
                let sub = da * n + db;
                let subtree = treedist.get(td_idx).copied().unwrap_or(0);
                (fd[up] + 1).min(fd[left] + 1).min(fd[sub] + subtree)
            };
            if let Some(slot) = fd.get_mut(cur) {
                *slot = value;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> LabeledTree {
        LabeledTree::from_sexpr(s).expect("tree")
    }

    #[test]
    fn identical_trees_have_zero_distance() {
        let a = t("(f (a) (b (c)))");
        let b = t("(f (a) (b (c)))");
        assert_eq!(tree_edit_distance(&a, &b), 0);
        assert_eq!(tree_similarity(&a, &b), 1.0);
    }

    #[test]
    fn single_relabel_costs_one() {
        let a = t("(f (a) (b))");
        let b = t("(f (a) (c))");
        assert_eq!(tree_edit_distance(&a, &b), 1);
    }

    #[test]
    fn zhang_shasha_canonical_example() {
        // The classic example from the Zhang-Shasha paper:
        // T1 = f(d(a c(b)) e), T2 = f(c(d(a b)) e), distance 2.
        let a = t("(f (d (a) (c (b))) (e))");
        let b = t("(f (c (d (a) (b))) (e))");
        assert_eq!(tree_edit_distance(&a, &b), 2);
    }

    #[test]
    fn insertion_and_deletion() {
        let a = t("(f (a))");
        let b = t("(f (a) (b))");
        assert_eq!(tree_edit_distance(&a, &b), 1);
        assert_eq!(tree_edit_distance(&b, &a), 1);
    }

    #[test]
    fn distance_to_empty_is_size() {
        let a = t("(f (a) (b))");
        let empty = LabeledTree::new();
        assert_eq!(tree_edit_distance(&a, &empty), 3);
        assert_eq!(tree_edit_distance(&empty, &a), 3);
        assert_eq!(tree_similarity(&empty, &empty), 1.0);
    }

    #[test]
    fn similarity_orders_structural_closeness() {
        let base = t("(Person (Student) (Professor (FullProfessor)))");
        let near = t("(Person (Student) (Professor))");
        let far = t("(Vehicle (Car (Sedan)) (Bike))");
        assert!(tree_similarity(&base, &near) > tree_similarity(&base, &far));
    }

    #[test]
    fn symmetric_distance() {
        let a = t("(f (d (a) (c (b))) (e))");
        let b = t("(g (h) (c (d (a) (b))) (e))");
        assert_eq!(tree_edit_distance(&a, &b), tree_edit_distance(&b, &a));
    }

    #[test]
    fn zs_forms_are_bit_identical_to_direct_calls() {
        let trees = [
            t("(f (d (a) (c (b))) (e))"),
            t("(g (h) (c (d (a) (b))) (e))"),
            t("(f (a) (b))"),
            LabeledTree::new(),
        ];
        let forms: Vec<ZsTree> = trees.iter().map(ZsTree::new).collect();
        for (a, fa) in trees.iter().zip(&forms) {
            for (b, fb) in trees.iter().zip(&forms) {
                assert_eq!(tree_edit_distance_zs(fa, fb), tree_edit_distance(a, b));
                assert_eq!(
                    tree_similarity_zs(fa, fb).to_bits(),
                    tree_similarity(a, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn sexpr_reader_rejects_garbage() {
        assert!(LabeledTree::from_sexpr("(a (b)").is_err());
        assert!(LabeledTree::from_sexpr("").is_err());
        assert!(LabeledTree::from_sexpr("(a) extra").is_err());
    }
}
