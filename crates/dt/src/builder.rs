//! CART construction with weighted samples and best-first growth.
//!
//! Growth is *best-first* (highest impurity decrease next), matching
//! scikit-learn's behaviour under `max_leaf_nodes` — the knob Table 4 of the
//! paper sets to 200 (Pensieve) and 2000 (AuTO agents).
//!
//! Four optimizations over the naive splitter (which re-sorted every
//! node's samples for every feature):
//!
//! * **Sort-once presorting** — per-feature sorted sample indices are built
//!   once at the root and *partitioned* (order-preserving) into the child
//!   nodes at every split, so no sort ever runs below the root.
//! * **Parallel split search** — the per-node scan over features fans out
//!   across threads ([`TreeConfig::threads`]); the reduction picks the
//!   best gain with the same tie-breaking (lowest feature index first) as
//!   a sequential scan, so the fitted tree is identical for any thread
//!   count.
//! * **Frontier-parallel growth** — when feature-parallelism is narrower
//!   than the worker count (ABR's ~25 dims vs a many-core pool), the
//!   builder speculatively *expands* several heap candidates concurrently
//!   ([`TreeConfig::frontier`]): each expansion precomputes the partition,
//!   child statistics, and child best splits for one candidate. Expansions
//!   are pure functions of their candidate, and splits are still *applied*
//!   strictly in heap-pop order by the sequential main loop, so the fitted
//!   tree is bit-identical for any frontier width and thread count — the
//!   only cost of speculation is wasted work on candidates the leaf budget
//!   never reaches.
//! * **Cache-friendly scan** — [`fit`] copies the features once into
//!   column-major columns, bit for bit, which the presort, the split
//!   partition and the scan read. The scan is one generic loop over two
//!   target sweeps — a class-histogram sweep that updates two `&mut [f64]`
//!   histograms straight from the contiguous label and weight slices, and
//!   the `Acc` sweep for regression — and two value sources: a node
//!   reads a feature from its column when it is *dense* in it (`members ×
//!   8 ≥ rows`, i.e. at least one member per 64-byte line), and from the
//!   members' rows otherwise, which stay cached across the per-feature
//!   passes (always reading columns made a 5000-row × 143-feature,
//!   2000-leaf fit ~55% slower; always reading rows made the 25-feature
//!   Pensieve conversion fits ~18% slower). The tree stays bit-identical:
//!   both sources hold the same bits, so the presorted orders (a total
//!   order, since datasets reject NaN features), the boundaries and the
//!   thresholds are unchanged; the class sweep adds and subtracts exactly
//!   the weights `Acc::add` does (`h - w` is `h + w * -1.0` in IEEE
//!   arithmetic) and shares `Acc`'s impurity function, so every gain
//!   matches the in-file `reference` oracle and the golden digests in
//!   `tests/tree_digests.rs`.

use crate::dataset::{Dataset, Targets};
use crate::tree::{DecisionTree, Node, NodeStats, Split, TreeKind};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Resolve a thread-count knob: 0 means "all available cores".
pub(crate) fn resolve_threads(requested: usize) -> usize {
    metis_nn::par::resolve_threads(requested)
}

/// Minimum `samples x features` product for a node before the split scan
/// fans out across threads (below it, spawn overhead dominates).
const PAR_SPLIT_THRESHOLD: usize = 16 * 1024;

/// Split quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Gini impurity (classification default).
    Gini,
    /// Shannon entropy (classification).
    Entropy,
    /// Variance reduction (regression; the only valid choice there).
    Mse,
}

/// Tree-growing configuration. Defaults mirror the paper's setup.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum number of leaves (best-first growth stops here).
    pub max_leaf_nodes: usize,
    /// Optional depth cap (root has depth 0).
    pub max_depth: Option<usize>,
    /// Minimum number of samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Minimum weighted impurity decrease for a split to be considered.
    pub min_gain: f64,
    pub criterion: Criterion,
    /// Threads for the per-node split search (0 = all available cores).
    /// The fitted tree is identical for every thread count.
    pub threads: usize,
    /// Heap candidates expanded concurrently by the frontier-parallel
    /// grower (0 = match the resolved thread count; 1 = strictly
    /// sequential expansion). The fitted tree is identical for every
    /// setting — wider frontiers only trade speculative work for wall
    /// time on deep best-first growths.
    pub frontier: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_leaf_nodes: 200,
            max_depth: None,
            min_samples_leaf: 1,
            min_gain: 1e-12,
            criterion: Criterion::Gini,
            threads: 0,
            frontier: 0,
        }
    }
}

impl TreeConfig {
    pub fn with_max_leaves(max_leaf_nodes: usize) -> Self {
        TreeConfig {
            max_leaf_nodes,
            ..Default::default()
        }
    }
}

/// Errors raised by [`fit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// MSE requested on classification targets or Gini/Entropy on regression.
    CriterionMismatch,
    /// `max_leaf_nodes` must be at least 1.
    NoLeavesAllowed,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::CriterionMismatch => write!(f, "criterion does not match target type"),
            FitError::NoLeavesAllowed => write!(f, "max_leaf_nodes must be >= 1"),
        }
    }
}

impl std::error::Error for FitError {}

/// Accumulated target statistics for a sample subset.
#[derive(Clone)]
enum Acc {
    Class(Vec<f64>),
    Value { w: f64, sum: f64, sumsq: f64 },
}

impl Acc {
    fn empty_like(ds: &Dataset) -> Acc {
        match &ds.y {
            Targets::Class { n_classes, .. } => Acc::Class(vec![0.0; *n_classes]),
            Targets::Value(_) => Acc::Value {
                w: 0.0,
                sum: 0.0,
                sumsq: 0.0,
            },
        }
    }

    fn add(&mut self, ds: &Dataset, i: usize, sign: f64) {
        let w = ds.w[i] * sign;
        match self {
            Acc::Class(h) => h[ds.label(i).unwrap()] += w,
            Acc::Value { w: tw, sum, sumsq } => {
                let y = ds.value(i).unwrap();
                *tw += w;
                *sum += w * y;
                *sumsq += w * y * y;
            }
        }
    }

    fn from_indices(ds: &Dataset, idx: &[u32]) -> Acc {
        let mut acc = Acc::empty_like(ds);
        for &i in idx {
            acc.add(ds, i as usize, 1.0);
        }
        acc
    }

    fn weight(&self) -> f64 {
        match self {
            Acc::Class(h) => h.iter().sum(),
            Acc::Value { w, .. } => *w,
        }
    }

    /// Weighted impurity contribution: `weight * impurity`.
    /// For Gini: W * (1 - Σ p²); entropy: W * (-Σ p ln p); MSE: SSE.
    fn weighted_impurity(&self, criterion: Criterion) -> f64 {
        match (self, criterion) {
            (Acc::Class(h), _) => class_impurity(h, criterion),
            (Acc::Value { w, sum, sumsq }, Criterion::Mse) => {
                if *w <= 0.0 {
                    0.0
                } else {
                    (sumsq - sum * sum / w).max(0.0)
                }
            }
            _ => unreachable!("criterion/target mismatch checked in fit"),
        }
    }

    fn into_stats(self) -> NodeStats {
        match self {
            Acc::Class(dist) => NodeStats::Class { dist },
            Acc::Value { w, sum, sumsq } => NodeStats::Value { w, sum, sumsq },
        }
    }
}

/// Weighted impurity of a class histogram `h` with `W = Σ h`: Gini
/// `W - Σ h² / W` (= `W * (1 - Σ p²)`), entropy `-Σ h ln(h / W)`.
fn class_impurity(h: &[f64], criterion: Criterion) -> f64 {
    let w: f64 = h.iter().sum();
    if w <= 0.0 {
        return 0.0;
    }
    match criterion {
        Criterion::Gini => {
            let sq: f64 = h.iter().map(|&c| c * c).sum();
            w - sq / w
        }
        Criterion::Entropy => -h
            .iter()
            .filter(|&&c| c > 0.0)
            .map(|&c| c * (c / w).ln())
            .sum::<f64>(),
        Criterion::Mse => unreachable!("criterion/target mismatch checked in fit"),
    }
}

/// The best split found for a candidate node.
struct BestSplit {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// A pending (not-yet-split) node in the best-first frontier.
///
/// Besides the member indices (kept in root-relative order so weighted
/// statistics accumulate exactly as a sequential builder would), each
/// candidate carries its *presorted* per-feature index lists, inherited by
/// order-preserving partition from its parent — no per-node sorting.
struct Candidate {
    node_idx: usize,
    indices: Vec<u32>,
    orders: Vec<Vec<u32>>,
    depth: usize,
    best: BestSplit,
    /// Precomputed split application, attached by the frontier-parallel
    /// expander. Never participates in the heap order, so attaching it
    /// cannot change which candidate pops next.
    expansion: Option<Box<Expansion>>,
}

/// Everything needed to apply a candidate's best split: the partition,
/// both children's statistics, and both children's own best splits. An
/// expansion is a **pure function** of its candidate (plus the dataset
/// and config), so it can be computed speculatively and in parallel
/// without changing the fitted tree: the sequential main loop still
/// applies splits strictly in heap-pop order.
struct Expansion {
    left: ChildData,
    right: ChildData,
}

/// One side of an applied split.
struct ChildData {
    indices: Vec<u32>,
    acc: Acc,
    /// The child's partitioned per-feature order lists and its best
    /// split — present only when the child may grow further (depth cap
    /// not reached and a qualifying split exists).
    grow: Option<(Vec<Vec<u32>>, BestSplit)>,
}

std::thread_local! {
    /// Per-thread membership mark for order-list partitioning. Expansions
    /// run concurrently on pool workers, so the scratch cannot live in
    /// `fit`'s stack frame; each worker sets, uses, and clears its own
    /// buffer with **no pool calls inside the marked window**, so nested
    /// work-stealing can never observe another expansion's marks.
    static LEFT_MARK: std::cell::RefCell<Vec<bool>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Read-only inputs shared by every split search and expansion of a fit.
struct Ctx<'a> {
    ds: &'a Dataset,
    /// Column-major copy of the features: `cols[f][i]` holds the bits of
    /// `ds.x[i][f]`.
    cols: Vec<Vec<f64>>,
    config: &'a TreeConfig,
    threads: usize,
}

/// Expand one candidate: partition its members and order lists, build the
/// child statistics, and find the children's best splits. Deterministic
/// given `(ctx, cand)` — thread count only changes how fast the child
/// split scans run, not what they return.
fn expand(ctx: &Ctx, cand: &Candidate) -> Expansion {
    let ds = ctx.ds;
    let children_may_grow = ctx.config.max_depth.is_none_or(|m| cand.depth + 1 < m);
    let col = &ctx.cols[cand.best.feature];
    let threshold = cand.best.threshold;

    // Evaluate the split predicate once per member into the per-thread
    // mark, then partition the member list and every presorted feature
    // list by it (order-preserving, so children never re-sort), each into
    // a list allocated at its final length. The feature lists are skipped
    // under a depth cap that forbids the children from splitting again.
    let ((left_idx, right_idx), (left_orders, right_orders)) = LEFT_MARK.with(|mark| {
        let mut mark = mark.borrow_mut();
        if mark.len() < ds.len() {
            mark.resize(ds.len(), false);
        }
        let mut n_left = 0;
        for &i in &cand.indices {
            let goes_left = col[i as usize] < threshold;
            mark[i as usize] = goes_left;
            n_left += usize::from(goes_left);
        }
        let split = |idx: &Vec<u32>| partition_by_mark(&mark, idx, n_left);
        let members = split(&cand.indices);
        let orders = if children_may_grow {
            cand.orders.iter().map(split).unzip()
        } else {
            (Vec::new(), Vec::new())
        };
        for &i in &cand.indices {
            mark[i as usize] = false;
        }
        (members, orders)
    });
    debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

    let left_acc = Acc::from_indices(ds, &left_idx);
    let right_acc = Acc::from_indices(ds, &right_idx);
    debug_assert!(left_acc.weight() > 0.0 && right_acc.weight() > 0.0);

    let grow_of = |orders: Vec<Vec<u32>>, acc: &Acc| {
        if !children_may_grow {
            return None;
        }
        best_split(ctx, &orders, acc).map(|b| (orders, b))
    };
    let left_grow = grow_of(left_orders, &left_acc);
    let right_grow = grow_of(right_orders, &right_acc);
    Expansion {
        left: ChildData {
            indices: left_idx,
            acc: left_acc,
            grow: left_grow,
        },
        right: ChildData {
            indices: right_idx,
            acc: right_acc,
            grow: right_grow,
        },
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; ties broken by node index for determinism.
        // `total_cmp` (not `partial_cmp(..).unwrap_or(Equal)`): a NaN gain
        // made NaN compare "equal" to *everything* while finite gains
        // still ordered, violating the Ord contract and silently
        // scrambling `BinaryHeap` pop order. Under the IEEE total order a
        // positive NaN simply sorts above +inf and transitivity holds.
        self.best
            .gain
            .total_cmp(&other.best.gain)
            .then_with(|| other.node_idx.cmp(&self.node_idx))
    }
}

/// Target statistics on both sides of a boundary that sweeps along one
/// presorted order: every member starts on the right and moves left in
/// order.
trait Sweep {
    /// Put every member back on the right (the parent's statistics).
    fn reset(&mut self);
    /// Move sample `i` from the right side to the left.
    fn advance(&mut self, i: usize);
    /// Weighted impurities of the left and the right side.
    fn impurities(&self, criterion: Criterion) -> (f64, f64);
}

/// The classification sweep: two class histograms updated straight from
/// the label and weight slices, with no enum dispatch per sample.
struct ClassSweep<'a> {
    labels: &'a [usize],
    w: &'a [f64],
    parent: &'a [f64],
    left: Vec<f64>,
    right: Vec<f64>,
}

impl Sweep for ClassSweep<'_> {
    fn reset(&mut self) {
        self.left.fill(0.0);
        self.right.copy_from_slice(self.parent);
    }

    fn advance(&mut self, i: usize) {
        // Bit for bit `Acc::add`'s `h + w * 1.0` and `h + w * -1.0`.
        let (c, w) = (self.labels[i], self.w[i]);
        self.left[c] += w;
        self.right[c] -= w;
    }

    fn impurities(&self, criterion: Criterion) -> (f64, f64) {
        (
            class_impurity(&self.left, criterion),
            class_impurity(&self.right, criterion),
        )
    }
}

/// The regression sweep, on the generic accumulator.
struct AccSweep<'a> {
    ds: &'a Dataset,
    parent: &'a Acc,
    left: Acc,
    right: Acc,
}

impl Sweep for AccSweep<'_> {
    fn reset(&mut self) {
        self.left = Acc::empty_like(self.ds);
        self.right = self.parent.clone();
    }

    fn advance(&mut self, i: usize) {
        self.left.add(self.ds, i, 1.0);
        self.right.add(self.ds, i, -1.0);
    }

    fn impurities(&self, criterion: Criterion) -> (f64, f64) {
        (
            self.left.weighted_impurity(criterion),
            self.right.weighted_impurity(criterion),
        )
    }
}

/// Scan one feature's presorted index list for its best boundary split.
/// `value(i)` is sample `i`'s value of feature `f`, read from the column
/// or from the row — the same bits either way.
fn scan_feature(
    sweep: &mut impl Sweep,
    value: impl Fn(usize) -> f64,
    f: usize,
    order: &[u32],
    parent_imp: f64,
    config: &TreeConfig,
) -> Option<BestSplit> {
    sweep.reset();
    let mut best: Option<BestSplit> = None;
    let mut v_next = value(order[0] as usize);
    for k in 0..order.len() - 1 {
        sweep.advance(order[k] as usize);
        let v = v_next;
        v_next = value(order[k + 1] as usize);
        if v_next <= v {
            continue; // not a boundary between distinct values
        }
        let n_left = k + 1;
        let n_right = order.len() - n_left;
        if n_left < config.min_samples_leaf || n_right < config.min_samples_leaf {
            continue;
        }
        let (left_imp, right_imp) = sweep.impurities(config.criterion);
        let gain = parent_imp - left_imp - right_imp;
        if gain > config.min_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
            let threshold = v + (v_next - v) / 2.0;
            // Guard against midpoints that collapse onto v due to
            // floating point; such splits would send everything right.
            let threshold = if threshold > v { threshold } else { v_next };
            best = Some(BestSplit {
                feature: f,
                threshold,
                gain,
            });
        }
    }
    best
}

/// Keep the better of two per-feature results, breaking gain ties toward
/// the lower feature index — the same winner a sequential `for f in 0..F`
/// scan with a strict `gain > best.gain` update would pick.
fn better(a: Option<BestSplit>, b: Option<BestSplit>) -> Option<BestSplit> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => {
            // `x` always comes from a lower feature index than `y`.
            debug_assert!(x.feature < y.feature);
            if y.gain > x.gain {
                Some(y)
            } else {
                Some(x)
            }
        }
    }
}

/// Find the best split over all features using the candidate's presorted
/// per-feature index lists.
fn best_split(ctx: &Ctx, orders: &[Vec<u32>], parent: &Acc) -> Option<BestSplit> {
    let config = ctx.config;
    if orders[0].len() < 2 * config.min_samples_leaf.max(1) {
        return None;
    }
    let parent_imp = parent.weighted_impurity(config.criterion);
    if parent_imp <= config.min_gain {
        return None; // already pure
    }
    let ds = ctx.ds;
    match (&ds.y, parent) {
        (Targets::Class { labels, .. }, Acc::Class(h)) => {
            search(ctx, orders, parent_imp, || ClassSweep {
                labels,
                w: &ds.w,
                parent: h,
                left: vec![0.0; h.len()],
                right: h.clone(),
            })
        }
        _ => search(ctx, orders, parent_imp, || AccSweep {
            ds,
            parent,
            left: Acc::empty_like(ds),
            right: parent.clone(),
        }),
    }
}

/// Scan every feature with sweeps made by `new_sweep`, fanning the scan
/// across threads when the node is large enough to amortize the spawns.
fn search<S: Sweep>(
    ctx: &Ctx,
    orders: &[Vec<u32>],
    parent_imp: f64,
    new_sweep: impl Fn() -> S + Sync,
) -> Option<BestSplit> {
    let n = orders[0].len();
    let n_features = orders.len();
    // Dense: at least one member per 64-byte line of a column, so a column
    // pass wastes little of each line it loads. A sparse node reads its
    // members' rows instead, which stay cached across the feature passes.
    // Factors 4 and 16 timed the same as 8 on both fits named in the
    // module docs.
    let dense = n * 8 >= ctx.ds.len();
    let scan_range = |lo: usize, hi: usize| {
        let mut sweep = new_sweep();
        let mut best: Option<BestSplit> = None;
        for (f, order) in (lo..hi).zip(&orders[lo..hi]) {
            let found = if dense {
                let col = &ctx.cols[f];
                scan_feature(&mut sweep, |i| col[i], f, order, parent_imp, ctx.config)
            } else {
                let x = &ctx.ds.x;
                scan_feature(&mut sweep, |i| x[i][f], f, order, parent_imp, ctx.config)
            };
            best = better(best, found);
        }
        best
    };
    let workers = ctx.threads.min(n_features);
    if workers <= 1 || n * n_features < PAR_SPLIT_THRESHOLD {
        return scan_range(0, n_features);
    }
    // Contiguous feature chunks on the persistent worker pool, reduced in
    // ascending order so the tie-breaking matches the sequential scan
    // exactly. `lo` is clamped: with ceil-divided chunks a late worker's
    // start can exceed `n_features` (e.g. 5 features over 4 workers), and
    // the unclamped slice would panic.
    let chunk = n_features.div_ceil(workers);
    let per_chunk = metis_nn::par::parallel_map_indexed(workers, workers, |w| {
        scan_range(
            (w * chunk).min(n_features),
            ((w + 1) * chunk).min(n_features),
        )
    });
    per_chunk.into_iter().fold(None, better)
}

/// Copy the features into columns, bit for bit (`cols[f][i] = x[i][f]`).
/// Panics on ragged rows, which a `Dataset` built field by field can hold.
fn columns(ds: &Dataset) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = (0..ds.n_features())
        .map(|_| Vec::with_capacity(ds.len()))
        .collect();
    for row in &ds.x {
        assert_eq!(row.len(), cols.len(), "feature rows differ in length");
        for (col, &v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    cols
}

/// Build the root's per-feature sorted index lists (ties broken by index,
/// so the order is fully deterministic; a total order because datasets
/// reject NaN features).
fn presort(cols: &[Vec<f64>]) -> Vec<Vec<u32>> {
    cols.iter()
        .map(|col| {
            let mut order: Vec<u32> = (0..col.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| a.cmp(&b))
            });
            order
        })
        .collect()
}

/// Partition an index list by the membership mark (`n_left` of its
/// entries are marked), preserving order, into two lists allocated at
/// their final lengths.
fn partition_by_mark(mark: &[bool], idx: &[u32], n_left: usize) -> (Vec<u32>, Vec<u32>) {
    let mut left = Vec::with_capacity(n_left);
    let mut right = Vec::with_capacity(idx.len() - n_left);
    for &i in idx {
        if mark[i as usize] {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    debug_assert_eq!(left.len(), n_left);
    (left, right)
}

/// Fit a CART tree to a weighted dataset.
pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<DecisionTree, FitError> {
    match (&ds.y, config.criterion) {
        (Targets::Class { .. }, Criterion::Gini | Criterion::Entropy) => {}
        (Targets::Value(_), Criterion::Mse) => {}
        _ => return Err(FitError::CriterionMismatch),
    }
    if config.max_leaf_nodes == 0 {
        return Err(FitError::NoLeavesAllowed);
    }

    let kind = match &ds.y {
        Targets::Class { n_classes, .. } => TreeKind::Classifier {
            n_classes: *n_classes,
        },
        Targets::Value(_) => TreeKind::Regressor,
    };
    let threads = resolve_threads(config.threads);
    let ctx = Ctx {
        ds,
        cols: columns(ds),
        config,
        threads,
    };

    let all: Vec<u32> = (0..ds.len() as u32).collect();
    let root_acc = Acc::from_indices(ds, &all);
    let mut nodes = vec![Node {
        stats: root_acc.clone().into_stats(),
        split: None,
    }];

    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    let depth_ok = |d: usize| config.max_depth.is_none_or(|m| d < m);
    if depth_ok(0) {
        let orders = presort(&ctx.cols);
        if let Some(best) = best_split(&ctx, &orders, &root_acc) {
            heap.push(Candidate {
                node_idx: 0,
                indices: all,
                orders,
                depth: 0,
                best,
                expansion: None,
            });
        }
    }

    let frontier = if config.frontier == 0 {
        threads
    } else {
        config.frontier
    };
    let mut n_leaves = 1usize;
    while n_leaves < config.max_leaf_nodes {
        let Some(mut cand) = heap.pop() else { break };

        if cand.expansion.is_none() {
            if frontier <= 1 {
                cand.expansion = Some(Box::new(expand(&ctx, &cand)));
            } else {
                // Frontier-parallel expansion: gather up to `frontier`
                // unexpanded candidates (never more than the remaining
                // leaf budget could apply — anything beyond is guaranteed
                // waste), parking already-expanded ones, expand the batch
                // on the pool, and push everything back. The heap key
                // ignores expansions, so the re-pop surfaces the same
                // best candidate — now expanded — and the `continue`
                // applies it through the sequential path below. Splits
                // therefore apply in exactly the heap-pop order of a
                // frontier=1 build, and the tree is bit-identical for
                // any frontier width and thread count.
                let want = frontier.min(config.max_leaf_nodes - n_leaves);
                let mut batch = vec![cand];
                let mut parked = Vec::new();
                while batch.len() < want {
                    match heap.pop() {
                        Some(c) if c.expansion.is_none() => batch.push(c),
                        Some(c) => parked.push(c),
                        None => break,
                    }
                }
                let expansions = metis_nn::par::parallel_map_indexed(batch.len(), threads, |b| {
                    Box::new(expand(&ctx, &batch[b]))
                });
                for (mut c, e) in batch.into_iter().zip(expansions) {
                    c.expansion = Some(e);
                    heap.push(c);
                }
                for c in parked {
                    heap.push(c);
                }
                continue;
            }
        }

        // Apply the (pre)computed expansion — the only place the tree is
        // mutated, strictly in heap-pop order.
        let Candidate {
            node_idx,
            depth,
            best,
            expansion,
            ..
        } = cand;
        let Expansion { left, right } = *expansion.expect("expanded above");

        let left_node = nodes.len();
        nodes.push(Node {
            stats: left.acc.into_stats(),
            split: None,
        });
        let right_node = nodes.len();
        nodes.push(Node {
            stats: right.acc.into_stats(),
            split: None,
        });
        nodes[node_idx].split = Some(Split {
            feature: best.feature,
            threshold: best.threshold,
            left: left_node,
            right: right_node,
        });
        n_leaves += 1;

        if let Some((orders, b)) = left.grow {
            heap.push(Candidate {
                node_idx: left_node,
                indices: left.indices,
                orders,
                depth: depth + 1,
                best: b,
                expansion: None,
            });
        }
        if let Some((orders, b)) = right.grow {
            heap.push(Candidate {
                node_idx: right_node,
                indices: right.indices,
                orders,
                depth: depth + 1,
                best: b,
                expansion: None,
            });
        }
    }

    Ok(DecisionTree::new(nodes, kind, ds.n_features()))
}

/// The pre-refactor splitter, kept verbatim as the parity oracle for the
/// presorted/parallel implementation: per-node re-sorting, sequential
/// feature scan, identical gain and tie-breaking rules.
#[cfg(test)]
mod reference {
    use super::*;

    fn best_split(
        ds: &Dataset,
        idx: &[usize],
        parent: &Acc,
        config: &TreeConfig,
    ) -> Option<BestSplit> {
        if idx.len() < 2 * config.min_samples_leaf.max(1) {
            return None;
        }
        let parent_imp = parent.weighted_impurity(config.criterion);
        if parent_imp <= config.min_gain {
            return None; // already pure
        }
        let n_features = ds.n_features();
        let mut best: Option<BestSplit> = None;

        // Reusable sort buffer.
        let mut order: Vec<usize> = idx.to_vec();
        for f in 0..n_features {
            order.sort_unstable_by(|&a, &b| {
                ds.x[a][f]
                    .partial_cmp(&ds.x[b][f])
                    .unwrap_or(Ordering::Equal)
            });
            let mut left = Acc::empty_like(ds);
            let mut right = {
                let u32s: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
                Acc::from_indices(ds, &u32s)
            };
            for k in 0..order.len() - 1 {
                let i = order[k];
                left.add(ds, i, 1.0);
                right.add(ds, i, -1.0);
                let v = ds.x[i][f];
                let v_next = ds.x[order[k + 1]][f];
                if v_next <= v {
                    continue;
                }
                let n_left = k + 1;
                let n_right = order.len() - n_left;
                if n_left < config.min_samples_leaf || n_right < config.min_samples_leaf {
                    continue;
                }
                let gain = parent_imp
                    - left.weighted_impurity(config.criterion)
                    - right.weighted_impurity(config.criterion);
                if gain > config.min_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
                    let threshold = v + (v_next - v) / 2.0;
                    let threshold = if threshold > v { threshold } else { v_next };
                    best = Some(BestSplit {
                        feature: f,
                        threshold,
                        gain,
                    });
                }
            }
        }
        best
    }

    struct RefCandidate {
        node_idx: usize,
        indices: Vec<usize>,
        depth: usize,
        best: BestSplit,
    }

    impl PartialEq for RefCandidate {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for RefCandidate {}
    impl PartialOrd for RefCandidate {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for RefCandidate {
        fn cmp(&self, other: &Self) -> Ordering {
            // Same total_cmp fix as `Candidate::cmp`: the oracle heap must
            // honour the Ord contract for NaN gains too.
            self.best
                .gain
                .total_cmp(&other.best.gain)
                .then_with(|| other.node_idx.cmp(&self.node_idx))
        }
    }

    pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<DecisionTree, FitError> {
        match (&ds.y, config.criterion) {
            (Targets::Class { .. }, Criterion::Gini | Criterion::Entropy) => {}
            (Targets::Value(_), Criterion::Mse) => {}
            _ => return Err(FitError::CriterionMismatch),
        }
        if config.max_leaf_nodes == 0 {
            return Err(FitError::NoLeavesAllowed);
        }

        let kind = match &ds.y {
            Targets::Class { n_classes, .. } => TreeKind::Classifier {
                n_classes: *n_classes,
            },
            Targets::Value(_) => TreeKind::Regressor,
        };

        let all: Vec<usize> = (0..ds.len()).collect();
        let acc_of = |idx: &[usize]| {
            let u32s: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
            Acc::from_indices(ds, &u32s)
        };
        let root_acc = acc_of(&all);
        let mut nodes = vec![Node {
            stats: root_acc.clone().into_stats(),
            split: None,
        }];

        let mut heap: BinaryHeap<RefCandidate> = BinaryHeap::new();
        let depth_ok = |d: usize| config.max_depth.is_none_or(|m| d < m);
        if depth_ok(0) {
            if let Some(best) = best_split(ds, &all, &root_acc, config) {
                heap.push(RefCandidate {
                    node_idx: 0,
                    indices: all,
                    depth: 0,
                    best,
                });
            }
        }

        let mut n_leaves = 1usize;
        while n_leaves < config.max_leaf_nodes {
            let Some(cand) = heap.pop() else { break };
            let RefCandidate {
                node_idx,
                indices,
                depth,
                best,
            } = cand;

            let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
            for &i in &indices {
                if ds.x[i][best.feature] < best.threshold {
                    left_idx.push(i);
                } else {
                    right_idx.push(i);
                }
            }

            let left_acc = acc_of(&left_idx);
            let right_acc = acc_of(&right_idx);

            let left_node = nodes.len();
            nodes.push(Node {
                stats: left_acc.clone().into_stats(),
                split: None,
            });
            let right_node = nodes.len();
            nodes.push(Node {
                stats: right_acc.clone().into_stats(),
                split: None,
            });
            nodes[node_idx].split = Some(Split {
                feature: best.feature,
                threshold: best.threshold,
                left: left_node,
                right: right_node,
            });
            n_leaves += 1;

            if depth_ok(depth + 1) {
                if let Some(b) = best_split(ds, &left_idx, &left_acc, config) {
                    heap.push(RefCandidate {
                        node_idx: left_node,
                        indices: left_idx,
                        depth: depth + 1,
                        best: b,
                    });
                }
                if let Some(b) = best_split(ds, &right_idx, &right_acc, config) {
                    heap.push(RefCandidate {
                        node_idx: right_node,
                        indices: right_idx,
                        depth: depth + 1,
                        best: b,
                    });
                }
            }
        }

        Ok(DecisionTree::new(nodes, kind, ds.n_features()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn axis_ds() -> Dataset {
        // Perfectly separable on feature 0 at threshold ~0.5.
        let x = vec![
            vec![0.0, 9.0],
            vec![0.2, 1.0],
            vec![0.4, 8.0],
            vec![0.6, 2.0],
            vec![0.8, 7.0],
            vec![1.0, 3.0],
        ];
        let y = vec![0, 0, 0, 1, 1, 1];
        Dataset::classification(x, y, 2).unwrap()
    }

    #[test]
    fn separable_data_one_split() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 2);
        assert_eq!(tree.depth(), 1);
        let split = tree.node(0).split.as_ref().unwrap();
        assert_eq!(split.feature, 0);
        assert!(split.threshold > 0.4 && split.threshold <= 0.6);
        assert_eq!(tree.predict_class(&[0.1, 5.0]), 0);
        assert_eq!(tree.predict_class(&[0.9, 5.0]), 1);
    }

    /// A ragged dataset built field by field (the constructors reject it)
    /// must fail loudly, not shift a short row's successors in the columns.
    #[test]
    #[should_panic(expected = "feature rows differ in length")]
    fn ragged_rows_panic() {
        let mut ds = axis_ds();
        ds.x[2].pop();
        let _ = fit(&ds, &TreeConfig::default());
    }

    #[test]
    fn pure_node_not_split() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![1, 1, 1];
        let ds = Dataset::classification(x, y, 2).unwrap();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict_class(&[5.0]), 1);
    }

    #[test]
    fn max_leaf_nodes_respected() {
        // Checkerboard-ish data that wants many splits.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..64 {
            x.push(vec![i as f64]);
            y.push((i / 4) % 2);
        }
        let ds = Dataset::classification(x, y, 2).unwrap();
        for max in [1, 2, 3, 5, 8] {
            let tree = fit(&ds, &TreeConfig::with_max_leaves(max)).unwrap();
            assert!(
                tree.n_leaves() <= max,
                "asked {max}, got {}",
                tree.n_leaves()
            );
        }
        let big = fit(&ds, &TreeConfig::with_max_leaves(1000)).unwrap();
        // 16 alternating blocks need 16 leaves to classify perfectly.
        assert_eq!(big.n_leaves(), 16);
        for i in 0..64 {
            assert_eq!(big.predict_class(&[i as f64]), (i / 4) % 2);
        }
    }

    #[test]
    fn max_depth_respected() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..32 {
            x.push(vec![i as f64]);
            y.push(i % 2);
        }
        let ds = Dataset::classification(x, y, 2).unwrap();
        let cfg = TreeConfig {
            max_depth: Some(3),
            max_leaf_nodes: 1000,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        assert!(tree.depth() <= 3);
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = axis_ds();
        let cfg = TreeConfig {
            min_samples_leaf: 4,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        // 6 samples cannot form two children of >= 4 samples.
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn entropy_criterion_also_separates() {
        let ds = axis_ds();
        let cfg = TreeConfig {
            criterion: Criterion::Entropy,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        assert_eq!(tree.predict_class(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict_class(&[1.0, 0.0]), 1);
    }

    #[test]
    fn criterion_mismatch_rejected() {
        let ds = axis_ds();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            ..Default::default()
        };
        assert_eq!(fit(&ds, &cfg).unwrap_err(), FitError::CriterionMismatch);
        let reg = Dataset::regression(vec![vec![0.0]], vec![1.0]).unwrap();
        assert_eq!(
            fit(&reg, &TreeConfig::default()).unwrap_err(),
            FitError::CriterionMismatch
        );
    }

    #[test]
    fn regression_step_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 5.0 }).collect();
        let ds = Dataset::regression(x, y).unwrap();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        assert_eq!(tree.n_leaves(), 2);
        assert!((tree.predict_value(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((tree.predict_value(&[15.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_majority() {
        // Same features, conflicting labels; weights decide the prediction.
        let x = vec![vec![0.0], vec![0.0], vec![0.0]];
        let y = vec![0, 1, 1];
        let ds = Dataset::classification_weighted(x, y, 2, vec![10.0, 1.0, 1.0]).unwrap();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.predict_class(&[0.0]), 0);
    }

    #[test]
    fn weights_shift_split_choice() {
        // Without weights, feature 1 separates 4/6 correctly and feature 0
        // separates all; both datasets are crafted so that upweighting the
        // samples that disagree on f0 moves the best first split.
        let x = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![2.0, 1.0],
            vec![3.0, 1.0],
        ];
        let y = vec![0, 0, 1, 1];
        let ds = Dataset::classification(x.clone(), y.clone(), 2).unwrap();
        let t = fit(&ds, &TreeConfig::with_max_leaves(2)).unwrap();
        // Both features separate perfectly; gain ties are broken
        // deterministically, so just check it is perfect.
        for (xi, yi) in x.iter().zip(y.iter()) {
            assert_eq!(t.predict_class(xi), *yi);
        }
    }

    #[test]
    fn decision_path_and_proba() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let path = tree.decision_path(&[0.0, 0.0]);
        assert_eq!(path[0], 0);
        assert_eq!(path.len(), 2);
        let proba = tree.predict_proba(&[0.0, 0.0]).unwrap();
        assert!((proba[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compiled_tree_matches() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let compiled = crate::tree::CompiledTree::compile(&tree);
        for x in [[0.1, 2.0], [0.5, 3.0], [0.9, 1.0]] {
            assert_eq!(tree.predict_class(&x), compiled.predict_class(&x));
        }
    }

    #[test]
    fn compiled_regression_matches() {
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![i as f64, (i * 7 % 5) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64 * 0.5).sin()).collect();
        let ds = Dataset::regression(x.clone(), y).unwrap();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            max_leaf_nodes: 8,
            ..Default::default()
        };
        let tree = fit(&ds, &cfg).unwrap();
        let compiled = crate::tree::CompiledTree::compile(&tree);
        for xi in &x {
            assert!((tree.predict_value(xi) - compiled.predict_value(xi)).abs() < 1e-12);
        }
    }

    /// Deterministic pseudo-random dyadic values (multiples of 1/64): all
    /// impurity accumulations are exact in f64, so the presorted/parallel
    /// splitter and the pre-refactor reference are bit-identical.
    fn dyadic(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) % 64) as f64 / 64.0
    }

    fn parity_features(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut s = seed;
        (0..n)
            .map(|_| (0..d).map(|_| dyadic(&mut s)).collect())
            .collect()
    }

    #[test]
    fn parity_with_reference_classification() {
        let x = parity_features(300, 6, 7);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] * 4.0 + xi[3] * 2.0) as usize).min(4))
            .collect();
        let w: Vec<f64> = (0..x.len()).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
        let ds = Dataset::classification_weighted(x.clone(), y, 5, w).unwrap();
        for leaves in [2, 8, 31, 200] {
            let cfg = TreeConfig {
                max_leaf_nodes: leaves,
                ..Default::default()
            };
            let new = fit(&ds, &cfg).unwrap();
            let old = super::reference::fit(&ds, &cfg).unwrap();
            assert_eq!(new, old, "trees diverge at {leaves} leaves");
            for xi in &x {
                assert_eq!(new.predict_class(xi), old.predict_class(xi));
            }
        }
        // Entropy criterion and the threaded scan agree too.
        let cfg = TreeConfig {
            criterion: Criterion::Entropy,
            max_leaf_nodes: 16,
            threads: 4,
            ..Default::default()
        };
        let new = fit(&ds, &cfg).unwrap();
        let old = super::reference::fit(&ds, &cfg).unwrap();
        assert_eq!(new, old);
    }

    #[test]
    fn parity_with_reference_regression() {
        let x = parity_features(250, 4, 13);
        let y: Vec<f64> = x.iter().map(|xi| xi[1] * 2.0 - xi[2] + 0.25).collect();
        let ds = Dataset::regression(x.clone(), y).unwrap();
        for leaves in [2, 10, 64] {
            let cfg = TreeConfig {
                criterion: Criterion::Mse,
                max_leaf_nodes: leaves,
                min_samples_leaf: 3,
                ..Default::default()
            };
            let new = fit(&ds, &cfg).unwrap();
            let old = super::reference::fit(&ds, &cfg).unwrap();
            assert_eq!(new, old, "regression trees diverge at {leaves} leaves");
            for xi in &x {
                assert_eq!(
                    new.predict_value(xi).to_bits(),
                    old.predict_value(xi).to_bits()
                );
            }
        }
    }

    #[test]
    fn threaded_fit_identical_to_sequential() {
        // Large enough (samples x features > PAR_SPLIT_THRESHOLD) that the
        // scan genuinely fans out across threads near the root.
        let x = parity_features(3000, 8, 21);
        assert!(x.len() * x[0].len() > super::PAR_SPLIT_THRESHOLD);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] + xi[7]) * 3.0) as usize % 6)
            .collect();
        let ds = Dataset::classification(x, y, 6).unwrap();
        let fit_with = |threads: usize| {
            fit(
                &ds,
                &TreeConfig {
                    max_leaf_nodes: 64,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let t1 = fit_with(1);
        assert_eq!(t1, fit_with(2));
        assert_eq!(t1, fit_with(5));
        assert_eq!(t1, fit_with(16));
    }

    /// Frontier-parallel growth is bit-identical to strictly sequential
    /// expansion for every frontier width and thread count — including
    /// frontiers wider than the heap ever gets and wider than the leaf
    /// budget, under a depth cap, and for regression. Speculation may
    /// waste work; it may never change the tree.
    #[test]
    fn frontier_parallel_fit_identical_to_sequential() {
        let x = parity_features(1200, 6, 33);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[1] * 3.0 + xi[4] * 4.0) as usize) % 5)
            .collect();
        let ds = Dataset::classification(x.clone(), y, 5).unwrap();
        for max_depth in [None, Some(4)] {
            let fit_with = |frontier: usize, threads: usize| {
                fit(
                    &ds,
                    &TreeConfig {
                        max_leaf_nodes: 48,
                        max_depth,
                        frontier,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let sequential = fit_with(1, 1);
            for frontier in [2, 3, 8, 64] {
                for threads in [1, 2, 8] {
                    assert_eq!(
                        sequential,
                        fit_with(frontier, threads),
                        "diverged at frontier={frontier} threads={threads} depth={max_depth:?}"
                    );
                }
            }
        }

        let yv: Vec<f64> = x.iter().map(|xi| xi[0] * 3.0 - xi[5] + 0.5).collect();
        let reg = Dataset::regression(x, yv).unwrap();
        let cfg = |frontier: usize| TreeConfig {
            criterion: Criterion::Mse,
            max_leaf_nodes: 32,
            min_samples_leaf: 2,
            frontier,
            threads: 4,
            ..Default::default()
        };
        let sequential = fit(&reg, &cfg(1)).unwrap();
        for frontier in [2, 6, 16] {
            assert_eq!(sequential, fit(&reg, &cfg(frontier)).unwrap());
        }
    }

    /// The frontier gather path survives a leaf budget that runs out
    /// mid-speculation (want clamps to the remaining budget) and a heap
    /// that drains during the gather.
    #[test]
    fn frontier_wider_than_budget_or_heap() {
        let x = parity_features(200, 3, 41);
        let y: Vec<usize> = x.iter().map(|xi| usize::from(xi[0] > 0.5)).collect();
        let ds = Dataset::classification(x, y, 2).unwrap();
        for max in [1, 2, 3] {
            let seq = fit(&ds, &TreeConfig::with_max_leaves(max)).unwrap();
            let wide = fit(
                &ds,
                &TreeConfig {
                    max_leaf_nodes: max,
                    frontier: 32,
                    threads: 8,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(seq, wide, "diverged at max_leaf_nodes={max}");
        }
    }

    /// Regression for the Ord-contract bug: `partial_cmp(..).unwrap_or(Equal)`
    /// made a NaN-gain candidate "equal" to every other candidate while
    /// finite gains still ordered, so `BinaryHeap` pop order was scrambled
    /// (NaN could surface anywhere, dragging neighbours with it). Under
    /// `total_cmp`, positive NaN sorts above +inf, ties (including
    /// NaN-vs-NaN, e.g. two zero-variance/overflowed splits) break toward
    /// the lower node index, and pops are a strict total order.
    #[test]
    fn heap_pop_order_is_total_with_nan_gain_candidates() {
        let mk = |gain: f64, node_idx: usize| Candidate {
            node_idx,
            indices: Vec::new(),
            orders: Vec::new(),
            depth: 0,
            best: BestSplit {
                feature: 0,
                threshold: 0.0,
                gain,
            },
            expansion: None,
        };
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for (gain, node_idx) in [
            (1.0, 10),
            (f64::NAN, 11),
            (2.0, 12),
            (0.0, 13),
            (f64::NAN, 14),
            (f64::INFINITY, 15),
        ] {
            heap.push(mk(gain, node_idx));
        }
        let popped: Vec<usize> = std::iter::from_fn(|| heap.pop())
            .map(|c| c.node_idx)
            .collect();
        assert_eq!(popped, vec![11, 14, 15, 12, 10, 13]);

        // And the comparator is a genuine total order over NaN candidates:
        // reflexivity-of-equality and antisymmetry spot checks.
        let (a, b) = (mk(f64::NAN, 1), mk(f64::NAN, 2));
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        assert!(mk(f64::NAN, 1) == mk(f64::NAN, 1));
        assert!(mk(f64::NAN, 1) != mk(f64::NAN, 2));
    }

    /// Regression for the parallel split-scan chunk guard: with a worker
    /// count that over-divides the feature count (ceil chunks), a late
    /// worker's `lo` exceeds `n_features` — 5 features over 4 workers put
    /// worker 3 at `lo = 6` — and the unclamped slice panicked.
    #[test]
    fn threaded_scan_with_overdivided_feature_chunks() {
        // 5 features x 4000 samples > PAR_SPLIT_THRESHOLD, threads = 4
        // => chunk = ceil(5/4) = 2, worker 3 starts past the feature end.
        let x = parity_features(4000, 5, 29);
        assert!(x.len() * x[0].len() > super::PAR_SPLIT_THRESHOLD);
        let y: Vec<usize> = x
            .iter()
            .map(|xi| ((xi[0] + xi[4]) * 2.0) as usize % 4)
            .collect();
        let ds = Dataset::classification(x, y, 4).unwrap();
        let fit_with = |threads: usize| {
            fit(
                &ds,
                &TreeConfig {
                    max_leaf_nodes: 16,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let sequential = fit_with(1);
        assert_eq!(sequential, fit_with(4));
    }

    /// Fit `ds` at threads 1/2/16 × frontier 1/4 and require every tree
    /// to equal the `reference` oracle's; returns the oracle's tree.
    fn assert_parity(ds: &Dataset, cfg: &TreeConfig, case: &str) -> DecisionTree {
        let oracle = super::reference::fit(ds, cfg).unwrap();
        for threads in [1, 2, 16] {
            for frontier in [1, 4] {
                let tree = fit(
                    ds,
                    &TreeConfig {
                        threads,
                        frontier,
                        ..cfg.clone()
                    },
                )
                .unwrap();
                assert_eq!(
                    tree, oracle,
                    "{case}: diverged at threads={threads} frontier={frontier}"
                );
            }
        }
        oracle
    }

    /// Dyadic class labels and weights over `x`.
    fn parity_classes(x: &[Vec<f64>], n_classes: usize) -> (Vec<usize>, Vec<f64>) {
        let y = x
            .iter()
            .map(|xi| ((xi[0] * 3.0 + xi[1] * 5.0) as usize) % n_classes)
            .collect();
        let w = (0..x.len()).map(|i| 1.0 + (i % 4) as f64 * 0.25).collect();
        (y, w)
    }

    /// Eq.-1 resampling draws rows with replacement, so the fitted dataset
    /// holds exact duplicates: runs of equal values in every feature.
    #[test]
    fn parity_with_reference_on_duplicated_rows() {
        let base = parity_features(120, 5, 51);
        let (base_y, base_w) = parity_classes(&base, 4);
        let mut s = 0x5eed_u64;
        let picks: Vec<usize> = (0..480)
            .map(|_| (dyadic(&mut s) * 120.0) as usize)
            .collect();
        let x = picks.iter().map(|&p| base[p].clone()).collect();
        let y = picks.iter().map(|&p| base_y[p]).collect();
        let w = picks.iter().map(|&p| base_w[p]).collect();
        let ds = Dataset::classification_weighted(x, y, 4, w).unwrap();
        for criterion in [Criterion::Gini, Criterion::Entropy] {
            let cfg = TreeConfig {
                criterion,
                max_leaf_nodes: 64,
                ..Default::default()
            };
            assert_parity(&ds, &cfg, "duplicated rows");
        }
    }

    #[test]
    fn parity_with_reference_classification_min_samples_leaf() {
        let x = parity_features(400, 6, 61);
        let (y, w) = parity_classes(&x, 5);
        let ds = Dataset::classification_weighted(x, y, 5, w).unwrap();
        for min_samples_leaf in [2, 5, 17] {
            let cfg = TreeConfig {
                max_leaf_nodes: 80,
                min_samples_leaf,
                ..Default::default()
            };
            let tree = assert_parity(&ds, &cfg, "min_samples_leaf");
            assert!(tree.n_leaves() > 1);
        }
    }

    /// −0.0 and 0.0 compare equal, so a run mixing them is never a
    /// boundary; splits land on either side of the run.
    #[test]
    fn parity_with_reference_signed_zeros() {
        let mut x = parity_features(300, 3, 71);
        for (i, xi) in x.iter_mut().enumerate() {
            xi[0] = [-0.5, -0.0, 0.0, 0.5][i % 4];
        }
        let y: Vec<usize> = x
            .iter()
            .map(|xi| usize::from(xi[0] >= 0.0) + usize::from(xi[1] > 0.5))
            .collect();
        let ds = Dataset::classification(x, y, 3).unwrap();
        let cfg = TreeConfig {
            max_leaf_nodes: 12,
            ..Default::default()
        };
        let tree = assert_parity(&ds, &cfg, "signed zeros");
        let zero_splits: Vec<f64> = (0..tree.node_count())
            .filter_map(|n| tree.node(n).split.as_ref())
            .filter(|s| s.feature == 0)
            .map(|s| s.threshold)
            .collect();
        assert!(zero_splits.contains(&-0.25), "splits {zero_splits:?}");
        assert_eq!(tree.predict_class(&[-0.0, 0.0, 0.0]), 1);
        assert_eq!(tree.predict_class(&[0.0, 0.0, 0.0]), 1);
    }

    /// Large and deep enough that nodes scan both from the columns (dense:
    /// `members × 8 ≥ rows`, the root among them) and from the rows
    /// (sparse), for classification and regression.
    #[test]
    fn parity_with_reference_on_dense_and_sparse_nodes() {
        let x = parity_features(2400, 6, 81);
        let n = x.len() as f64;
        let (y, w) = parity_classes(&x, 6);
        let ds = Dataset::classification_weighted(x.clone(), y, 6, w).unwrap();
        let cfg = TreeConfig {
            max_leaf_nodes: 200,
            ..Default::default()
        };
        let tree = assert_parity(&ds, &cfg, "dense and sparse nodes");
        // Every weight is at least 1, so a split node lighter than n / 8
        // has fewer than n / 8 members: a sparse-row scan chose its split.
        let sparse_splits = (0..tree.node_count())
            .filter(|&i| tree.node(i).split.is_some() && tree.node(i).stats.weight() * 8.0 < n)
            .count();
        assert!(tree.node(0).split.is_some());
        assert!(sparse_splits > 10, "only {sparse_splits} sparse splits");

        let yv: Vec<f64> = x.iter().map(|xi| xi[2] * 2.0 - xi[4] + 0.5).collect();
        let reg = Dataset::regression(x, yv).unwrap();
        let cfg = TreeConfig {
            criterion: Criterion::Mse,
            max_leaf_nodes: 120,
            ..Default::default()
        };
        assert_parity(&reg, &cfg, "regression dense and sparse nodes");
    }

    #[test]
    fn feature_importance_prefers_informative_feature() {
        let ds = axis_ds();
        let tree = fit(&ds, &TreeConfig::default()).unwrap();
        let imp = tree.feature_importance();
        assert!(imp[0] > 0.99, "importance {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
