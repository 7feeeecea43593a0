//! CART decision trees (classification and regression).
//!
//! The building block for the random forests Libra's profiler uses
//! (§4.3.1). Splits minimize Gini impurity (classification) or the sum of
//! squared errors (regression). Candidate thresholds are the midpoints
//! between consecutive distinct feature values; a threshold's left set is
//! every row whose value is `<=` it.
//!
//! The profiler refits over histories of hundreds of rows every few
//! completions, so each node finds its split with one sorted sweep per
//! candidate feature: sort the node's `(value, target)` pairs once, then
//! walk the thresholds in ascending order, moving rows to the left side as
//! the threshold passes them — O(n log n) per node and feature. The sweep
//! picks exactly the split an exhaustive search picks, threshold bits
//! included (the `reference` oracle in this file's tests checks trees node
//! for node):
//!
//! * Classification keeps running integer class counts and scores them
//!   with the same Gini expression that scores the node (`gini`), so every
//!   candidate's gain is the same float. Only the classes present at the
//!   node are summed; the absent ones would add exact zeros.
//! * Regression screens every threshold with shifted running sums
//!   (`Σ(y−c)² − (Σ(y−c))²/m`), which round differently from the two-pass
//!   sum of squared errors. A rigorous bound on that difference
//!   (`screen_tolerance`) rules out every threshold that cannot reach the
//!   best gain; the few survivors are re-scored with the two-pass `sse`
//!   under the strict-`>`, first-wins rule over features, then thresholds.
//!
//! Feature values must not be NaN.

use rand::seq::SliceRandom;
use rand::Rng;

/// What the tree predicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// Multi-class classification with this many classes.
    Classification {
        /// Number of classes (labels are `0..n_classes`).
        n_classes: usize,
    },
    /// Scalar regression.
    Regression,
}

/// Tree growth limits.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows required to attempt a split.
    pub min_samples_split: usize,
    /// How many features to consider per split (`None` = all). Forests set
    /// this to √d (classification) or max(1, d/3) (regression).
    pub feature_subsample: Option<usize>,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 12, min_samples_split: 2, feature_subsample: None }
    }
}

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: usize, right: usize },
}

/// A fitted decision tree (arena-allocated nodes).
#[derive(Clone, Debug)]
pub struct DecisionTree {
    nodes: Vec<NodeKind>,
    task: Task,
}

/// A candidate split: `(gain, feature, threshold)`.
type Split = (f64, usize, f64);

/// State shared by every node of one fit: the growth limits and reusable
/// buffers.
struct Scratch {
    params: TreeParams,
    /// The node's `(feature value, target)` pairs, sorted by value.
    pairs: Vec<(f64, f64)>,
    /// Screened regression candidates, in search order.
    cands: Vec<Split>,
    /// Class counts left / right of the sweep position.
    left: Vec<usize>,
    right: Vec<usize>,
}

impl DecisionTree {
    /// Fit a tree on `(x, y)`; classification labels must be `0..n_classes`
    /// encoded as `f64`. `rng` drives feature subsampling (pass any
    /// deterministic RNG for reproducible forests).
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        task: Task,
        params: TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        let rows: Vec<usize> = (0..x.len()).collect();
        Self::fit_rows(x, y, &rows, task, params, rng)
    }

    /// Fit a tree on the rows `rows` of `(x, y)`, in that order. Rows may
    /// repeat (a bootstrap sample): the tree equals [`DecisionTree::fit`] on
    /// those rows cloned out in this order, without the clones.
    pub fn fit_rows(
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        task: Task,
        params: TreeParams,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!rows.is_empty(), "cannot fit a tree on an empty dataset");
        let mut tree = DecisionTree { nodes: Vec::new(), task };
        let mut scratch = Scratch {
            params,
            pairs: Vec::new(),
            cands: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
        };
        tree.grow(x, y, rows, 0, rng, &mut scratch);
        tree
    }

    /// Predict for one feature row.
    pub fn predict(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                NodeKind::Leaf { value } => return *value,
                NodeKind::Split { feature, threshold, left, right } => {
                    i = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    fn leaf_value(&self, y: &[f64], idx: &[usize]) -> f64 {
        match self.task {
            Task::Regression => idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64,
            Task::Classification { n_classes } => class_counts(y, idx, n_classes)
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(k, _)| k as f64)
                .unwrap_or(0.0),
        }
    }

    fn grow(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        rng: &mut impl Rng,
        scratch: &mut Scratch,
    ) -> usize {
        let params = scratch.params;
        let node_id = self.nodes.len();
        self.nodes.push(NodeKind::Leaf { value: 0.0 }); // placeholder

        let pure = idx.iter().all(|&i| y[i] == y[idx[0]]);
        if depth >= params.max_depth || idx.len() < params.min_samples_split || pure {
            self.nodes[node_id] = NodeKind::Leaf { value: self.leaf_value(y, idx) };
            return node_id;
        }

        let d = x[idx[0]].len();
        let mut feats: Vec<usize> = (0..d).collect();
        if let Some(k) = params.feature_subsample {
            feats.shuffle(rng);
            feats.truncate(k.clamp(1, d));
        }

        let best = match self.task {
            Task::Classification { n_classes } => {
                best_class_split(x, y, idx, &feats, n_classes, scratch)
            }
            Task::Regression => best_regression_split(x, y, idx, &feats, scratch),
        };
        match best {
            Some((gain, f, thr)) if gain > 1e-12 => {
                let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][f] <= thr);
                let left = self.grow(x, y, &l, depth + 1, rng, scratch);
                let right = self.grow(x, y, &r, depth + 1, rng, scratch);
                self.nodes[node_id] = NodeKind::Split { feature: f, threshold: thr, left, right };
            }
            _ => {
                self.nodes[node_id] = NodeKind::Leaf { value: self.leaf_value(y, idx) };
            }
        }
        node_id
    }
}

fn class_counts(y: &[f64], idx: &[usize], n_classes: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_classes];
    for &i in idx {
        counts[y[i] as usize] += 1;
    }
    counts
}

/// Gini impurity of `n` rows with these class counts (in class order),
/// weighted by `n`. A zero count adds exactly `+0.0` to a sum that ends
/// positive, so passing only the classes present gives the same bits.
fn gini(n: usize, counts: impl Iterator<Item = usize>) -> f64 {
    let n = n as f64;
    let gini = 1.0 - counts.map(|c| (c as f64 / n).powi(2)).sum::<f64>();
    gini * n
}

/// Two-pass sum of squared errors of the rows `idx`, summed in row order.
fn sse(y: &[f64], idx: &[usize]) -> f64 {
    let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
    idx.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>()
}

/// Fill `pairs` with the node's `(x[i][f], y[i])` sorted by feature value.
fn sort_pairs(x: &[Vec<f64>], y: &[f64], idx: &[usize], f: usize, pairs: &mut Vec<(f64, f64)>) {
    pairs.clear();
    pairs.extend(idx.iter().map(|&i| (x[i][f], y[i])));
    pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
}

/// Walk the thresholds of one sorted feature in ascending order, calling
/// `visit(thr, p, admitted)` for each threshold that leaves rows on both
/// sides: `p` rows have `value <= thr`, and `admitted` holds the pairs
/// that joined the left side since the previous visit. Thresholds never
/// decrease (rounding is monotone), so the left side only grows.
fn sweep(pairs: &[(f64, f64)], mut visit: impl FnMut(f64, usize, &[(f64, f64)])) {
    let n = pairs.len();
    let (mut p, mut seen) = (0, 0);
    for w in pairs.windows(2) {
        let (prev, cur) = (w[0].0, w[1].0);
        if cur == prev {
            continue;
        }
        let thr = (cur + prev) / 2.0;
        while pairs.get(p).is_some_and(|&(v, _)| v <= thr) {
            p += 1;
        }
        if p > 0 && p < n {
            visit(thr, p, &pairs[seen..p]);
            seen = p;
        }
    }
}

fn best_class_split(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    feats: &[usize],
    n_classes: usize,
    scratch: &mut Scratch,
) -> Option<Split> {
    let n = idx.len();
    let total = class_counts(y, idx, n_classes);
    let parent = gini(n, total.iter().copied());
    // Only the classes present at this node can have nonzero counts.
    let present: Vec<usize> = (0..n_classes).filter(|&k| total[k] > 0).collect();
    let Scratch { pairs, left, right, .. } = scratch;
    let mut best: Option<Split> = None;
    for &f in feats {
        sort_pairs(x, y, idx, f, pairs);
        left.clear();
        left.resize(n_classes, 0);
        right.clone_from(&total);
        sweep(pairs, |thr, p, admitted| {
            for &(_, label) in admitted {
                left[label as usize] += 1;
                right[label as usize] -= 1;
            }
            let gain = parent
                - gini(p, present.iter().map(|&k| left[k]))
                - gini(n - p, present.iter().map(|&k| right[k]));
            if best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, f, thr));
            }
        });
    }
    best
}

fn best_regression_split(
    x: &[Vec<f64>],
    y: &[f64],
    idx: &[usize],
    feats: &[usize],
    scratch: &mut Scratch,
) -> Option<Split> {
    let n = idx.len();
    let parent = sse(y, idx);
    // Shift by the node mean so the running sums stay small.
    let c = idx.iter().map(|&i| y[i]).sum::<f64>() / n as f64;
    let (mut t1, mut t2, mut spread, mut scale) = (0.0, 0.0, 0.0f64, 0.0f64);
    for &i in idx {
        let d = y[i] - c;
        t1 += d;
        t2 += d * d;
        spread = spread.max(d.abs());
        scale = scale.max(y[i].abs());
    }

    let Scratch { pairs, cands, .. } = scratch;
    cands.clear();
    for &f in feats {
        sort_pairs(x, y, idx, f, pairs);
        let (mut s1, mut s2) = (0.0, 0.0);
        sweep(pairs, |thr, p, admitted| {
            for &(_, t) in admitted {
                let d = t - c;
                s1 += d;
                s2 += d * d;
            }
            let (r1, r2) = (t1 - s1, t2 - s2);
            let left = s2 - s1 * s1 / p as f64;
            let right = r2 - r1 * r1 / (n - p) as f64;
            cands.push((parent - left - right, f, thr));
        });
    }

    // A threshold whose exact gain can match the best lies within two
    // tolerances of the best screened gain (4× leaves room for rounding the
    // cutoff itself). Non-finite data re-scores every threshold.
    let tol = screen_tolerance(n, spread, scale);
    let top = cands.iter().map(|s| s.0).fold(f64::NEG_INFINITY, f64::max);
    let cutoff =
        if tol.is_finite() && t2.is_finite() { top - 4.0 * tol } else { f64::NEG_INFINITY };
    let mut best: Option<Split> = None;
    for &(screened, f, thr) in cands.iter() {
        if screened < cutoff {
            continue;
        }
        let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][f] <= thr);
        let gain = parent - sse(y, &l) - sse(y, &r);
        if best.is_none_or(|(g, _, _)| gain > g) {
            best = Some((gain, f, thr));
        }
    }
    best
}

/// Bound on `|screened − exact|` for any regression candidate at a node of
/// `n` rows, where `spread ≥ max |y − c|` for the shift `c` and
/// `scale = max |y|`. With `u = 2⁻⁵³`, `γ_k = k·u/(1 − k·u)` and
/// `W = 2·spread + δ` bounding `|y − mean|` for any subset mean:
///
/// * Two-pass `sse` of `m ≤ n` rows: the mean is off by at most
///   `δ = γ_n·scale`, which adds exactly `m·δ²` to the squared sum; the
///   squares and their sum add at most `γ_{n+4}·n·W²`.
/// * Shifted sums: `Σ(y−c)` and `Σ(y−c)²` are off by `γ_{n+1}·n·spread` and
///   `γ_{n+2}·n·spread²`, tripled for a right side taken as total minus
///   prefix; through `S₂ − S₁²/m` that is at most
///   `u·n·W²·(2.5n + 6) + 2.5·(n·(n+2)·u)²·W²`.
/// * Each gain subtracts two side scores from the parent score, which adds
///   `5u·n·W²` of rounding per evaluation.
///
/// Summed, `|screened − exact| ≤ u·n·W²·(7.1n + 31) + 2n·δ² +
/// 5·(n·(n+2)·u)²·W²`. The value returned at least doubles every term
/// (absorbing the `(1 + u)` factors of computing it in floating point) and
/// adds a floor for subnormal underflow.
fn screen_tolerance(n: usize, spread: f64, scale: f64) -> f64 {
    let u = f64::EPSILON / 2.0;
    let n = n as f64;
    let delta = 4.0 * (n + 2.0) * u * scale;
    let w = 2.0 * spread * (1.0 + 4.0 * u) + delta;
    let k = n * (n + 2.0) * u;
    let bound = u * n * w * w * (16.0 * n + 128.0) + 4.0 * n * delta * delta + 32.0 * k * k * w * w;
    2.0 * bound + 64.0 * (n + 8.0) * f64::from_bits(1)
}

#[cfg(test)]
mod reference {
    //! The exhaustive split search the sweep replaced, kept verbatim as the
    //! oracle for the equivalence proptests: for every candidate threshold
    //! it re-partitions the rows and recomputes both sides' impurity, O(n²)
    //! per node and feature. Not for production use.

    use super::{DecisionTree, NodeKind, Task, TreeParams};
    use rand::seq::SliceRandom;
    use rand::Rng;

    pub(super) fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        task: Task,
        params: TreeParams,
        rng: &mut impl Rng,
    ) -> DecisionTree {
        assert_eq!(x.len(), y.len(), "feature/target length mismatch");
        assert!(!x.is_empty(), "cannot fit a tree on an empty dataset");
        let mut tree = DecisionTree { nodes: Vec::new(), task };
        let idx: Vec<usize> = (0..x.len()).collect();
        grow(&mut tree, x, y, &idx, 0, params, rng);
        tree
    }

    fn leaf_value(task: Task, y: &[f64], idx: &[usize]) -> f64 {
        match task {
            Task::Regression => idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64,
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &i in idx {
                    counts[y[i] as usize] += 1;
                }
                counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &c)| c)
                    .map(|(k, _)| k as f64)
                    .unwrap_or(0.0)
            }
        }
    }

    fn impurity(task: Task, y: &[f64], idx: &[usize]) -> f64 {
        match task {
            Task::Regression => {
                let mean = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
                idx.iter().map(|&i| (y[i] - mean).powi(2)).sum::<f64>()
            }
            Task::Classification { n_classes } => {
                let mut counts = vec![0usize; n_classes];
                for &i in idx {
                    counts[y[i] as usize] += 1;
                }
                let n = idx.len() as f64;
                let gini = 1.0 - counts.iter().map(|&c| (c as f64 / n).powi(2)).sum::<f64>();
                gini * n
            }
        }
    }

    fn grow(
        tree: &mut DecisionTree,
        x: &[Vec<f64>],
        y: &[f64],
        idx: &[usize],
        depth: usize,
        params: TreeParams,
        rng: &mut impl Rng,
    ) -> usize {
        let task = tree.task;
        let node_id = tree.nodes.len();
        tree.nodes.push(NodeKind::Leaf { value: 0.0 }); // placeholder

        let pure = idx.iter().all(|&i| y[i] == y[idx[0]]);
        if depth >= params.max_depth || idx.len() < params.min_samples_split || pure {
            tree.nodes[node_id] = NodeKind::Leaf { value: leaf_value(task, y, idx) };
            return node_id;
        }

        let d = x[0].len();
        let mut feats: Vec<usize> = (0..d).collect();
        if let Some(k) = params.feature_subsample {
            feats.shuffle(rng);
            feats.truncate(k.clamp(1, d));
        }

        let parent = impurity(task, y, idx);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        for &f in &feats {
            let mut vals: Vec<(f64, usize)> = idx.iter().map(|&i| (x[i][f], i)).collect();
            vals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for pair in vals.windows(2) {
                let (prev, cur) = (pair[0].0, pair[1].0);
                if cur == prev {
                    continue;
                }
                let thr = (cur + prev) / 2.0;
                let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][f] <= thr);
                if l.is_empty() || r.is_empty() {
                    continue;
                }
                let gain = parent - impurity(task, y, &l) - impurity(task, y, &r);
                if best.is_none_or(|(g, _, _)| gain > g) {
                    best = Some((gain, f, thr));
                }
            }
        }

        match best {
            Some((gain, f, thr)) if gain > 1e-12 => {
                let (l, r): (Vec<usize>, Vec<usize>) = idx.iter().partition(|&&i| x[i][f] <= thr);
                let left = grow(tree, x, y, &l, depth + 1, params, rng);
                let right = grow(tree, x, y, &r, depth + 1, params, rng);
                tree.nodes[node_id] = NodeKind::Split { feature: f, threshold: thr, left, right };
            }
            _ => {
                tree.nodes[node_id] = NodeKind::Leaf { value: leaf_value(task, y, idx) };
            }
        }
        node_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn memorizes_simple_classification() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let t = DecisionTree::fit(
            &x,
            &y,
            Task::Classification { n_classes: 2 },
            TreeParams::default(),
            &mut rng(),
        );
        for i in 0..20 {
            assert_eq!(t.predict(&[i as f64]), if i < 10 { 0.0 } else { 1.0 });
        }
    }

    #[test]
    fn fits_step_regression() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 5.0 } else { 11.0 }).collect();
        let t = DecisionTree::fit(&x, &y, Task::Regression, TreeParams::default(), &mut rng());
        assert!((t.predict(&[3.0]) - 5.0).abs() < 1e-9);
        assert!((t.predict(&[33.0]) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![0.0, 1.0];
        let params = TreeParams { max_depth: 0, ..Default::default() };
        let t = DecisionTree::fit(&x, &y, Task::Regression, params, &mut rng());
        assert_eq!(t.size(), 1);
        assert!((t.predict(&[0.0]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_target_is_leaf() {
        let x: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 10];
        let t = DecisionTree::fit(&x, &y, Task::Regression, TreeParams::default(), &mut rng());
        assert_eq!(t.size(), 1);
        assert_eq!(t.predict(&[100.0]), 7.0);
    }

    #[test]
    fn nonlinear_regression_beats_constant() {
        let x: Vec<Vec<f64>> = (1..100).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (1..100).map(|i| (i as f64).sqrt() * 3.0).collect();
        let t = DecisionTree::fit(&x, &y, Task::Regression, TreeParams::default(), &mut rng());
        let preds: Vec<f64> = x.iter().map(|r| t.predict(r)).collect();
        let r2 = crate::metrics::r2_score(&preds, &y);
        assert!(r2 > 0.95, "tree should fit sqrt well, r2={r2}");
    }

    #[test]
    fn multiclass_three_way() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..30).map(|i| (i / 10) as f64).collect();
        let t = DecisionTree::fit(
            &x,
            &y,
            Task::Classification { n_classes: 3 },
            TreeParams::default(),
            &mut rng(),
        );
        assert_eq!(t.predict(&[5.0]), 0.0);
        assert_eq!(t.predict(&[15.0]), 1.0);
        assert_eq!(t.predict(&[25.0]), 2.0);
    }

    #[test]
    fn midpoint_rounding_onto_a_neighbour_splits_by_value() {
        // 1 and its successor have no float between them: the midpoint
        // rounds onto one of the two, and the left set is `value <= thr`.
        let a = 1.0f64;
        let b = f64::from_bits(a.to_bits() + 1);
        let x = vec![vec![a], vec![b], vec![a], vec![b]];
        for task in [Task::Regression, Task::Classification { n_classes: 2 }] {
            let y = vec![0.0, 1.0, 0.0, 1.0];
            let new = DecisionTree::fit(&x, &y, task, TreeParams::default(), &mut rng());
            let old = reference::fit(&x, &y, task, TreeParams::default(), &mut rng());
            assert_eq!(format!("{:?}", new.nodes), format!("{:?}", old.nodes));
        }
    }

    /// One random case: `(seed, rows, features, distinct values (0 =
    /// continuous), classes (0 = regression), target rounding exponent)`.
    type Case = (u64, usize, usize, usize, usize, i32);

    fn case() -> impl Strategy<Value = Case> {
        // Mostly small cases keep the O(n²) oracle cheap in debug builds;
        // one case in four reaches the full 300 rows.
        ((0u64..u64::MAX, 1usize..301, 0u8..4), 1usize..4, 0usize..9, (0u8..2, 2usize..18), 0i32..3)
            .prop_map(|((seed, n, big), d, distinct, (regression, classes), round)| {
                let n = if big == 0 { n } else { 1 + n / 6 };
                let classes = if regression == 0 { 0 } else { classes };
                (seed, n, d, distinct, classes, round)
            })
    }

    /// Profiler-shaped data: features `[s, ln s, noise]` truncated to `d`,
    /// with sizes drawn from `distinct` values (ties) or continuously, and
    /// targets a noisy function of `s` — class labels, or real values
    /// rounded to 1, 1e-3 or 1e-6 so exact gain ties occur.
    fn dataset(c: Case) -> (Vec<Vec<f64>>, Vec<f64>, Task, TreeParams, ChaCha8Rng) {
        let (seed, n, d, distinct, classes, round) = c;
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let s = if distinct > 0 {
                (1 + 37 * r.gen_range(0..distinct)) as f64
            } else {
                r.gen_range(0.0f64..9.0).exp()
            };
            let noise: f64 = r.gen_range(-1.0..1.0);
            x.push([s, s.ln(), noise.abs()][..d].to_vec());
            y.push(if classes > 0 {
                ((s.ln() * 1.7 + noise) as usize + r.gen_range(0usize..2)) as f64 % classes as f64
            } else {
                let q = 10f64.powi(3 * round);
                ((s.sqrt() * 3.0 + noise * 4.0) * q).round() / q
            });
        }
        let task = if classes > 0 {
            Task::Classification { n_classes: classes }
        } else {
            Task::Regression
        };
        let params = TreeParams {
            max_depth: r.gen_range(1..13),
            min_samples_split: r.gen_range(1..5),
            feature_subsample: if r.gen_bool(0.5) { Some(r.gen_range(1..4)) } else { None },
        };
        (x, y, task, params, r)
    }

    /// Fit the sweep and the exhaustive search on `DATASETS_PER_CASE`
    /// datasets (seeds `seed..`) and require equal node arenas. With
    /// `bootstrap`, the sweep fits a row list with repeats through
    /// `fit_rows` and the oracle fits those rows cloned out.
    fn assert_same_trees(c: Case, bootstrap: bool) {
        for k in 0..DATASETS_PER_CASE {
            let c = (c.0.wrapping_add(k), c.1, c.2, c.3, c.4, c.5);
            let (x, y, task, params, mut r) = dataset(c);
            let rows: Vec<usize> = if bootstrap {
                (0..x.len()).map(|_| r.gen_range(0..x.len())).collect()
            } else {
                (0..x.len()).collect()
            };
            let bx: Vec<Vec<f64>> = rows.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<f64> = rows.iter().map(|&i| y[i]).collect();
            let new = DecisionTree::fit_rows(&x, &y, &rows, task, params, &mut r.clone());
            let old = reference::fit(&bx, &by, task, params, &mut r.clone());
            assert_eq!(format!("{:?}", new.nodes), format!("{:?}", old.nodes), "case {c:?}");
        }
    }

    /// Near-ties that only the screening tolerance resolves turn up about
    /// once per hundred datasets; 16 per case make the default 64 cases
    /// (2,048 datasets over both properties) meet dozens.
    const DATASETS_PER_CASE: u64 = 16;

    proptest! {
        #[test]
        fn sweep_matches_exhaustive_search(c in case()) {
            assert_same_trees(c, false);
        }

        #[test]
        fn fit_rows_matches_fit_on_cloned_rows(c in case()) {
            assert_same_trees(c, true);
        }
    }
}
