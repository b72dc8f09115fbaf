//! CART decision trees (classification with Gini impurity, regression with
//! variance reduction).
//!
//! Decision trees are the workhorse of the error-pattern mining approaches
//! surveyed in Sec. III-B.2 (gradient-boosted trees on HPC error traces).
//!
//! Split search screens every threshold in one linear pass and re-scores
//! only near-minimal candidates exactly, so trees are bit-identical to a
//! full quadratic scan (DESIGN §16).

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};
use lori_core::Rng;

/// Configuration for tree growth.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0). 0 means a single leaf.
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// If set, the number of random features considered per split (for
    /// random forests); `None` means all features.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 8,
            min_samples_split: 2,
            max_features: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        /// Class-probability vector (classification) or `[mean]` (regression).
        value: Vec<f64>,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn lookup(&self, x: &[f64]) -> &[f64] {
        match self {
            Node::Leaf { value } => value,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.lookup(x)
                } else {
                    right.lookup(x)
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    fn leaves(&self) -> usize {
        match self {
            Node::Leaf { .. } => 1,
            Node::Split { left, right, .. } => left.leaves() + right.leaves(),
        }
    }
}

/// Task determines the split criterion and leaf value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Classify { n_classes: usize },
    Regress,
}

/// A fitted CART decision-tree classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
    n_classes: usize,
    n_features: usize,
}

impl DecisionTree {
    /// Grows a classification tree.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::SingleClass`] if only one class is present (grow a
    /// stump on purpose? a constant prediction needs no tree) or
    /// [`MlError::InvalidHyperparameter`] for a zero `min_samples_split`.
    pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<Self, MlError> {
        Self::fit_seeded(ds, config, &mut Rng::from_seed(0))
    }

    /// Grows a classification tree with an explicit RNG (used by random
    /// forests for feature sub-sampling).
    ///
    /// # Errors
    ///
    /// Same as [`DecisionTree::fit`].
    pub fn fit_seeded(ds: &Dataset, config: &TreeConfig, rng: &mut Rng) -> Result<Self, MlError> {
        if config.min_samples_split < 2 {
            return Err(MlError::InvalidHyperparameter("min_samples_split"));
        }
        let n_classes = ds.n_classes();
        if n_classes < 2 {
            return Err(MlError::SingleClass);
        }
        let idx: Vec<usize> = (0..ds.len()).collect();
        let root = grow(
            Rows::of(ds),
            &idx,
            Task::Classify { n_classes },
            config,
            0,
            rng,
        );
        Ok(DecisionTree {
            root,
            n_classes,
            n_features: ds.n_features(),
        })
    }

    /// Maximum depth of the grown tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Number of leaves of the grown tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.root.leaves()
    }
}

impl Classifier for DecisionTree {
    fn predict(&self, x: &[f64]) -> usize {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        argmax(self.root.lookup(x))
    }
}

impl ProbabilisticClassifier for DecisionTree {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.root.lookup(x).to_vec()
    }
}

/// A fitted CART regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    root: Node,
    n_features: usize,
}

impl RegressionTree {
    /// Grows a regression tree minimizing within-leaf variance.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for a `min_samples_split`
    /// below two.
    pub fn fit(ds: &Dataset, config: &TreeConfig) -> Result<Self, MlError> {
        Self::fit_seeded(ds, config, &mut Rng::from_seed(0))
    }

    /// Grows a regression tree with an explicit RNG.
    ///
    /// # Errors
    ///
    /// Same as [`RegressionTree::fit`].
    pub fn fit_seeded(ds: &Dataset, config: &TreeConfig, rng: &mut Rng) -> Result<Self, MlError> {
        Self::grow_on(Rows::of(ds), config, rng)
    }

    /// Grows a regression tree on borrowed feature rows and a separate
    /// target vector, as gradient boosting does once per stage with that
    /// stage's residuals. Same result as [`RegressionTree::fit`] on a
    /// dataset of those rows and targets, without copying the rows.
    pub(crate) fn fit_targets(
        features: &[Vec<f64>],
        targets: &[f64],
        config: &TreeConfig,
    ) -> Result<Self, MlError> {
        debug_assert_eq!(features.len(), targets.len());
        let rows = Rows {
            x: features,
            y: targets,
        };
        Self::grow_on(rows, config, &mut Rng::from_seed(0))
    }

    fn grow_on(rows: Rows<'_>, config: &TreeConfig, rng: &mut Rng) -> Result<Self, MlError> {
        if config.min_samples_split < 2 {
            return Err(MlError::InvalidHyperparameter("min_samples_split"));
        }
        let idx: Vec<usize> = (0..rows.x.len()).collect();
        let root = grow(rows, &idx, Task::Regress, config, 0, rng);
        Ok(RegressionTree {
            root,
            n_features: rows.x.first().map_or(0, Vec::len),
        })
    }

    /// Maximum depth of the grown tree.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.root.depth()
    }
}

impl Regressor for RegressionTree {
    fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        self.root.lookup(x)[0]
    }
}

/// Borrowed training rows: feature rows and the targets being fitted.
#[derive(Clone, Copy)]
struct Rows<'a> {
    x: &'a [Vec<f64>],
    y: &'a [f64],
}

impl<'a> Rows<'a> {
    fn of(ds: &'a Dataset) -> Self {
        Rows {
            x: ds.features(),
            y: ds.targets(),
        }
    }
}

/// Class index of a classification target.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn class_of(y: f64) -> usize {
    y.round().max(0.0) as usize
}

/// Gini impurity of a node with these class counts and `n` rows.
fn gini(counts: &[f64], n: f64) -> f64 {
    1.0 - counts.iter().map(|c| (c / n).powi(2)).sum::<f64>()
}

fn leaf_value(ds: Rows<'_>, idx: &[usize], task: Task) -> Vec<f64> {
    match task {
        Task::Classify { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for &i in idx {
                counts[class_of(ds.y[i])] += 1.0;
            }
            #[allow(clippy::cast_precision_loss)]
            let n = idx.len().max(1) as f64;
            for c in &mut counts {
                *c /= n;
            }
            counts
        }
        Task::Regress => {
            #[allow(clippy::cast_precision_loss)]
            let n = idx.len().max(1) as f64;
            let mean = idx.iter().map(|&i| ds.y[i]).sum::<f64>() / n;
            vec![mean]
        }
    }
}

fn impurity(ds: Rows<'_>, idx: &[usize], task: Task) -> f64 {
    impurity_of(idx.iter().map(|&i| ds.y[i]), idx.len(), task)
}

/// Impurity of the `len` targets `ys`, summed in iteration order: Gini for
/// classification, the population variance for regression.
fn impurity_of(ys: impl Iterator<Item = f64> + Clone, len: usize, task: Task) -> f64 {
    if len == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = len as f64;
    match task {
        Task::Classify { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for y in ys {
                counts[class_of(y)] += 1.0;
            }
            gini(&counts, n)
        }
        Task::Regress => {
            let mean = ys.clone().sum::<f64>() / n;
            ys.map(|y| (y - mean).powi(2)).sum::<f64>() / n
        }
    }
}

fn grow(
    ds: Rows<'_>,
    idx: &[usize],
    task: Task,
    config: &TreeConfig,
    depth: usize,
    rng: &mut Rng,
) -> Node {
    let parent_imp = impurity(ds, idx, task);
    if depth >= config.max_depth || idx.len() < config.min_samples_split || parent_imp < 1e-12 {
        return Node::Leaf {
            value: leaf_value(ds, idx, task),
        };
    }

    let d = ds.x.first().map_or(0, Vec::len);
    let candidate_features: Vec<usize> = match config.max_features {
        Some(k) if k < d => rng.sample_indices(d, k.max(1)),
        _ => (0..d).collect(),
    };

    match best_split(ds, idx, task, &candidate_features) {
        Some((feature, threshold, weighted)) if weighted < parent_imp - 1e-12 => {
            let (li, ri): (Vec<usize>, Vec<usize>) =
                idx.iter().partition(|&&i| ds.x[i][feature] <= threshold);
            Node::Split {
                feature,
                threshold,
                left: Box::new(grow(ds, &li, task, config, depth + 1, rng)),
                right: Box::new(grow(ds, &ri, task, config, depth + 1, rng)),
            }
        }
        _ => Node::Leaf {
            value: leaf_value(ds, idx, task),
        },
    }
}

/// The split a full scan picks, as `(feature, threshold, weighted
/// impurity)`: over `features` in order, then ascending split position,
/// the first candidate whose exact weighted impurity is below every
/// earlier one. A linear screen scores every candidate; only those within
/// `tol` of a minimum are re-scored exactly (DESIGN §16).
fn best_split(
    ds: Rows<'_>,
    idx: &[usize],
    task: Task,
    features: &[usize],
) -> Option<(usize, f64, f64)> {
    let tol = screen_tolerance(ds, idx, task);
    // (feature value, target) of the node's rows in split order.
    let mut sorted: Vec<(f64, f64)> = Vec::with_capacity(idx.len());
    let mut scores = vec![0.0f64; idx.len()];
    let mut best: Option<(usize, f64, f64)> = None;
    for &f in features {
        sorted.clear();
        sorted.extend(idx.iter().map(|&i| (ds.x[i][f], ds.y[i])));
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN feature"));
        let min = screen(&sorted, task, &mut scores);
        let confirm_all = !(tol.is_finite() && min.is_finite());
        for w in 1..sorted.len() {
            let (lo, hi) = (sorted[w - 1].0, sorted[w].0);
            if hi - lo < 1e-12 {
                continue;
            }
            let s = scores[w];
            if !confirm_all && (s > min + tol || best.is_some_and(|(_, _, b)| s > b + tol)) {
                continue;
            }
            let weighted = exact_weighted(&sorted, w, task);
            if best.is_none_or(|(_, _, b)| weighted < b) {
                best = Some((f, (lo + hi) / 2.0, weighted));
            }
        }
    }
    best
}

/// The exact weighted impurity of the split `sorted[..w] | sorted[w..]`,
/// from [`impurity_of`] on each side: the value the split is chosen by.
#[allow(clippy::cast_precision_loss)]
fn exact_weighted(sorted: &[(f64, f64)], w: usize, task: Task) -> f64 {
    let (left, right) = sorted.split_at(w);
    let side = |rows: &[(f64, f64)]| {
        rows.len() as f64 * impurity_of(rows.iter().map(|r| r.1), rows.len(), task)
    };
    (side(left) + side(right)) / sorted.len() as f64
}

/// Writes the screened weighted impurity of every split position `w` that
/// separates two distinct feature values to `scores[w]`, from running sums
/// in one pass, and returns the smallest (infinity when there is none).
#[allow(clippy::cast_precision_loss)]
fn screen(sorted: &[(f64, f64)], task: Task, scores: &mut [f64]) -> f64 {
    let n = sorted.len();
    let gap = |w: usize| sorted[w].0 - sorted[w - 1].0 < 1e-12;
    let mut min = f64::INFINITY;
    match task {
        Task::Regress => {
            // Right sides accumulate from the right end, so a short right
            // side carries only its own rounding error (see `screen_tolerance`).
            let (mut s1, mut s2) = (0.0f64, 0.0f64);
            for w in (1..n).rev() {
                let y = sorted[w].1;
                s1 += y;
                s2 += y * y;
                scores[w] = s2 - s1 * s1 / (n - w) as f64;
            }
            let (mut s1, mut s2) = (0.0f64, 0.0f64);
            for w in 1..n {
                let y = sorted[w - 1].1;
                s1 += y;
                s2 += y * y;
                if gap(w) {
                    continue;
                }
                let s = (s2 - s1 * s1 / w as f64 + scores[w]) / n as f64;
                scores[w] = s;
                min = min.min(s);
            }
        }
        Task::Classify { n_classes } => {
            // Integer counts in f64 are exact, so these scores are bit-equal
            // to `exact_weighted`.
            let mut total = vec![0.0f64; n_classes];
            for r in sorted {
                total[class_of(r.1)] += 1.0;
            }
            let mut left = vec![0.0f64; n_classes];
            let mut right = vec![0.0f64; n_classes];
            for w in 1..n {
                left[class_of(sorted[w - 1].1)] += 1.0;
                if gap(w) {
                    continue;
                }
                for ((r, t), l) in right.iter_mut().zip(&total).zip(&left) {
                    *r = t - l;
                }
                let (nl, nr) = (w as f64, (n - w) as f64);
                let s = (nl * gini(&left, nl) + nr * gini(&right, nr)) / n as f64;
                scores[w] = s;
                min = min.min(s);
            }
        }
    }
    min
}

/// An upper bound on twice the gap between a screened score and
/// [`exact_weighted`] for any split of the node `idx`, or infinity when no
/// bound holds.
///
/// Classification: 0, the screen is exact. Regression, with `u = ε/2` the
/// unit roundoff, `m` the rows on one side and `S2` its true `Σy²`:
/// - screen: `Σy²` from running sums is off by at most `m·u·S2` and
///   `(Σy)²/m` by `2m·u·S2` (`|Σy| ≤ √(m·S2)`), the subtraction adds `u·S2`;
///   summing both sides and dividing by `n` gives `(3n+3)·u·Σy²/n`.
/// - exact: the two-pass variance is off by `(m+3)·u·S2` per side (the
///   mean's error enters only squared); the weighting adds three roundings:
///   `(n+6)·u·Σy²/n`.
///
/// Together `(4n+9)·u·Σy²/n = (2n+4.5)·ε·Σy²/n`, so `4·(n+4)·ε·Σy²/n` is
/// twice the bound with slack for the second-order terms, the rounding of
/// `Σy²` itself and of the comparisons against `tol`. The `MIN_POSITIVE`
/// term covers the absolute error of subnormal results. Both bounds need
/// each side's error to be its own: a right side computed as total minus
/// prefix would carry the whole node's error in `Σy`, which `(Σy)²/m`
/// inflates by `√n` past this bound for `m = 1`. If `2n·Σy²` is not
/// finite (NaN or infinite targets, or sums that may overflow), there is
/// no bound and every candidate is confirmed, as the full scan did.
fn screen_tolerance(ds: Rows<'_>, idx: &[usize], task: Task) -> f64 {
    match task {
        Task::Classify { .. } => 0.0,
        Task::Regress => {
            #[allow(clippy::cast_precision_loss)]
            let n = idx.len() as f64;
            let s2: f64 = idx.iter().map(|&i| ds.y[i] * ds.y[i]).sum();
            if (2.0 * n * s2).is_finite() {
                4.0 * (n + 4.0) * (f64::EPSILON * s2 / n + f64::MIN_POSITIVE)
            } else {
                f64::INFINITY
            }
        }
    }
}

/// Index of the first maximum (ties resolve to the smallest index).
pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use lori_core::Rng;

    fn xor_dataset() -> Dataset {
        // XOR is not linearly separable; a depth-2 tree nails it.
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        let mut rng = Rng::from_seed(5);
        for _ in 0..200 {
            let a = rng.bernoulli(0.5);
            let b = rng.bernoulli(0.5);
            rows.push(vec![
                f64::from(u8::from(a)) + rng.normal_with(0.0, 0.05),
                f64::from(u8::from(b)) + rng.normal_with(0.0, 0.05),
            ]);
            ys.push(f64::from(u8::from(a ^ b)));
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn solves_xor() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let acc = accuracy(&ds.class_targets(), &tree.predict_batch(ds.features())).unwrap();
        assert!(acc > 0.99, "accuracy {acc}");
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg).unwrap();
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn max_depth_is_respected() {
        let ds = xor_dataset();
        for d in [1, 2, 3] {
            let cfg = TreeConfig {
                max_depth: d,
                ..TreeConfig::default()
            };
            let tree = DecisionTree::fit(&ds, &cfg).unwrap();
            assert!(tree.depth() <= d);
        }
    }

    #[test]
    fn scores_are_distribution() {
        let ds = xor_dataset();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let s = tree.scores(&[0.5, 0.5]);
        assert_eq!(s.len(), 2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_fits_step_function() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let ys: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 5.0 }).collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let tree = RegressionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert!((tree.predict(&[10.0]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[90.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tree_quadratic_r2() {
        let mut rng = Rng::from_seed(7);
        let rows: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0] * r[0]).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let tree = RegressionTree::fit(&ds, &TreeConfig::default()).unwrap();
        let preds: Vec<f64> = rows.iter().map(|r| tree.predict(r)).collect();
        let score = r2(&ys, &preds).unwrap();
        assert!(score > 0.95, "r2 {score}");
    }

    #[test]
    fn fit_targets_matches_fit_on_a_dataset() {
        let mut rng = Rng::from_seed(8);
        let rows: Vec<Vec<f64>> = (0..120)
            .map(|_| vec![rng.uniform_in(-3.0, 3.0), rng.normal()])
            .collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0].sin() + 0.1 * r[1]).collect();
        let cfg = TreeConfig {
            max_depth: 3,
            ..TreeConfig::default()
        };
        let borrowed = RegressionTree::fit_targets(&rows, &ys, &cfg).unwrap();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        assert_eq!(borrowed, RegressionTree::fit(&ds, &cfg).unwrap());
    }

    #[test]
    fn single_class_rejected() {
        let ds = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![0.0, 0.0]).unwrap();
        assert_eq!(
            DecisionTree::fit(&ds, &TreeConfig::default()),
            Err(MlError::SingleClass)
        );
    }

    #[test]
    fn min_samples_split_validated() {
        let ds = xor_dataset();
        let cfg = TreeConfig {
            min_samples_split: 0,
            ..TreeConfig::default()
        };
        assert!(DecisionTree::fit(&ds, &cfg).is_err());
        assert!(RegressionTree::fit(&ds, &cfg).is_err());
    }

    #[test]
    fn pure_node_stops_early() {
        // Perfectly separated single-feature data: tree needs depth 1 only.
        let ds = Dataset::from_rows(
            vec![vec![0.0], vec![0.1], vec![1.0], vec![1.1]],
            vec![0.0, 0.0, 1.0, 1.0],
        )
        .unwrap();
        let tree = DecisionTree::fit(&ds, &TreeConfig::default()).unwrap();
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.leaf_count(), 2);
    }
}

/// Parity of the production grower with the original quadratic scan, which
/// re-scores every candidate threshold from scratch with [`impurity`].
#[cfg(test)]
mod tree_parity {
    use super::*;
    use proptest::prelude::*;

    /// The reference grower: the full O(n²)-per-feature scan.
    fn grow_reference(
        ds: Rows<'_>,
        idx: &[usize],
        task: Task,
        config: &TreeConfig,
        depth: usize,
        rng: &mut Rng,
    ) -> Node {
        let parent_imp = impurity(ds, idx, task);
        if depth >= config.max_depth || idx.len() < config.min_samples_split || parent_imp < 1e-12 {
            return Node::Leaf {
                value: leaf_value(ds, idx, task),
            };
        }

        let d = ds.x.first().map_or(0, Vec::len);
        let candidate_features: Vec<usize> = match config.max_features {
            Some(k) if k < d => rng.sample_indices(d, k.max(1)),
            _ => (0..d).collect(),
        };

        #[allow(clippy::cast_precision_loss)]
        let n = idx.len() as f64;
        let mut best: Option<(usize, f64, f64)> = None;
        for &f in &candidate_features {
            let mut sorted: Vec<usize> = idx.to_vec();
            sorted.sort_by(|&a, &b| ds.x[a][f].partial_cmp(&ds.x[b][f]).expect("NaN feature"));
            for w in 1..sorted.len() {
                let lo = ds.x[sorted[w - 1]][f];
                let hi = ds.x[sorted[w]][f];
                if hi - lo < 1e-12 {
                    continue;
                }
                let threshold = (lo + hi) / 2.0;
                let (left, right) = (&sorted[..w], &sorted[w..]);
                #[allow(clippy::cast_precision_loss)]
                let weighted = (left.len() as f64 * impurity(ds, left, task)
                    + right.len() as f64 * impurity(ds, right, task))
                    / n;
                if best.as_ref().is_none_or(|&(_, _, b)| weighted < b) {
                    best = Some((f, threshold, weighted));
                }
            }
        }

        match best {
            Some((feature, threshold, weighted)) if weighted < parent_imp - 1e-12 => {
                let (li, ri): (Vec<usize>, Vec<usize>) =
                    idx.iter().partition(|&&i| ds.x[i][feature] <= threshold);
                Node::Split {
                    feature,
                    threshold,
                    left: Box::new(grow_reference(ds, &li, task, config, depth + 1, rng)),
                    right: Box::new(grow_reference(ds, &ri, task, config, depth + 1, rng)),
                }
            }
            _ => Node::Leaf {
                value: leaf_value(ds, idx, task),
            },
        }
    }

    /// A tree flattened to bits: stricter than `==`, which cannot see a NaN
    /// leaf or the sign of a zero.
    fn bits(node: &Node, out: &mut Vec<u64>) {
        match node {
            Node::Leaf { value } => {
                out.push(0);
                out.extend(value.iter().map(|v| v.to_bits()));
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                out.extend([1, *feature as u64, threshold.to_bits()]);
                bits(left, out);
                bits(right, out);
            }
        }
    }

    /// Grows a tree both ways from the same seed and asserts the trees and
    /// the RNG states after growth are identical.
    fn assert_parity(rows: Rows<'_>, task: Task, config: &TreeConfig, seed: u64) {
        let idx: Vec<usize> = (0..rows.x.len()).collect();
        let (mut rng_a, mut rng_b) = (Rng::from_seed(seed), Rng::from_seed(seed));
        let fast = grow(rows, &idx, task, config, 0, &mut rng_a);
        let reference = grow_reference(rows, &idx, task, config, 0, &mut rng_b);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        bits(&fast, &mut a);
        bits(&reference, &mut b);
        assert_eq!(a, b, "tree differs from the reference scan");
        if rows.y.iter().all(|y| y.is_finite()) {
            assert_eq!(fast, reference);
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
    }

    /// `n` rows of `d` features. With `grid`, values are rounded to a coarse
    /// grid so many rows share a value and thresholds tie.
    fn features(rng: &mut Rng, n: usize, d: usize, grid: bool) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        let v = rng.uniform_in(-4.0, 4.0);
                        if grid {
                            (v * 2.0).round() / 2.0
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Regression targets of one of several shapes, chosen by `kind`:
    /// smooth signal plus noise, tied step values, a large offset with a
    /// ~1e-3 spread, and a lone outlier at the smallest or largest value of
    /// feature 0 (so the best split leaves one row on one side).
    fn targets(rng: &mut Rng, x: &[Vec<f64>], kind: u8) -> Vec<f64> {
        let offset = 10f64.powf(rng.uniform_in(6.0, 8.0));
        let extreme = |want_max: bool| {
            let mut at = 0;
            for (i, r) in x.iter().enumerate() {
                if (want_max && r[0] > x[at][0]) || (!want_max && r[0] < x[at][0]) {
                    at = i;
                }
            }
            at
        };
        let outlier = match kind {
            3 => Some(extreme(false)),
            4 => Some(extreme(true)),
            _ => None,
        };
        x.iter()
            .enumerate()
            .map(|(i, r)| match kind {
                0 => r[0].sin() + 0.3 * r[r.len() - 1] + rng.normal_with(0.0, 0.2),
                1 => (r[0] * 1.5).round().clamp(-2.0, 2.0),
                2 => offset + 1e-3 * (r[0] + rng.normal_with(0.0, 0.5)),
                _ if outlier == Some(i) => 50.0,
                _ => rng.normal_with(0.0, 0.01),
            })
            .collect()
    }

    fn config(max_depth: usize, min_samples_split: usize, max_features: usize) -> TreeConfig {
        TreeConfig {
            max_depth,
            min_samples_split,
            max_features: (max_features > 0).then_some(max_features),
        }
    }

    proptest! {
        /// Regression trees match the reference scan bit for bit: tied
        /// thresholds, large target offsets, one-row sides and the
        /// random-forest feature sampling included.
        #[test]
        fn regression_tree_matches_reference(
            seed in 0u64..1_000_000,
            n in 2usize..200,
            d in 1usize..5,
            grid in any::<bool>(),
            kind in 0u8..5,
            max_depth in 0usize..7,
            min_split in 2usize..5,
            max_features in 0usize..4,
        ) {
            let mut rng = Rng::from_seed(seed);
            let x = features(&mut rng, n, d, grid);
            let y = targets(&mut rng, &x, kind);
            let cfg = config(max_depth, min_split, max_features);
            assert_parity(Rows { x: &x, y: &y }, Task::Regress, &cfg, seed);
        }

        /// Classification trees with 2 and 3 classes match the reference
        /// scan bit for bit.
        #[test]
        fn decision_tree_matches_reference(
            seed in 0u64..1_000_000,
            n in 2usize..200,
            d in 1usize..5,
            grid in any::<bool>(),
            n_classes in 2usize..4,
            max_depth in 0usize..7,
            min_split in 2usize..5,
            max_features in 0usize..4,
        ) {
            let mut rng = Rng::from_seed(seed);
            let x = features(&mut rng, n, d, grid);
            let noise = rng.uniform_in(0.0, 1.5);
            let y: Vec<f64> = x
                .iter()
                .map(|r| {
                    #[allow(clippy::cast_precision_loss)]
                    let k = (n_classes - 1) as f64;
                    (r[0] + rng.normal_with(0.0, noise)).clamp(0.0, k).round()
                })
                .collect();
            let cfg = config(max_depth, min_split, max_features);
            let task = Task::Classify { n_classes };
            assert_parity(Rows { x: &x, y: &y }, task, &cfg, seed);
        }

        /// Non-finite targets (NaN, ±inf) and targets whose squares sum past
        /// `f64::MAX` still give the reference tree.
        #[test]
        fn non_finite_targets_match_reference(
            seed in 0u64..1_000_000,
            n in 2usize..60,
            d in 1usize..4,
            grid in any::<bool>(),
            kind in 0u8..4,
            max_depth in 1usize..5,
        ) {
            let mut rng = Rng::from_seed(seed);
            let x = features(&mut rng, n, d, grid);
            let mut y = targets(&mut rng, &x, 0);
            #[allow(clippy::cast_possible_truncation)]
            let at = rng.below(n as u64) as usize;
            match kind {
                0 => y[at] = f64::NAN,
                1 => y[at] = f64::INFINITY,
                2 => y[at] = f64::NEG_INFINITY,
                _ => {
                    for v in &mut y {
                        *v = 1e154 * (1.5 + 0.1 * *v);
                    }
                }
            }
            let cfg = config(max_depth, 2, 0);
            assert_parity(Rows { x: &x, y: &y }, Task::Regress, &cfg, seed);
        }
    }

    #[test]
    fn grow_paths_agree_on_a_boosting_sized_fit() {
        let mut rng = Rng::from_seed(3);
        let x = features(&mut rng, 220, 4, false);
        let y = targets(&mut rng, &x, 0);
        assert_parity(Rows { x: &x, y: &y }, Task::Regress, &config(4, 2, 0), 3);
    }
}
