//! CART decision trees (classification with Gini impurity, regression with
//! variance reduction).
//!
//! Decision trees are the workhorse of the error-pattern mining approaches
//! surveyed in Sec. III-B.2 (gradient-boosted trees on HPC error traces).

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

fn leaf_value(ds: Rows<'_>, idx: &[usize], task: Task) -> Vec<f64> {
    match task {
        Task::Classify { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for &i in idx {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let c = ds.y[i].round().max(0.0) as usize;
                counts[c] += 1.0;
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
    if idx.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = idx.len() as f64;
    match task {
        Task::Classify { n_classes } => {
            let mut counts = vec![0.0f64; n_classes];
            for &i in idx {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let c = ds.y[i].round().max(0.0) as usize;
                counts[c] += 1.0;
            }
            1.0 - counts.iter().map(|c| (c / n).powi(2)).sum::<f64>()
        }
        Task::Regress => {
            let mean = idx.iter().map(|&i| ds.y[i]).sum::<f64>() / n;
            idx.iter().map(|&i| (ds.y[i] - mean).powi(2)).sum::<f64>() / n
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

    #[allow(clippy::cast_precision_loss)]
    let n = idx.len() as f64;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, weighted impurity)
    for &f in &candidate_features {
        // Sort sample indices by this feature and scan midpoints.
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
                left: Box::new(grow(ds, &li, task, config, depth + 1, rng)),
                right: Box::new(grow(ds, &ri, task, config, depth + 1, rng)),
            }
        }
        _ => Node::Leaf {
            value: leaf_value(ds, idx, task),
        },
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
