//! A multi-layer perceptron with configurable hidden layers, trained by
//! mini-batch SGD with momentum.
//!
//! Small MLPs recur throughout the paper: SER estimation (Sec. IV-A.1),
//! cross-layer SER models (ref \[1\]), vulnerability estimation for MWTF
//! mapping (ref \[2\]), anomaly detection on intermediate DNN outputs
//! (ref \[30\]), and WarningNet-style input-perturbation warning (ref \[32\]).

use crate::data::Dataset;
use crate::error::MlError;
use crate::traits::{Classifier, ProbabilisticClassifier, Regressor};
use crate::tree::argmax;
use lori_core::Rng;

/// Activation function for hidden layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    fn apply(self, z: f64) -> f64 {
        match self {
            Activation::Relu => z.max(0.0),
            Activation::Tanh => z.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
        }
    }

    /// Derivative expressed in terms of the *activation output* `a`.
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
            Activation::Sigmoid => a * (1.0 - a),
        }
    }
}

/// Output head: determines the loss and final-layer nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Linear output + squared loss (regression). Output width 1.
    Regression,
    /// Softmax output + cross-entropy (classification). Output width =
    /// number of classes.
    Classification {
        /// Number of classes.
        n_classes: usize,
    },
}

/// Training configuration for [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer widths, e.g. `vec![16, 16]` for two hidden layers.
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Output head.
    pub head: Head,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl MlpConfig {
    /// A sensible default for small tabular classification problems.
    #[must_use]
    pub fn classifier(n_classes: usize) -> Self {
        MlpConfig {
            hidden: vec![16, 16],
            activation: Activation::Relu,
            head: Head::Classification { n_classes },
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 200,
            batch_size: 32,
            seed: 0,
        }
    }

    /// A sensible default for small tabular regression problems.
    #[must_use]
    pub fn regressor() -> Self {
        MlpConfig {
            hidden: vec![32, 32],
            activation: Activation::Tanh,
            head: Head::Regression,
            learning_rate: 0.01,
            momentum: 0.9,
            epochs: 300,
            batch_size: 32,
            seed: 0,
        }
    }
}

/// One dense layer. `w` holds `weights[out][in]` row-major; `wt` is its
/// `[in][out]` transpose, which the forward pass reads. Training refreshes
/// `wt` after every momentum step.
#[derive(Debug, Clone, PartialEq)]
struct Layer {
    n_in: usize,
    n_out: usize,
    w: Vec<f64>,
    wt: Vec<f64>,
    biases: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut Rng) -> Layer {
        // He-style initialization keeps gradients healthy for ReLU; fine for
        // tanh/sigmoid at these scales too.
        #[allow(clippy::cast_precision_loss)]
        let scale = (2.0 / n_in as f64).sqrt();
        let w = (0..n_out * n_in).map(|_| rng.normal() * scale).collect();
        let mut layer = Layer {
            n_in,
            n_out,
            w,
            wt: vec![0.0; n_in * n_out],
            biases: vec![0.0; n_out],
        };
        layer.refresh_transpose();
        layer
    }

    fn refresh_transpose(&mut self) {
        for (o, row) in self.w.chunks_exact(self.n_in.max(1)).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                self.wt[i * self.n_out + o] = w;
            }
        }
    }

    /// Pre-activations `z[o] = b[o] + Σᵢ w[o][i]·x[i]`. The sum starts at
    /// `-0.0`, the neutral element `Iterator::sum` starts from, and the bias
    /// is added last.
    fn forward(&self, input: &[f64], z: &mut [f64]) {
        gemv_cols(&self.wt, self.n_out, input, -0.0, z);
        for (z, b) in z.iter_mut().zip(&self.biases) {
            *z += b;
        }
    }
}

/// `out[j] = init + Σₖ m[k·stride + j]·v[k]`, summed in `k` order.
///
/// Outputs are taken in blocks of 16, 8, 4, 2 and 1. A block shares one
/// pass over `v` and keeps one accumulator per output, so every output is
/// the same left-to-right chain of additions a scalar loop produces; only
/// the memory traffic changes. Forward pre-activations, back-propagated
/// deltas and batch weight gradients all run on this one kernel.
fn gemv_cols(m: &[f64], stride: usize, v: &[f64], init: f64, out: &mut [f64]) {
    let mut j0 = 0;
    while out.len() - j0 >= 16 {
        block::<16>(&m[j0..], stride, v, init, &mut out[j0..]);
        j0 += 16;
    }
    let rest = out.len() - j0;
    if rest & 8 != 0 {
        block::<8>(&m[j0..], stride, v, init, &mut out[j0..]);
        j0 += 8;
    }
    if rest & 4 != 0 {
        block::<4>(&m[j0..], stride, v, init, &mut out[j0..]);
        j0 += 4;
    }
    if rest & 2 != 0 {
        block::<2>(&m[j0..], stride, v, init, &mut out[j0..]);
        j0 += 2;
    }
    if rest & 1 != 0 {
        block::<1>(&m[j0..], stride, v, init, &mut out[j0..]);
    }
}

/// `W` outputs of [`gemv_cols`], in registers.
#[inline(always)]
fn block<const W: usize>(m: &[f64], stride: usize, v: &[f64], init: f64, out: &mut [f64]) {
    let mut acc = [init; W];
    for (k, &vk) in v.iter().enumerate() {
        let row = &m[k * stride..][..W];
        for (a, &x) in acc.iter_mut().zip(row) {
            *a += x * vk;
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// Per-layer training state, allocated once per fit.
struct LayerState {
    /// Layer inputs of the current mini-batch, `[sample][in]`.
    input: Vec<f64>,
    /// Output deltas of the current mini-batch, `[out][sample]`.
    delta_t: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    // Momentum buffers.
    vw: Vec<f64>,
    vb: Vec<f64>,
}

impl LayerState {
    fn new(layer: &Layer, batch: usize) -> LayerState {
        LayerState {
            input: vec![0.0; batch * layer.n_in],
            delta_t: vec![0.0; layer.n_out * batch],
            gw: vec![0.0; layer.w.len()],
            gb: vec![0.0; layer.n_out],
            vw: vec![0.0; layer.w.len()],
            vb: vec![0.0; layer.n_out],
        }
    }
}

/// A trained multi-layer perceptron.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    activation: Activation,
    head: Head,
    n_features: usize,
    /// Mean training loss per epoch, recorded during fitting.
    loss_history: Vec<f64>,
}

impl Mlp {
    /// Trains an MLP on the dataset.
    ///
    /// For a classification head, targets are class indices; for regression,
    /// raw values.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] for invalid config, or
    /// [`MlError::SingleClass`] when a classification head sees classes
    /// outside `0..n_classes`.
    pub fn fit(ds: &Dataset, config: &MlpConfig) -> Result<Self, MlError> {
        if config.learning_rate.is_nan()
            || config.learning_rate <= 0.0
            || !(0.0..1.0).contains(&config.momentum)
            || config.epochs == 0
            || config.batch_size == 0
            || config.hidden.contains(&0)
        {
            return Err(MlError::InvalidHyperparameter("mlp config"));
        }
        let out_dim = match config.head {
            Head::Regression => 1,
            Head::Classification { n_classes } => {
                if n_classes < 2 {
                    return Err(MlError::InvalidHyperparameter("n_classes"));
                }
                if ds.class_targets().iter().any(|&c| c >= n_classes) {
                    return Err(MlError::SingleClass);
                }
                n_classes
            }
        };

        let mut rng = Rng::from_seed(config.seed);
        let mut sizes = vec![ds.n_features()];
        sizes.extend(&config.hidden);
        sizes.push(out_dim);
        let mut mlp = Mlp {
            layers: sizes
                .windows(2)
                .map(|w| Layer::new(w[0], w[1], &mut rng))
                .collect(),
            activation: config.activation,
            head: config.head,
            n_features: ds.n_features(),
            loss_history: Vec::with_capacity(config.epochs),
        };

        let batch = config.batch_size.min(ds.len());
        let mut states: Vec<LayerState> = mlp
            .layers
            .iter()
            .map(|l| LayerState::new(l, batch))
            .collect();
        let mut out = vec![0.0; out_dim];
        let (mut delta, mut prev) = (Vec::new(), Vec::new());

        let class_targets = ds.class_targets();
        let mut order: Vec<usize> = (0..ds.len()).collect();

        let loss_gauge = lori_obs::gauge("ml.train.loss");
        for epoch in 0..config.epochs {
            #[allow(clippy::cast_precision_loss)]
            let _epoch_span = lori_obs::span_with("ml.train.epoch", epoch as f64);
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(config.batch_size) {
                for (s, &i) in chunk.iter().enumerate() {
                    let (x, y) = ds.sample(i);
                    // Forward pass; each layer's input row stays in its
                    // batch buffer for the gradient step.
                    states[0].input[s * x.len()..][..x.len()].copy_from_slice(x);
                    for (li, layer) in mlp.layers.iter().enumerate() {
                        let (done, rest) = states.split_at_mut(li + 1);
                        let z = match rest.first_mut() {
                            Some(next) => &mut next.input[s * layer.n_out..][..layer.n_out],
                            None => &mut out[..],
                        };
                        layer.forward(&done[li].input[s * layer.n_in..][..layer.n_in], z);
                        mlp.finish_layer(li, z);
                    }
                    // Output delta (dL/dz for the last pre-activation).
                    delta.clear();
                    match config.head {
                        Head::Regression => {
                            let e = out[0] - y;
                            epoch_loss += e * e;
                            delta.push(e);
                        }
                        Head::Classification { .. } => {
                            let c = class_targets[i];
                            epoch_loss += -(out[c].max(1e-12)).ln();
                            delta.extend(
                                out.iter()
                                    .enumerate()
                                    .map(|(k, &p)| p - f64::from(u8::from(k == c))),
                            );
                        }
                    }
                    // Backward pass: file each layer's delta for the batch
                    // gradient, then propagate it through the weights.
                    for li in (0..mlp.layers.len()).rev() {
                        let layer = &mlp.layers[li];
                        for (o, &d) in delta.iter().enumerate() {
                            states[li].delta_t[o * batch + s] = d;
                        }
                        if li > 0 {
                            prev.clear();
                            prev.resize(layer.n_in, 0.0);
                            gemv_cols(&layer.w, layer.n_in, &delta, 0.0, &mut prev);
                            let a = &states[li].input[s * layer.n_in..][..layer.n_in];
                            for (p, &a) in prev.iter_mut().zip(a) {
                                *p *= config.activation.derivative_from_output(a);
                            }
                            std::mem::swap(&mut delta, &mut prev);
                        }
                    }
                }

                // Batch gradients, summed over samples in batch order, then
                // the SGD-with-momentum update.
                let n = chunk.len();
                #[allow(clippy::cast_precision_loss)]
                let scale = config.learning_rate / n as f64;
                for (layer, st) in mlp.layers.iter_mut().zip(&mut states) {
                    for (o, d) in st.delta_t.chunks_exact(batch).enumerate() {
                        let d = &d[..n];
                        let gw = &mut st.gw[o * layer.n_in..][..layer.n_in];
                        gemv_cols(&st.input, layer.n_in, d, 0.0, gw);
                        st.gb[o] = d.iter().fold(0.0, |acc, &d| acc + d);
                    }
                    for ((w, v), &g) in layer.w.iter_mut().zip(&mut st.vw).zip(&st.gw) {
                        *v = config.momentum * *v - scale * g;
                        *w += *v;
                    }
                    for ((b, v), &g) in layer.biases.iter_mut().zip(&mut st.vb).zip(&st.gb) {
                        *v = config.momentum * *v - scale * g;
                        *b += *v;
                    }
                    layer.refresh_transpose();
                }
            }
            #[allow(clippy::cast_precision_loss)]
            let mean_loss = epoch_loss / ds.len() as f64;
            loss_gauge.set(mean_loss);
            mlp.loss_history.push(mean_loss);
        }
        Ok(mlp)
    }

    /// Applies layer `li`'s nonlinearity to its pre-activations in place:
    /// the hidden activation, or softmax on a classification head's output.
    fn finish_layer(&self, li: usize, z: &mut [f64]) {
        if li + 1 < self.layers.len() {
            for v in z {
                *v = self.activation.apply(*v);
            }
        } else if let Head::Classification { .. } = self.head {
            softmax_in_place(z);
        }
    }

    /// Runs the network on `x` and leaves the output in `cur`. The two
    /// buffers alternate between layers, so a batch of rows allocates
    /// nothing per row.
    fn forward_into(&self, x: &[f64], cur: &mut Vec<f64>, next: &mut Vec<f64>) {
        assert_eq!(x.len(), self.n_features, "feature count mismatch");
        cur.clear();
        cur.extend_from_slice(x);
        for (li, layer) in self.layers.iter().enumerate() {
            next.clear();
            next.resize(layer.n_out, 0.0);
            layer.forward(cur, next);
            self.finish_layer(li, next);
            std::mem::swap(cur, next);
        }
    }

    /// Raw network output (post-softmax for classification heads).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[must_use]
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        self.forward_into(x, &mut cur, &mut next);
        cur
    }

    /// Mean training loss per epoch (useful for convergence tests).
    #[must_use]
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }

    /// Number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.biases.len()).sum()
    }

    /// Applies `f` to the output of every row, reusing one pair of buffers.
    fn map_rows<T>(&self, xs: &[Vec<f64>], f: impl Fn(&[f64]) -> T) -> Vec<T> {
        let (mut cur, mut next) = (Vec::new(), Vec::new());
        xs.iter()
            .map(|x| {
                self.forward_into(x, &mut cur, &mut next);
                f(&cur)
            })
            .collect()
    }

    fn assert_classifier(&self) {
        assert!(
            matches!(self.head, Head::Classification { .. }),
            "predict() requires a classification head"
        );
    }

    fn assert_regressor(&self) {
        assert!(
            matches!(self.head, Head::Regression),
            "predict() requires a regression head"
        );
    }
}

impl Classifier for Mlp {
    /// # Panics
    ///
    /// Panics if called on a regression-head network.
    fn predict(&self, x: &[f64]) -> usize {
        self.assert_classifier();
        argmax(&self.forward(x))
    }

    /// # Panics
    ///
    /// Panics if called on a regression-head network.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<usize> {
        self.assert_classifier();
        self.map_rows(xs, argmax)
    }
}

impl ProbabilisticClassifier for Mlp {
    fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.forward(x)
    }
}

impl Regressor for Mlp {
    /// # Panics
    ///
    /// Panics if called on a classification-head network.
    fn predict(&self, x: &[f64]) -> f64 {
        self.assert_regressor();
        self.forward(x)[0]
    }

    /// # Panics
    ///
    /// Panics if called on a classification-head network.
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        self.assert_regressor();
        self.map_rows(xs, |out| out[0])
    }
}

fn softmax_in_place(z: &mut [f64]) {
    let max = z.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in z.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in z {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use lori_core::Rng;

    fn xor_like(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::from_seed(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.bernoulli(0.5);
            let b = rng.bernoulli(0.5);
            rows.push(vec![
                f64::from(u8::from(a)) + rng.normal_with(0.0, 0.1),
                f64::from(u8::from(b)) + rng.normal_with(0.0, 0.1),
            ]);
            ys.push(f64::from(u8::from(a ^ b)));
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn learns_xor() {
        let ds = xor_like(400, 1);
        let mlp = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let preds: Vec<usize> = ds
            .features()
            .iter()
            .map(|r| Classifier::predict(&mlp, r))
            .collect();
        let acc = accuracy(&ds.class_targets(), &preds).unwrap();
        assert!(acc > 0.97, "accuracy {acc}");
    }

    #[test]
    fn training_loss_decreases() {
        let ds = xor_like(200, 2);
        let mlp = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let h = mlp.loss_history();
        assert!(h.last().unwrap() < h.first().unwrap());
    }

    #[test]
    fn regression_fits_sine() {
        let mut rng = Rng::from_seed(3);
        let rows: Vec<Vec<f64>> = (0..500).map(|_| vec![rng.uniform_in(-3.0, 3.0)]).collect();
        let ys: Vec<f64> = rows.iter().map(|r| r[0].sin()).collect();
        let ds = Dataset::from_rows(rows.clone(), ys.clone()).unwrap();
        let mlp = Mlp::fit(&ds, &MlpConfig::regressor()).unwrap();
        let mse: f64 = rows
            .iter()
            .zip(&ys)
            .map(|(r, y)| (Regressor::predict(&mlp, r) - y).powi(2))
            .sum::<f64>()
            / 500.0;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn softmax_outputs_distribution() {
        let ds = xor_like(100, 4);
        let mlp = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let s = mlp.scores(&[0.5, 0.5]);
        assert_eq!(s.len(), 2);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn invalid_configs_rejected() {
        let ds = xor_like(50, 5);
        let mut c = MlpConfig::classifier(2);
        c.learning_rate = 0.0;
        assert!(Mlp::fit(&ds, &c).is_err());
        let mut c = MlpConfig::classifier(2);
        c.hidden = vec![0];
        assert!(Mlp::fit(&ds, &c).is_err());
        let c = MlpConfig::classifier(1);
        assert!(Mlp::fit(&ds, &c).is_err());
        // Class label out of range for declared n_classes.
        let bad = Dataset::from_rows(vec![vec![0.0], vec![1.0]], vec![0.0, 5.0]).unwrap();
        assert!(Mlp::fit(&bad, &MlpConfig::classifier(2)).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = xor_like(100, 6);
        let a = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        let b = Mlp::fit(&ds, &MlpConfig::classifier(2)).unwrap();
        assert_eq!(a.forward(&[0.3, 0.7]), b.forward(&[0.3, 0.7]));
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let ds = xor_like(50, 7);
        let mut c = MlpConfig::classifier(2);
        c.hidden = vec![4];
        c.epochs = 1;
        let mlp = Mlp::fit(&ds, &c).unwrap();
        // 2->4: 8 w + 4 b; 4->2: 8 w + 2 b = 22.
        assert_eq!(mlp.parameter_count(), 22);
    }

    #[test]
    #[should_panic(expected = "requires a regression head")]
    fn regression_predict_on_classifier_panics() {
        let ds = xor_like(50, 8);
        let mut c = MlpConfig::classifier(2);
        c.epochs = 1;
        let mlp = Mlp::fit(&ds, &c).unwrap();
        let _: f64 = Regressor::predict(&mlp, &[0.0, 0.0]);
    }

    /// Trains one small network and returns the bit patterns of its
    /// per-epoch loss and of `forward()` on three fixed rows. Hidden widths
    /// 12 and 5 are not multiples of 8, and 37 rows in batches of 8 leave a
    /// partial last batch.
    fn parity_bits(activation: Activation, head: Head) -> (Vec<u64>, Vec<u64>) {
        let mut rng = Rng::from_seed(21);
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|_| (0..5).map(|_| rng.normal()).collect())
            .collect();
        let ys: Vec<f64> = rows
            .iter()
            .map(|r| match head {
                Head::Regression => r[0] - 0.5 * r[3] + 0.25 * r[4] * r[1],
                Head::Classification { n_classes } => {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                    let c = ((r[0] + r[1]).abs() * 2.0) as usize % n_classes;
                    #[allow(clippy::cast_precision_loss)]
                    let c = c as f64;
                    c
                }
            })
            .collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let config = MlpConfig {
            hidden: vec![12, 5],
            activation,
            head,
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 3,
            batch_size: 8,
            seed: 11,
        };
        let mlp = Mlp::fit(&ds, &config).unwrap();
        let loss = mlp.loss_history().iter().map(|v| v.to_bits()).collect();
        let forward = [
            [0.3, -1.2, 0.7, 2.0, -0.4],
            [0.0; 5],
            [-2.5, 0.1, 1.9, -0.8, 3.3],
        ]
        .iter()
        .flat_map(|x| mlp.forward(x))
        .map(f64::to_bits)
        .collect();
        (loss, forward)
    }

    /// `(activation, head, loss_history bits, forward bits)`, recorded from
    /// the nested-`Vec` implementation before the flat-buffer kernel.
    #[rustfmt::skip]
    const PINNED_BITS: [(Activation, Head, &[u64], &[u64]); 9] = [
        (Activation::Relu, Head::Classification { n_classes: 2 }, &[0x3fe39b4bb80b7cb7, 0x3fe1c9d24aa1f5e3, 0x3fe10b14bc654e8a], &[0x3fe64ef07428825f, 0x3fd3621f17aefb42, 0x3fe08eb2ac38012d, 0x3fdee29aa78ffda6, 0x3feec6d96b8ac939, 0x3fa3926947536c79]),
        (Activation::Relu, Head::Classification { n_classes: 3 }, &[0x3fffe5085961afbb, 0x3ff0cf9b3ae0744e, 0x3ff0c644fdb3ccb2], &[0x3fe0361807142187, 0x3fd52a44d6670ef3, 0x3fc4d31636e15bfd, 0x3fe0361807142187, 0x3fd52a44d6670ef3, 0x3fc4d31636e15bfd, 0x3fe01a3ab382df2e, 0x3fd5b0e4a8d2e387, 0x3fc4354be04ebc40]),
        (Activation::Relu, Head::Regression, &[0x3ffaef1e8dca309d, 0x3fe87c1f227dbe3d, 0x3fe8a99955ec9d2d], &[0x3feb6ab3ef9e12e8, 0x3fe2a1fd9059578a, 0xbffcea9d7eb084a6]),
        (Activation::Tanh, Head::Classification { n_classes: 2 }, &[0x3fe9007b1ce38b10, 0x3fe267afc414468a, 0x3fe1844abd40ed7f], &[0x3fe60a332fe3eff3, 0x3fd3eb99a0382019, 0x3fea92d1fc015343, 0x3fc5b4b80ffab2f3, 0x3fee8ad3df545a9a, 0x3fa752c20aba565e]),
        (Activation::Tanh, Head::Classification { n_classes: 3 }, &[0x3ff328d91b101c9d, 0x3fefa3079108d61c, 0x3fee5b399247c2e3], &[0x3fe5eb7bfcf36300, 0x3fc3921e98f20431, 0x3fc4bff173406fcc, 0x3fe00f62337d3dd0, 0x3fd242ecb3fb5555, 0x3fcb3c9dca145e15, 0x3fd1eb30993fc08f, 0x3fd6ea2f01da0d9a, 0x3fd72aa064e631d8]),
        (Activation::Tanh, Head::Regression, &[0x3fee445bb8d5df09, 0x3fe321ac4f771545, 0x3fdca7354d085789], &[0xbfd4267d1798d636, 0xbfd51c1d0a11fde2, 0xbfe7d23e6c93c535]),
        (Activation::Sigmoid, Head::Classification { n_classes: 2 }, &[0x3fe316fac8bd9a07, 0x3fe2c7779f445500, 0x3fe2de44e4490d37], &[0x3fe806ba82075b92, 0x3fcfe515f7e291b6, 0x3fe81acbdcda8ff5, 0x3fcf94d08c95c02f, 0x3fe8943a98e3ba56, 0x3fcdaf159c7116ab]),
        (Activation::Sigmoid, Head::Classification { n_classes: 3 }, &[0x3ff7efa5f99d0baa, 0x3ff2b006dea97f48, 0x3ff1122f1ff440ce], &[0x3fe1f8416cd7eb48, 0x3fd4ac087428a44a, 0x3fbd8dd2c89e149b, 0x3fe19c0e8a97c5f5, 0x3fd5874517361e50, 0x3fbd02774e69570e, 0x3fe16f418f899cdf, 0x3fd6767452f23ede, 0x3fbaac2237ea1d8d]),
        (Activation::Sigmoid, Head::Regression, &[0x3ff54b280e72901d, 0x3ff4b2d667358901, 0x3ff3a3d8fbb130bd], &[0xbfc15520733a6276, 0xbfc5decbaef6f0d4, 0xbfca281811236a11]),
    ];

    /// Training and inference are bit-identical to the recorded reference:
    /// no floating-point sum was reordered.
    #[test]
    fn training_and_inference_bits_are_pinned() {
        for (activation, head, loss, forward) in PINNED_BITS {
            let (l, f) = parity_bits(activation, head);
            assert_eq!(l, loss, "loss_history bits, {activation:?} {head:?}");
            assert_eq!(f, forward, "forward bits, {activation:?} {head:?}");
        }
    }

    #[test]
    fn activations_behave() {
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert_eq!(Activation::Relu.derivative_from_output(0.0), 0.0);
        assert_eq!(Activation::Relu.derivative_from_output(3.0), 1.0);
    }
}
