//! Neural-network layers over arena-backed flat parameter storage.
//!
//! Layers do **not** own their parameters. A [`Sequential`] owns two
//! [`ParamArena`]s — one for parameters, one for gradients — and passes each
//! layer its slice on every `forward`/`backward` call. The payoff is the view
//! a gradient-compression system wants: a whole model's parameters (and its
//! whole gradient) is *one contiguous slice*, so replica sync is a single
//! `copy_from_slice`, optimizers update in place, and collectives operate on
//! the full model in one pooled call instead of per-layer fragments.
//!
//! Construction still draws initial values inside each layer's constructor
//! (preserving the exact RNG consumption order of the per-layer storage era,
//! so model initialization is bitwise-identical); `Sequential::new` then
//! moves those values into the arena via [`Layer::take_init`].
//!
//! Correctness is guarded by finite-difference gradient checks in the test
//! module (the strongest test a hand-written backprop can have).

use gcs_tensor::matrix::{dense_forward_into, DenseScratch};
use gcs_tensor::{simd, ParamArena};

/// A differentiable layer viewing externally owned parameter storage.
pub trait Layer {
    /// Forward pass over a batch; caches whatever backward needs. `params`
    /// is this layer's slice of the model arena (`param_len()` values).
    fn forward(&mut self, input: &[f32], batch: usize, params: &[f32]) -> Vec<f32>;

    /// Backward pass: consumes `d(loss)/d(output)`, **accumulates** into
    /// `grads` (this layer's slice of the gradient arena), and returns
    /// `d(loss)/d(input)`.
    fn backward(
        &mut self,
        grad_out: &[f32],
        batch: usize,
        params: &[f32],
        grads: &mut [f32],
    ) -> Vec<f32>;

    /// Number of parameters this layer owns in the arena.
    fn param_len(&self) -> usize;

    /// Takes the initial parameter values drawn at construction time
    /// (consumed once by [`Sequential::new`] when filling the arena).
    fn take_init(&mut self) -> Vec<f32> {
        Vec::new()
    }

    /// Output features per sample given input features per sample.
    fn out_dim(&self, in_dim: usize) -> usize;

    /// The layer's flat-parameter layout (matrix vs vector segments), used
    /// by low-rank compression to find weight matrices. Defaults to one
    /// opaque vector segment.
    fn layout(&self) -> Vec<ParamSegment> {
        if self.param_len() == 0 {
            Vec::new()
        } else {
            vec![ParamSegment::Vector {
                len: self.param_len(),
            }]
        }
    }

    /// Deep copy of the layer (caches and dims; parameters live in the
    /// arena), boxed and `Send` so whole models can be replicated onto
    /// worker threads for parallel per-worker gradient computation.
    fn clone_layer(&self) -> Box<dyn Layer + Send>;
}

/// Fully connected layer `y = x W^T + b`, weights stored `[out × in]`.
///
/// The forward pass runs on `gcs_tensor`'s SIMD Dense kernel
/// ([`dense_forward_into`]) and the backward pass on [`simd::axpy`]; both
/// compute exactly the expressions of the plain loops, so their bits match
/// the scalar reference on every path.
#[derive(Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Initial `[weights (out*in) | bias (out)]`, consumed into the arena.
    init: Vec<f32>,
    cached_input: Vec<f32>,
    scratch: DenseScratch,
}

impl Dense {
    /// Creates a dense layer with Kaiming-uniform initialization.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl rand::Rng) -> Dense {
        let bound = (6.0 / in_dim as f32).sqrt();
        let mut init = Vec::with_capacity(out_dim * in_dim + out_dim);
        for _ in 0..out_dim * in_dim {
            init.push(rng.gen_range(-bound..bound));
        }
        init.extend(std::iter::repeat_n(0.0, out_dim));
        Dense {
            in_dim,
            out_dim,
            init,
            cached_input: Vec::new(),
            scratch: DenseScratch::new(),
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &[f32], batch: usize, params: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.in_dim, "Dense: bad input size");
        self.cached_input.clear();
        self.cached_input.extend_from_slice(input);
        let (w, b) = params.split_at(self.out_dim * self.in_dim);
        let mut out = vec![0.0f32; batch * self.out_dim];
        dense_forward_into(input, batch, self.in_dim, w, b, &mut out, &mut self.scratch);
        out
    }

    fn backward(
        &mut self,
        grad_out: &[f32],
        batch: usize,
        params: &[f32],
        grads: &mut [f32],
    ) -> Vec<f32> {
        assert_eq!(grad_out.len(), batch * self.out_dim, "Dense: bad grad size");
        let wlen = self.out_dim * self.in_dim;
        let mut grad_in = vec![0.0f32; batch * self.in_dim];
        for s in 0..batch {
            let x = &self.cached_input[s * self.in_dim..(s + 1) * self.in_dim];
            let gy = &grad_out[s * self.out_dim..(s + 1) * self.out_dim];
            let gx = &mut grad_in[s * self.in_dim..(s + 1) * self.in_dim];
            for (o, &g) in gy.iter().enumerate() {
                let wrow = o * self.in_dim..(o + 1) * self.in_dim;
                // dW[o][i] += g * x[i]; dx[i] += g * W[o][i]
                simd::axpy(g, x, &mut grads[wrow.clone()]);
                simd::axpy(g, &params[wrow], gx);
                grads[wlen + o] += g;
            }
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        self.out_dim * self.in_dim + self.out_dim
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, _in: usize) -> usize {
        self.out_dim
    }
    fn layout(&self) -> Vec<ParamSegment> {
        vec![
            ParamSegment::Matrix {
                rows: self.out_dim,
                cols: self.in_dim,
            },
            ParamSegment::Vector { len: self.out_dim },
        ]
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// Element-wise ReLU.
#[derive(Clone, Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU.
    pub fn new() -> Relu {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &[f32], _batch: usize, _params: &[f32]) -> Vec<f32> {
        self.mask = input.iter().map(|&x| x > 0.0).collect();
        input.iter().map(|&x| x.max(0.0)).collect()
    }
    fn backward(
        &mut self,
        grad_out: &[f32],
        _batch: usize,
        _params: &[f32],
        _grads: &mut [f32],
    ) -> Vec<f32> {
        grad_out
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect()
    }
    fn param_len(&self) -> usize {
        0
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// 3×3 same-padding convolution over `[C, H, W]` feature maps.
#[derive(Clone)]
pub struct Conv3x3 {
    in_ch: usize,
    out_ch: usize,
    h: usize,
    w: usize,
    /// Initial `[weights (out*in*9) | bias (out)]`, consumed into the arena.
    init: Vec<f32>,
    cached_input: Vec<f32>,
}

impl Conv3x3 {
    /// Creates the conv layer for `h × w` maps.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        h: usize,
        w: usize,
        rng: &mut impl rand::Rng,
    ) -> Conv3x3 {
        let fan_in = in_ch * 9;
        let bound = (6.0 / fan_in as f32).sqrt();
        let wlen = out_ch * in_ch * 9;
        let mut init = Vec::with_capacity(wlen + out_ch);
        for _ in 0..wlen {
            init.push(rng.gen_range(-bound..bound));
        }
        init.extend(std::iter::repeat_n(0.0, out_ch));
        Conv3x3 {
            in_ch,
            out_ch,
            h,
            w,
            init,
            cached_input: Vec::new(),
        }
    }

    #[inline]
    fn widx(&self, o: usize, c: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_ch + c) * 3 + ky) * 3 + kx
    }
}

impl Layer for Conv3x3 {
    fn forward(&mut self, input: &[f32], batch: usize, params: &[f32]) -> Vec<f32> {
        let (h, w) = (self.h, self.w);
        let in_sz = self.in_ch * h * w;
        assert_eq!(input.len(), batch * in_sz, "Conv3x3: bad input size");
        self.cached_input = input.to_vec();
        let wlen = self.out_ch * self.in_ch * 9;
        let mut out = vec![0.0f32; batch * self.out_ch * h * w];
        for s in 0..batch {
            let xin = &input[s * in_sz..(s + 1) * in_sz];
            for o in 0..self.out_ch {
                let bias = params[wlen + o];
                for y in 0..h {
                    for x in 0..w {
                        let mut acc = bias;
                        for c in 0..self.in_ch {
                            for ky in 0..3usize {
                                let sy = y + ky;
                                if sy < 1 || sy > h {
                                    continue;
                                }
                                let sy = sy - 1;
                                for kx in 0..3usize {
                                    let sx = x + kx;
                                    if sx < 1 || sx > w {
                                        continue;
                                    }
                                    let sx = sx - 1;
                                    acc += params[self.widx(o, c, ky, kx)]
                                        * xin[(c * h + sy) * w + sx];
                                }
                            }
                        }
                        out[((s * self.out_ch + o) * h + y) * w + x] = acc;
                    }
                }
            }
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &[f32],
        batch: usize,
        params: &[f32],
        grads: &mut [f32],
    ) -> Vec<f32> {
        let (h, w) = (self.h, self.w);
        let in_sz = self.in_ch * h * w;
        let out_sz = self.out_ch * h * w;
        assert_eq!(grad_out.len(), batch * out_sz, "Conv3x3: bad grad size");
        let wlen = self.out_ch * self.in_ch * 9;
        let mut grad_in = vec![0.0f32; batch * in_sz];
        for s in 0..batch {
            let xin = &self.cached_input[s * in_sz..(s + 1) * in_sz];
            let gout = &grad_out[s * out_sz..(s + 1) * out_sz];
            for o in 0..self.out_ch {
                for y in 0..h {
                    for x in 0..w {
                        let g = gout[(o * h + y) * w + x];
                        if g == 0.0 {
                            continue;
                        }
                        grads[wlen + o] += g;
                        for c in 0..self.in_ch {
                            for ky in 0..3usize {
                                let sy = y + ky;
                                if sy < 1 || sy > h {
                                    continue;
                                }
                                let sy = sy - 1;
                                for kx in 0..3usize {
                                    let sx = x + kx;
                                    if sx < 1 || sx > w {
                                        continue;
                                    }
                                    let sx = sx - 1;
                                    let wi = self.widx(o, c, ky, kx);
                                    grads[wi] += g * xin[(c * h + sy) * w + sx];
                                    grad_in[s * in_sz + (c * h + sy) * w + sx] += g * params[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        self.out_ch * self.in_ch * 9 + self.out_ch
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, _in: usize) -> usize {
        self.out_ch * self.h * self.w
    }
    fn layout(&self) -> Vec<ParamSegment> {
        vec![
            ParamSegment::Matrix {
                rows: self.out_ch,
                cols: self.in_ch * 9,
            },
            ParamSegment::Vector { len: self.out_ch },
        ]
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// 2×2 max pooling with stride 2 over `[C, H, W]` maps.
#[derive(Clone)]
pub struct MaxPool2 {
    ch: usize,
    h: usize,
    w: usize,
    argmax: Vec<usize>,
}

impl MaxPool2 {
    /// Creates the pool for `ch` channels of `h × w` maps (`h`, `w` even).
    ///
    /// # Panics
    /// Panics if `h` or `w` is odd.
    pub fn new(ch: usize, h: usize, w: usize) -> MaxPool2 {
        assert!(
            h.is_multiple_of(2) && w.is_multiple_of(2),
            "MaxPool2: dims must be even"
        );
        MaxPool2 {
            ch,
            h,
            w,
            argmax: Vec::new(),
        }
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, input: &[f32], batch: usize, _params: &[f32]) -> Vec<f32> {
        let (h, w) = (self.h, self.w);
        let (oh, ow) = (h / 2, w / 2);
        let in_sz = self.ch * h * w;
        assert_eq!(input.len(), batch * in_sz, "MaxPool2: bad input size");
        let mut out = vec![0.0f32; batch * self.ch * oh * ow];
        self.argmax = vec![0usize; out.len()];
        for s in 0..batch {
            for c in 0..self.ch {
                for y in 0..oh {
                    for x in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = s * in_sz + (c * h + 2 * y + dy) * w + 2 * x + dx;
                                if input[idx] > best {
                                    best = input[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((s * self.ch + c) * oh + y) * ow + x;
                        out[oidx] = best;
                        self.argmax[oidx] = best_idx;
                    }
                }
            }
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &[f32],
        batch: usize,
        _params: &[f32],
        _grads: &mut [f32],
    ) -> Vec<f32> {
        let in_sz = self.ch * self.h * self.w;
        let mut grad_in = vec![0.0f32; batch * in_sz];
        for (oidx, &g) in grad_out.iter().enumerate() {
            grad_in[self.argmax[oidx]] += g;
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        0
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim / 4
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// Parameter-free layer normalization over each sample's feature vector:
/// `y = (x − μ) / √(σ² + ε)`.
///
/// Besides being standard in transformer stacks, LayerNorm equalizes
/// activation scales — which is what gives BERT-style models their
/// *uniformly* hot gradient rows (all entries of a frequent token's
/// embedding/output row carry comparable gradient magnitude). That row-level
/// uniformity is the gradient structure TopKC's chunk selection exploits.
#[derive(Clone, Default)]
pub struct LayerNorm {
    cached_xhat: Vec<f32>,
    cached_inv_std: Vec<f32>,
    features: usize,
}

impl LayerNorm {
    /// Creates a LayerNorm over `features`-dimensional samples.
    pub fn new(features: usize) -> LayerNorm {
        LayerNorm {
            cached_xhat: Vec::new(),
            cached_inv_std: Vec::new(),
            features,
        }
    }

    const EPS: f32 = 1e-5;
}

impl Layer for LayerNorm {
    fn forward(&mut self, input: &[f32], batch: usize, _params: &[f32]) -> Vec<f32> {
        let f = self.features;
        assert_eq!(input.len(), batch * f, "LayerNorm: bad input size");
        let mut out = vec![0.0f32; input.len()];
        self.cached_xhat = vec![0.0; input.len()];
        self.cached_inv_std = vec![0.0; batch];
        for s in 0..batch {
            let x = &input[s * f..(s + 1) * f];
            let mean = x.iter().sum::<f32>() / f as f32;
            let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / f as f32;
            let inv = 1.0 / (var + Self::EPS).sqrt();
            self.cached_inv_std[s] = inv;
            for i in 0..f {
                let xhat = (x[i] - mean) * inv;
                self.cached_xhat[s * f + i] = xhat;
                out[s * f + i] = xhat;
            }
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &[f32],
        batch: usize,
        _params: &[f32],
        _grads: &mut [f32],
    ) -> Vec<f32> {
        let f = self.features;
        let mut grad_in = vec![0.0f32; grad_out.len()];
        for s in 0..batch {
            let g = &grad_out[s * f..(s + 1) * f];
            let xhat = &self.cached_xhat[s * f..(s + 1) * f];
            let inv = self.cached_inv_std[s];
            let mean_g = g.iter().sum::<f32>() / f as f32;
            let mean_gx = g.iter().zip(xhat).map(|(a, b)| a * b).sum::<f32>() / f as f32;
            for i in 0..f {
                grad_in[s * f + i] = inv * (g[i] - mean_g - xhat[i] * mean_gx);
            }
        }
        grad_in
    }

    fn param_len(&self) -> usize {
        0
    }
    fn out_dim(&self, in_dim: usize) -> usize {
        in_dim
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// Token embedding lookup: input is a batch of `ctx` token ids (as f32),
/// output is the concatenated embeddings `[batch × ctx·dim]`.
#[derive(Clone)]
pub struct Embedding {
    vocab: usize,
    dim: usize,
    ctx: usize,
    init: Vec<f32>,
    cached_ids: Vec<usize>,
}

impl Embedding {
    /// Creates an embedding table for `vocab` tokens of `dim` dimensions,
    /// consuming `ctx` tokens per sample.
    pub fn new(vocab: usize, dim: usize, ctx: usize, rng: &mut impl rand::Rng) -> Embedding {
        let init: Vec<f32> = (0..vocab * dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
        Embedding {
            vocab,
            dim,
            ctx,
            init,
            cached_ids: Vec::new(),
        }
    }
}

impl Layer for Embedding {
    fn forward(&mut self, input: &[f32], batch: usize, params: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), batch * self.ctx, "Embedding: bad input size");
        self.cached_ids = input
            .iter()
            .map(|&t| {
                let id = t as usize;
                assert!(id < self.vocab, "Embedding: token {id} out of vocab");
                id
            })
            .collect();
        let mut out = vec![0.0f32; batch * self.ctx * self.dim];
        for (slot, &id) in self.cached_ids.iter().enumerate() {
            out[slot * self.dim..(slot + 1) * self.dim]
                .copy_from_slice(&params[id * self.dim..(id + 1) * self.dim]);
        }
        out
    }

    fn backward(
        &mut self,
        grad_out: &[f32],
        _batch: usize,
        _params: &[f32],
        grads: &mut [f32],
    ) -> Vec<f32> {
        for (slot, &id) in self.cached_ids.iter().enumerate() {
            let g = &grad_out[slot * self.dim..(slot + 1) * self.dim];
            for (gi, gv) in grads[id * self.dim..(id + 1) * self.dim].iter_mut().zip(g) {
                *gi += gv;
            }
        }
        // Token ids have no gradient.
        vec![0.0; self.cached_ids.len()]
    }

    fn param_len(&self) -> usize {
        self.vocab * self.dim
    }
    fn take_init(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.init)
    }
    fn out_dim(&self, _in: usize) -> usize {
        self.ctx * self.dim
    }
    fn layout(&self) -> Vec<ParamSegment> {
        vec![ParamSegment::Matrix {
            rows: self.vocab,
            cols: self.dim,
        }]
    }
    fn clone_layer(&self) -> Box<dyn Layer + Send> {
        Box::new(self.clone())
    }
}

/// A sequential stack of layers over one parameter arena and one gradient
/// arena: layer `i` views `params.layer(i)` / `grads.layer(i)`, and the
/// whole model's parameters and gradient are each a single contiguous slice.
pub struct Sequential {
    layers: Vec<Box<dyn Layer + Send>>,
    params: ParamArena,
    grads: ParamArena,
}

impl Clone for Sequential {
    fn clone(&self) -> Sequential {
        Sequential {
            layers: self.layers.iter().map(|l| l.clone_layer()).collect(),
            params: self.params.clone(),
            grads: self.grads.clone(),
        }
    }
}

impl Sequential {
    /// Builds from boxed layers, moving each layer's construction-time
    /// initial values into the parameter arena.
    pub fn new(mut layers: Vec<Box<dyn Layer + Send>>) -> Sequential {
        let lens: Vec<usize> = layers.iter().map(|l| l.param_len()).collect();
        let mut params = ParamArena::from_layer_lens(&lens);
        let grads = ParamArena::from_layer_lens(&lens);
        for (i, l) in layers.iter_mut().enumerate() {
            let init = l.take_init();
            assert_eq!(
                init.len(),
                lens[i],
                "Sequential: layer {i} init/param_len mismatch"
            );
            params.layer_mut(i).copy_from_slice(&init);
        }
        Sequential {
            layers,
            params,
            grads,
        }
    }

    /// Forward through all layers.
    pub fn forward(&mut self, input: &[f32], batch: usize) -> Vec<f32> {
        let mut act: Option<Vec<f32>> = None;
        for (i, l) in self.layers.iter_mut().enumerate() {
            let x = act.as_deref().unwrap_or(input);
            act = Some(l.forward(x, batch, self.params.layer(i)));
        }
        act.unwrap_or_else(|| input.to_vec())
    }

    /// Backward through all layers (after a forward pass).
    pub fn backward(&mut self, grad_out: &[f32], batch: usize) {
        let Sequential {
            layers,
            params,
            grads,
        } = self;
        let mut g = grad_out.to_vec();
        for (i, l) in layers.iter_mut().enumerate().rev() {
            g = l.backward(&g, batch, params.layer(i), grads.layer_mut(i));
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The whole model's parameters as one contiguous slice.
    pub fn params_flat(&self) -> &[f32] {
        self.params.as_slice()
    }

    /// Mutable whole-model parameter slice (in-place optimizer updates).
    pub fn params_flat_mut(&mut self) -> &mut [f32] {
        self.params.as_mut_slice()
    }

    /// The whole model's accumulated gradient as one contiguous slice.
    pub fn grads_flat(&self) -> &[f32] {
        self.grads.as_slice()
    }

    /// The parameter arena (per-layer offsets included).
    pub fn param_arena(&self) -> &ParamArena {
        &self.params
    }

    /// The gradient arena (per-layer offsets included).
    pub fn grad_arena(&self) -> &ParamArena {
        &self.grads
    }

    /// Copies all parameters into one flat vector.
    pub fn flat_params(&self) -> Vec<f32> {
        self.params_flat().to_vec()
    }

    /// Overwrites all parameters from a flat vector — one `copy_from_slice`
    /// over the arena.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        self.params.copy_from(flat);
    }

    /// Copies all gradients into one flat vector.
    pub fn flat_grads(&self) -> Vec<f32> {
        self.grads_flat().to_vec()
    }

    /// Adds `delta` to the parameters (`params += delta`), one pass over the
    /// flat arena.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn apply_flat_delta(&mut self, delta: &[f32]) {
        let p = self.params.as_mut_slice();
        assert_eq!(delta.len(), p.len(), "apply_flat_delta: size");
        for (pi, &di) in p.iter_mut().zip(delta) {
            *pi += di;
        }
    }

    /// Zeroes all gradients (one `fill` over the flat arena).
    pub fn zero_grads(&mut self) {
        self.grads.zero();
    }

    /// Per-layer parameter shapes as `(rows, cols)` for low-rank schemes:
    /// weight matrices only (dense `[out, in]`, conv `[out, in·9]`,
    /// embedding `[vocab, dim]`); biases excluded.
    pub fn matrix_shapes(&self) -> Vec<(usize, usize)> {
        // The flat layout interleaves weights and biases per layer; callers
        // that need exact offsets should use `param_layout`.
        self.param_layout()
            .into_iter()
            .filter_map(|seg| match seg {
                ParamSegment::Matrix { rows, cols } => Some((rows, cols)),
                ParamSegment::Vector { .. } => None,
            })
            .collect()
    }

    /// The exact flat-parameter layout: a sequence of matrix and vector
    /// segments whose sizes sum to `param_count()`.
    pub fn param_layout(&self) -> Vec<ParamSegment> {
        let mut segs = Vec::new();
        for l in &self.layers {
            for s in l.layout() {
                segs.push(s);
            }
        }
        segs
    }
}

/// One contiguous segment of the flat parameter vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamSegment {
    /// A weight matrix of `rows × cols` values.
    Matrix {
        /// Output dimension.
        rows: usize,
        /// Input dimension.
        cols: usize,
    },
    /// A non-matrix parameter (bias etc.) of `len` values.
    Vector {
        /// Number of values.
        len: usize,
    },
}

impl ParamSegment {
    /// Values in this segment.
    pub fn len(&self) -> usize {
        match *self {
            ParamSegment::Matrix { rows, cols } => rows * cols,
            ParamSegment::Vector { len } => len,
        }
    }

    /// True if the segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a layer + squared-error loss,
    /// with the parameter/gradient storage held externally (as the arena
    /// does in a real model).
    fn grad_check(layer: &mut dyn Layer, input: &[f32], batch: usize, tol: f32) {
        let mut params = layer.take_init();
        assert_eq!(params.len(), layer.param_len());
        let mut grads = vec![0.0f32; params.len()];
        // Loss = 0.5 * sum(out^2); dLoss/dout = out.
        let out = layer.forward(input, batch, &params);
        let _ = layer.backward(&out, batch, &params, &mut grads);
        let eps = 1e-3f32;
        let n_params = params.len();
        for pi in (0..n_params).step_by((n_params / 24).max(1)) {
            let orig = params[pi];
            params[pi] = orig + eps;
            let lp: f32 = layer
                .forward(input, batch, &params)
                .iter()
                .map(|x| 0.5 * x * x)
                .sum();
            params[pi] = orig - eps;
            let lm: f32 = layer
                .forward(input, batch, &params)
                .iter()
                .map(|x| 0.5 * x * x)
                .sum();
            params[pi] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let a = grads[pi];
            let denom = a.abs().max(numeric.abs()).max(1.0);
            assert!(
                (a - numeric).abs() / denom < tol,
                "param {pi}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn dense_gradient_check() {
        let mut r = rng();
        let mut layer = Dense::new(5, 4, &mut r);
        let input: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).sin()).collect();
        grad_check(&mut layer, &input, 2, 2e-2);
    }

    #[test]
    fn conv_gradient_check() {
        let mut r = rng();
        let mut layer = Conv3x3::new(2, 3, 4, 4, &mut r);
        let input: Vec<f32> = (0..2 * 2 * 16).map(|i| (i as f32 * 0.31).cos()).collect();
        grad_check(&mut layer, &input, 2, 2e-2);
    }

    #[test]
    fn embedding_gradient_check() {
        let mut r = rng();
        let mut layer = Embedding::new(7, 3, 4, &mut r);
        let input = vec![0.0f32, 3.0, 6.0, 1.0, 2.0, 2.0, 5.0, 4.0];
        grad_check(&mut layer, &input, 2, 2e-2);
    }

    #[test]
    fn layernorm_normalizes_and_gradient_checks() {
        let mut l = LayerNorm::new(4);
        let out = l.forward(&[1.0, 2.0, 3.0, 4.0], 1, &[]);
        let mean: f32 = out.iter().sum::<f32>() / 4.0;
        let var: f32 = out.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5 && (var - 1.0).abs() < 1e-3);

        // Input-gradient finite-difference check under loss = 0.5*sum((y*w)^2)
        // with asymmetric weights (plain sum-of-squares has zero gradient
        // through a normalizer by construction).
        let input = vec![0.5f32, -1.0, 2.0, 0.3];
        let w = [1.0f32, 2.0, -1.0, 0.5];
        let loss = |l: &mut LayerNorm, x: &[f32]| -> f32 {
            l.forward(x, 1, &[])
                .iter()
                .zip(&w)
                .map(|(y, wi)| 0.5 * (y * wi) * (y * wi))
                .sum()
        };
        let y = l.forward(&input, 1, &[]);
        let gy: Vec<f32> = y.iter().zip(&w).map(|(yi, wi)| yi * wi * wi).collect();
        let gin = l.backward(&gy, 1, &[], &mut []);
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = input.clone();
            xp[i] += eps;
            let mut xm = input.clone();
            xm[i] -= eps;
            let numeric = (loss(&mut l, &xp) - loss(&mut l, &xm)) / (2.0 * eps);
            assert!(
                (gin[i] - numeric).abs() < 2e-2 * numeric.abs().max(1.0),
                "input {i}: {} vs {numeric}",
                gin[i]
            );
        }
    }

    #[test]
    fn relu_masks_gradient() {
        let mut l = Relu::new();
        let out = l.forward(&[-1.0, 2.0, 0.0, 3.0], 1, &[]);
        assert_eq!(out, vec![0.0, 2.0, 0.0, 3.0]);
        let gin = l.backward(&[1.0, 1.0, 1.0, 1.0], 1, &[], &mut []);
        assert_eq!(gin, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut l = MaxPool2::new(1, 2, 2);
        let out = l.forward(&[1.0, 5.0, 2.0, 3.0], 1, &[]);
        assert_eq!(out, vec![5.0]);
        let gin = l.backward(&[7.0], 1, &[], &mut []);
        assert_eq!(gin, vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn dense_input_gradient_check() {
        // Check d(loss)/d(input) too, via finite differences on the input.
        let mut r = rng();
        let mut layer = Dense::new(4, 3, &mut r);
        let params = layer.take_init();
        let mut grads = vec![0.0f32; params.len()];
        let input: Vec<f32> = (0..4).map(|i| (i as f32 * 0.9).sin()).collect();
        let out = layer.forward(&input, 1, &params);
        let gin = layer.backward(&out, 1, &params, &mut grads);
        let eps = 1e-3;
        for i in 0..4 {
            let mut ip = input.clone();
            ip[i] += eps;
            let lp: f32 = layer
                .forward(&ip, 1, &params)
                .iter()
                .map(|x| 0.5 * x * x)
                .sum();
            let mut im = input.clone();
            im[i] -= eps;
            let lm: f32 = layer
                .forward(&im, 1, &params)
                .iter()
                .map(|x| 0.5 * x * x)
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (gin[i] - numeric).abs() / numeric.abs().max(1.0) < 2e-2,
                "input {i}: {} vs {numeric}",
                gin[i]
            );
        }
    }

    #[test]
    fn sequential_flat_round_trip() {
        let mut r = rng();
        let mut seq = Sequential::new(vec![
            Box::new(Dense::new(6, 5, &mut r)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, &mut r)),
        ]);
        let p = seq.flat_params();
        assert_eq!(p.len(), 6 * 5 + 5 + 5 * 2 + 2);
        let mut p2 = p.clone();
        p2[0] = 42.0;
        seq.set_flat_params(&p2);
        assert_eq!(seq.flat_params()[0], 42.0);
        seq.apply_flat_delta(&vec![1.0; p.len()]);
        assert_eq!(seq.flat_params()[0], 43.0);
    }

    #[test]
    fn arena_layers_are_views_into_the_flat_params() {
        let mut r = rng();
        let seq = Sequential::new(vec![
            Box::new(Dense::new(3, 2, &mut r)),
            Box::new(Relu::new()),
            Box::new(Dense::new(2, 4, &mut r)),
        ]);
        let arena = seq.param_arena();
        assert_eq!(arena.n_layers(), 3);
        assert_eq!(arena.layer_len(0), 3 * 2 + 2);
        assert_eq!(arena.layer_len(1), 0);
        assert_eq!(arena.layer_len(2), 2 * 4 + 4);
        // Layer slices concatenate to exactly the flat view, in order.
        let flat = seq.params_flat();
        assert_eq!(&flat[..arena.layer_len(0)], arena.layer(0));
        assert_eq!(&flat[arena.offset_of(2)..], arena.layer(2));
        assert_eq!(arena.len(), flat.len());
    }

    #[test]
    fn sequential_trains_a_linear_map() {
        // One dense layer can fit y = 2x exactly with SGD on MSE.
        let mut r = rng();
        let mut seq = Sequential::new(vec![Box::new(Dense::new(1, 1, &mut r))]);
        for _ in 0..300 {
            let x = vec![0.5f32, -1.0, 2.0];
            let y = seq.forward(&x, 3);
            let target: Vec<f32> = x.iter().map(|v| 2.0 * v).collect();
            let grad: Vec<f32> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
            seq.zero_grads();
            seq.backward(&grad, 3);
            let g = seq.flat_grads();
            let delta: Vec<f32> = g.iter().map(|v| -0.05 * v).collect();
            seq.apply_flat_delta(&delta);
        }
        let out = seq.forward(&[1.0], 1);
        assert!((out[0] - 2.0).abs() < 0.05, "learned {}", out[0]);
    }
}
