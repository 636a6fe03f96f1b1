//! Convolution and pooling layers, and the im2col lowering that maps
//! convolutions onto matrix-vector multiplication (how ISAAC-class
//! accelerators execute them).

use std::any::Any;

use rand::Rng;

use crate::{Layer, Tensor};

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Zero padding on each side.
    pub padding: usize,
    /// Input height and width.
    pub in_hw: (usize, usize),
}

impl ConvGeometry {
    /// Output height and width (stride 1).
    pub fn out_hw(&self) -> (usize, usize) {
        (
            self.in_hw.0 + 2 * self.padding + 1 - self.kernel,
            self.in_hw.1 + 2 * self.padding + 1 - self.kernel,
        )
    }

    /// Number of columns of the im2col patch matrix:
    /// `in_channels · kernel²`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Lowers one `[C, H, W]` image (flat slice) to its im2col patch matrix
/// `[out_h·out_w, C·k·k]`.
///
/// Row `p` of the result is the receptive field of output pixel `p`;
/// multiplying by the `[out_channels, C·k·k]` filter matrix computes the
/// convolution as a plain MVM.
pub fn im2col(image: &[f32], geo: &ConvGeometry) -> Tensor {
    let (h, w) = geo.in_hw;
    assert_eq!(image.len(), geo.in_channels * h * w, "image size mismatch");
    let (oh, ow) = geo.out_hw();
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let mut out = Tensor::zeros(vec![oh * ow, geo.patch_len()]);
    for oy in 0..oh {
        for ox in 0..ow {
            let row = oy * ow + ox;
            for c in 0..geo.in_channels {
                for ky in 0..k {
                    for kx in 0..k {
                        let iy = oy as isize + ky as isize - pad;
                        let ix = ox as isize + kx as isize - pad;
                        let col = c * k * k + ky * k + kx;
                        let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                            image[c * h * w + iy as usize * w + ix as usize]
                        } else {
                            0.0
                        };
                        *out.at2_mut(row, col) = v;
                    }
                }
            }
        }
    }
    out
}

/// Writes row `p` of the [`im2col`] patch matrix into `out` without
/// materialising the full matrix.
///
/// `out` is cleared and refilled with the `patch_len()` receptive-field
/// values of output pixel `p`, identical to `im2col(image, geo).at2(p, ..)`.
/// The quantized inference path extracts patches one at a time through
/// this function so that a convolution needs only one patch-sized buffer
/// rather than an `[out_h·out_w, C·k·k]` tensor per call.
///
/// # Panics
///
/// Panics if the image does not match the geometry or `p` is out of
/// range.
pub fn im2col_patch_into(image: &[f32], geo: &ConvGeometry, p: usize, out: &mut Vec<f32>) {
    let (h, w) = geo.in_hw;
    assert_eq!(image.len(), geo.in_channels * h * w, "image size mismatch");
    let (oh, ow) = geo.out_hw();
    assert!(p < oh * ow, "patch index {p} out of range");
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let (oy, ox) = (p / ow, p % ow);
    out.clear();
    for c in 0..geo.in_channels {
        for ky in 0..k {
            for kx in 0..k {
                let iy = oy as isize + ky as isize - pad;
                let ix = ox as isize + kx as isize - pad;
                let v = if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                    image[c * h * w + iy as usize * w + ix as usize]
                } else {
                    0.0
                };
                out.push(v);
            }
        }
    }
}

/// A stride-1 2-D convolution layer.
///
/// Both forward and backward are implemented via im2col so that training
/// exercises the exact lowering the accelerator uses at inference.
#[derive(Debug, Clone)]
pub struct Conv2d {
    geo: ConvGeometry,
    /// Filter matrix `[out_channels, in_channels·k·k]`.
    weights: Tensor,
    bias: Tensor,
    grad_w: Tensor,
    grad_b: Tensor,
    cached_patches: Vec<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized filters.
    pub fn new<R: Rng + ?Sized>(geo: ConvGeometry, rng: &mut R) -> Conv2d {
        let fan_in = geo.patch_len();
        let scale = (2.0 / fan_in as f32).sqrt();
        let data = (0..geo.out_channels * fan_in)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Conv2d {
            geo,
            weights: Tensor::from_vec(vec![geo.out_channels, fan_in], data),
            bias: Tensor::zeros(vec![geo.out_channels]),
            grad_w: Tensor::zeros(vec![geo.out_channels, fan_in]),
            grad_b: Tensor::zeros(vec![geo.out_channels]),
            cached_patches: Vec::new(),
        }
    }

    /// The geometry.
    pub fn geometry(&self) -> ConvGeometry {
        self.geo
    }

    /// The filter matrix `[out_channels, in_channels·k·k]` — the weight
    /// matrix the accelerator maps to crossbars.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let batch = input.shape()[0];
        let (h, w) = self.geo.in_hw;
        let per_image = self.geo.in_channels * h * w;
        assert_eq!(
            input.len(),
            batch * per_image,
            "input does not match conv geometry"
        );
        let (oh, ow) = self.geo.out_hw();
        let mut out = Tensor::zeros(vec![batch, self.geo.out_channels, oh, ow]);
        if train {
            self.cached_patches.clear();
        }
        for b in 0..batch {
            let image = &input.data()[b * per_image..(b + 1) * per_image];
            let patches = im2col(image, &self.geo);
            // [oh·ow, patch] × [out_c, patch]ᵀ → [oh·ow, out_c]
            let conv = patches.matmul_transpose(&self.weights);
            let out_data = out.data_mut();
            for p in 0..oh * ow {
                for c in 0..self.geo.out_channels {
                    out_data[b * self.geo.out_channels * oh * ow + c * oh * ow + p] =
                        conv.at2(p, c) + self.bias.data()[c];
                }
            }
            if train {
                self.cached_patches.push(patches);
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let batch = grad_out.shape()[0];
        let (oh, ow) = self.geo.out_hw();
        let (h, w) = self.geo.in_hw;
        let k = self.geo.kernel;
        let pad = self.geo.padding as isize;
        let per_image = self.geo.in_channels * h * w;
        let mut grad_in = Tensor::zeros(vec![batch, self.geo.in_channels, h, w]);

        for b in 0..batch {
            let patches = &self.cached_patches[b];
            // Reassemble grad_out for this image as [oh·ow, out_c].
            let mut g = Tensor::zeros(vec![oh * ow, self.geo.out_channels]);
            for c in 0..self.geo.out_channels {
                for p in 0..oh * ow {
                    *g.at2_mut(p, c) =
                        grad_out.data()[b * self.geo.out_channels * oh * ow + c * oh * ow + p];
                }
            }
            // dW += gᵀ · patches.
            let gw = g.transpose_matmul(patches);
            for (acc, &v) in self.grad_w.data_mut().iter_mut().zip(gw.data()) {
                *acc += v;
            }
            // db += column sums of g.
            for c in 0..self.geo.out_channels {
                let mut s = 0.0;
                for p in 0..oh * ow {
                    s += g.at2(p, c);
                }
                self.grad_b.data_mut()[c] += s;
            }
            // dPatches = g · W, then col2im scatter.
            let dp = g.matmul(&self.weights);
            let gi = &mut grad_in.data_mut()[b * per_image..(b + 1) * per_image];
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = oy * ow + ox;
                    for c in 0..self.geo.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy as isize + ky as isize - pad;
                                let ix = ox as isize + kx as isize - pad;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    let col = c * k * k + ky * k + kx;
                                    gi[c * h * w + iy as usize * w + ix as usize] +=
                                        dp.at2(row, col);
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }

    fn update(&mut self, lr: f32) {
        for (w, g) in self
            .weights
            .data_mut()
            .iter_mut()
            .zip(self.grad_w.data_mut())
        {
            *w -= lr * *g;
            *g = 0.0;
        }
        for (b, g) in self.bias.data_mut().iter_mut().zip(self.grad_b.data_mut()) {
            *b -= lr * *g;
            *g = 0.0;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weights, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weights, &mut self.bias]
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Clone)]
pub struct MaxPool2 {
    /// `(channels, height, width)` of the input.
    in_shape: (usize, usize, usize),
    argmax: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a pool layer for `[batch, c, h, w]` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `h` or `w` is odd.
    pub fn new(channels: usize, h: usize, w: usize) -> MaxPool2 {
        assert!(h % 2 == 0 && w % 2 == 0, "pooling needs even dimensions");
        MaxPool2 {
            in_shape: (channels, h, w),
            argmax: Vec::new(),
        }
    }

    /// Output `(channels, height, width)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        let (c, h, w) = self.in_shape;
        (c, h / 2, w / 2)
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (c, h, w) = self.in_shape;
        let batch = input.shape()[0];
        assert_eq!(input.len(), batch * c * h * w, "pool input shape mismatch");
        let (oc, oh, ow) = self.out_shape();
        let mut out = Tensor::zeros(vec![batch, oc, oh, ow]);
        if train {
            self.argmax = vec![0; batch * oc * oh * ow];
        }
        for b in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let iy = oy * 2 + dy;
                                let ix = ox * 2 + dx;
                                let idx = ((b * c + ch) * h + iy) * w + ix;
                                let v = input.data()[idx];
                                if v > best {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = ((b * oc + ch) * oh + oy) * ow + ox;
                        out.data_mut()[out_idx] = best;
                        if train {
                            self.argmax[out_idx] = best_idx;
                        }
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (c, h, w) = self.in_shape;
        let batch = grad_out.shape()[0];
        let mut grad_in = Tensor::zeros(vec![batch, c, h, w]);
        for (out_idx, &in_idx) in self.argmax.iter().enumerate() {
            grad_in.data_mut()[in_idx] += grad_out.data()[out_idx];
        }
        grad_in
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn name(&self) -> &'static str {
        "maxpool2"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::softmax_cross_entropy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(21)
    }

    fn small_geo() -> ConvGeometry {
        ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            padding: 0,
            in_hw: (4, 4),
        }
    }

    #[test]
    fn geometry_output_sizes() {
        assert_eq!(small_geo().out_hw(), (2, 2));
        let padded = ConvGeometry {
            padding: 2,
            kernel: 5,
            in_hw: (28, 28),
            in_channels: 1,
            out_channels: 6,
        };
        assert_eq!(padded.out_hw(), (28, 28));
        assert_eq!(padded.patch_len(), 25);
    }

    #[test]
    fn im2col_identity_kernel() {
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            padding: 0,
            in_hw: (2, 2),
        };
        let patches = im2col(&[1., 2., 3., 4.], &geo);
        assert_eq!(patches.shape(), &[4, 1]);
        assert_eq!(patches.data(), &[1., 2., 3., 4.]);
    }

    #[test]
    fn conv_known_filter() {
        let mut rng = rng();
        let mut conv = Conv2d::new(small_geo(), &mut rng);
        // Sum filter: all ones.
        conv.params_mut()[0].data_mut().fill(1.0);
        conv.params_mut()[1].data_mut().fill(0.0);
        let img: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let x = Tensor::from_vec(vec![1, 1, 4, 4], img);
        let y = conv.forward(&x, false);
        // Top-left 3×3 window sum: 0+1+2+4+5+6+8+9+10 = 45.
        assert_eq!(y.data()[0], 45.0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
    }

    #[test]
    fn conv_padding_preserves_size() {
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 2,
            kernel: 3,
            padding: 1,
            in_hw: (5, 5),
        };
        let mut rng = rng();
        let mut conv = Conv2d::new(geo, &mut rng);
        let x = Tensor::zeros(vec![2, 1, 5, 5]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 2, 5, 5]);
    }

    #[test]
    fn conv_gradient_check() {
        let mut rng = rng();
        let geo = ConvGeometry {
            in_channels: 2,
            out_channels: 2,
            kernel: 2,
            padding: 1,
            in_hw: (3, 3),
        };
        let mut conv = Conv2d::new(geo, &mut rng);
        let x = Tensor::from_vec(
            vec![1, 2, 3, 3],
            (0..18).map(|i| (i as f32 * 0.13).sin()).collect(),
        );
        let labels = vec![1usize];
        let (oh, ow) = geo.out_hw();
        let flat = geo.out_channels * oh * ow;

        let loss_of = |conv: &mut Conv2d, x: &Tensor| {
            let y = conv.forward(x, true);
            let logits = y.reshape(vec![1, flat]);
            softmax_cross_entropy(&logits, &labels).0
        };

        let y = conv.forward(&x, true);
        let logits = y.reshape(vec![1, flat]);
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let grad = grad.reshape(vec![1, geo.out_channels, oh, ow]);
        let grad_in = conv.backward(&grad);

        let eps = 1e-2;
        for check_idx in [0usize, 7, 17] {
            let mut xp = x.clone();
            xp.data_mut()[check_idx] += eps;
            let lp = loss_of(&mut conv, &xp);
            xp.data_mut()[check_idx] -= 2.0 * eps;
            let lm = loss_of(&mut conv, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad_in.data()[check_idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "idx {check_idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut pool = MaxPool2::new(1, 4, 4);
        let data: Vec<f32> = vec![
            1., 2., 5., 3., //
            4., 0., 1., 1., //
            7., 2., 9., 8., //
            1., 6., 2., 0.,
        ];
        let x = Tensor::from_vec(vec![1, 1, 4, 4], data);
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[4., 5., 7., 9.]);
        let g = pool.backward(&Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 1., 1., 1.]));
        // Gradient routed only to the argmax positions.
        assert_eq!(g.data()[4], 1.0); // the 4
        assert_eq!(g.data()[2], 1.0); // the 5
        assert_eq!(g.data()[8], 1.0); // the 7
        assert_eq!(g.data()[10], 1.0); // the 9
        assert_eq!(g.data().iter().sum::<f32>(), 4.0);
    }

    #[test]
    fn conv_trains_on_toy_task() {
        // Distinguish a vertical from a horizontal bar.
        let mut rng = rng();
        let geo = ConvGeometry {
            in_channels: 1,
            out_channels: 4,
            kernel: 3,
            padding: 0,
            in_hw: (6, 6),
        };
        let mut conv = Conv2d::new(geo, &mut rng);
        let (oh, ow) = geo.out_hw();
        let flat = 4 * oh * ow;
        let mut dense = crate::Dense::new(flat, 2, &mut rng);

        let mut vert = vec![0.0f32; 36];
        let mut horiz = vec![0.0f32; 36];
        for i in 0..6 {
            vert[i * 6 + 2] = 1.0;
            horiz[2 * 6 + i] = 1.0;
        }
        let x = Tensor::from_vec(vec![2, 1, 6, 6], [vert, horiz].concat());
        let labels = vec![0usize, 1];

        let mut last = f32::INFINITY;
        for _ in 0..60 {
            let h = conv.forward(&x, true);
            let hf = h.clone().reshape(vec![2, flat]);
            let logits = dense.forward(&hf, true);
            let (loss, grad) = softmax_cross_entropy(&logits, &labels);
            let gd = dense.backward(&grad);
            conv.backward(&gd.reshape(vec![2, 4, oh, ow]));
            dense.update(0.1);
            conv.update(0.1);
            last = loss;
        }
        assert!(last < 0.1, "loss {last}");
    }
}
