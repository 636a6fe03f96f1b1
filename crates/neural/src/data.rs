//! Procedural datasets.
//!
//! The environment has no access to MNIST or ILSVRC-2012 downloads, so
//! the workloads are *synthetic stand-ins with the same shape* (see
//! DESIGN.md §3):
//!
//! - [`digits`] — 28×28 grayscale images of ten stroke-rendered digit
//!   classes with random affine jitter and pixel noise. Table II's
//!   networks train to the paper's software-baseline regime (~1–2 %
//!   misclassification), so the accuracy *deltas* under analog noise —
//!   the quantity the paper reports — are preserved.
//! - [`shapes`] — small RGB images of shape × texture combinations with
//!   tunable difficulty, standing in for ILSVRC in the AlexNet-proxy
//!   experiment (Table III), where the software baseline itself sits
//!   near 43 % top-1 misclassification.

use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::Tensor;

/// A labeled image dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Images, `[n, channels, height, width]`.
    pub images: Tensor,
    /// One class label per image.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Flat pixel slice of image `i`.
    pub fn image(&self, i: usize) -> &[f32] {
        let per = self.images.len() / self.len();
        &self.images.data()[i * per..(i + 1) * per]
    }
}

/// Seven-segment strokes per digit, as indices into [`SEGMENTS`].
const DIGIT_SEGMENTS: [&[usize]; 10] = [
    &[0, 1, 2, 3, 4, 5],    // 0
    &[1, 2],                // 1
    &[0, 1, 6, 4, 3],       // 2
    &[0, 1, 6, 2, 3],       // 3
    &[5, 6, 1, 2],          // 4
    &[0, 5, 6, 2, 3],       // 5
    &[0, 5, 6, 4, 2, 3],    // 6
    &[0, 1, 2],             // 7
    &[0, 1, 2, 3, 4, 5, 6], // 8
    &[0, 1, 2, 3, 5, 6],    // 9
];

/// Segment endpoints in glyph space (x right, y down, unit box).
const SEGMENTS: [((f32, f32), (f32, f32)); 7] = [
    ((0.25, 0.12), (0.75, 0.12)), // 0: top
    ((0.75, 0.12), (0.75, 0.50)), // 1: top right
    ((0.75, 0.50), (0.75, 0.88)), // 2: bottom right
    ((0.25, 0.88), (0.75, 0.88)), // 3: bottom
    ((0.25, 0.50), (0.25, 0.88)), // 4: bottom left
    ((0.25, 0.12), (0.25, 0.50)), // 5: top left
    ((0.25, 0.50), (0.75, 0.50)), // 6: middle
];

/// Distance from point `p` to segment `(a, b)`.
fn segment_distance(p: (f32, f32), a: (f32, f32), b: (f32, f32)) -> f32 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let (dx, dy) = (bx - ax, by - ay);
    let len2 = dx * dx + dy * dy;
    let t = if len2 == 0.0 {
        0.0
    } else {
        (((px - ax) * dx + (py - ay) * dy) / len2).clamp(0.0, 1.0)
    };
    let (cx, cy) = (ax + t * dx, ay + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

/// Renders one jittered digit into a 28×28 buffer.
fn render_digit<R: Rng + ?Sized>(digit: usize, rng: &mut R, noise: f32) -> Vec<f32> {
    const SIZE: usize = 28;
    let angle: f32 = rng.gen_range(-0.34..0.34);
    let scale: f32 = rng.gen_range(0.70..1.18);
    let tx: f32 = rng.gen_range(-0.12..0.12);
    let ty: f32 = rng.gen_range(-0.12..0.12);
    let thickness: f32 = rng.gen_range(0.035..0.085);
    let fade_segment: usize = rng.gen_range(0..DIGIT_SEGMENTS[digit].len());
    let fade_strength: f32 = if rng.gen::<f32>() < 0.18 {
        rng.gen_range(0.40..0.85)
    } else {
        1.0
    };
    let (sin, cos) = angle.sin_cos();

    let mut img = vec![0.0f32; SIZE * SIZE];
    for y in 0..SIZE {
        for x in 0..SIZE {
            // Map pixel to glyph space through the inverse affine.
            let u = (x as f32 + 0.5) / SIZE as f32 - 0.5 - tx;
            let v = (y as f32 + 0.5) / SIZE as f32 - 0.5 - ty;
            let gu = (u * cos + v * sin) / scale + 0.5;
            let gv = (-u * sin + v * cos) / scale + 0.5;
            let mut intensity: f32 = 0.0;
            for (k, &seg) in DIGIT_SEGMENTS[digit].iter().enumerate() {
                let (a, b) = SEGMENTS[seg];
                let d = segment_distance((gu, gv), a, b);
                let mut level = (1.0 - (d / thickness)).clamp(0.0, 1.0);
                // Fade one stroke per glyph, keyed off the jitter, so
                // classes genuinely overlap (a faded-middle 8 looks like
                // a 0, a faded-top 9 like a 4, …).
                if k == fade_segment {
                    level *= fade_strength;
                }
                intensity = intensity.max(level);
            }
            let noisy = intensity + noise * (rng.gen::<f32>() - 0.5);
            img[y * SIZE + x] = noisy.clamp(0.0, 1.0);
        }
    }
    img
}

/// Generates `n` jittered digit images (the MNIST stand-in).
///
/// Labels cycle through the ten classes so every class is equally
/// represented. Deterministic for a given `(n, seed)`.
///
/// # Examples
///
/// ```
/// let data = neural::data::digits(100, 7);
/// assert_eq!(data.len(), 100);
/// assert_eq!(data.images.shape(), &[100, 1, 28, 28]);
/// assert_eq!(data.classes, 10);
/// ```
pub fn digits(n: usize, seed: u64) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * 28 * 28);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let digit = i % 10;
        data.extend(render_digit(digit, &mut rng, 0.46));
        labels.push(digit);
    }
    Dataset {
        images: Tensor::from_vec(vec![n, 1, 28, 28], data),
        labels,
        classes: 10,
    }
}

/// Number of classes in the [`shapes`] dataset.
pub const SHAPE_CLASSES: usize = 20;

const SHAPE_SIZE: usize = 16;

/// Renders one shape-class image: 5 glyph shapes × 4 color styles.
fn render_shape<R: Rng + ?Sized>(class: usize, rng: &mut R, difficulty: f32) -> Vec<f32> {
    let shape = class % 5;
    let style = class / 5;
    let s = SHAPE_SIZE;
    let cx: f32 = rng.gen_range(0.4..0.6);
    let cy: f32 = rng.gen_range(0.4..0.6);
    let radius: f32 = rng.gen_range(0.22..0.34);
    let noise = 0.25 + 0.6 * difficulty;

    // Per-style channel weights, perturbed per image.
    let base: [[f32; 3]; 4] = [
        [1.0, 0.2, 0.2],
        [0.2, 1.0, 0.2],
        [0.2, 0.2, 1.0],
        [0.8, 0.8, 0.2],
    ];
    let jitter: f32 = difficulty * 0.4;
    let color: Vec<f32> = base[style]
        .iter()
        .map(|&c| (c + rng.gen_range(-jitter..=jitter)).clamp(0.0, 1.0))
        .collect();

    let mut img = vec![0.0f32; 3 * s * s];
    for y in 0..s {
        for x in 0..s {
            let u = (x as f32 + 0.5) / s as f32 - cx;
            let v = (y as f32 + 0.5) / s as f32 - cy;
            let inside = match shape {
                0 => (u * u + v * v).sqrt() < radius,             // circle
                1 => u.abs().max(v.abs()) < radius,               // square
                2 => v > -radius && u.abs() < (radius - v) * 0.8, // triangle
                3 => u.abs() < radius * 0.35 || v.abs() < radius * 0.35, // cross
                _ => ((u * 14.0).sin() > 0.0) && u.abs().max(v.abs()) < radius, // stripes
            };
            let base_val = if inside { 1.0 } else { 0.1 };
            for ch in 0..3 {
                let val = base_val * color[ch] + noise * (rng.gen::<f32>() - 0.5);
                img[ch * s * s + y * s + x] = val.clamp(0.0, 1.0);
            }
        }
    }
    img
}

/// Generates `n` images of the 20-class shapes dataset (the ILSVRC
/// stand-in for the AlexNet-proxy experiment).
///
/// `difficulty` in `[0, 1]` scales pixel noise and color confusion;
/// higher values push the trained software baseline toward the ~40 %
/// top-1 misclassification regime of Table III.
pub fn shapes(n: usize, seed: u64, difficulty: f32) -> Dataset {
    assert!((0.0..=1.0).contains(&difficulty), "difficulty in [0, 1]");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5AFE);
    let mut data = Vec::with_capacity(n * 3 * SHAPE_SIZE * SHAPE_SIZE);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % SHAPE_CLASSES;
        data.extend(render_shape(class, &mut rng, difficulty));
        labels.push(class);
    }
    Dataset {
        images: Tensor::from_vec(vec![n, 3, SHAPE_SIZE, SHAPE_SIZE], data),
        labels,
        classes: SHAPE_CLASSES,
    }
}

/// Shuffles a dataset in place, deterministically for a given seed.
pub fn shuffle(dataset: &mut Dataset, seed: u64) {
    let n = dataset.len();
    let per = dataset.images.len() / n;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Fisher–Yates over both images and labels.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        if i != j {
            dataset.labels.swap(i, j);
            let data = dataset.images.data_mut();
            for k in 0..per {
                data.swap(i * per + k, j * per + k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_deterministic_and_balanced() {
        let a = digits(50, 3);
        let b = digits(50, 3);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
        // Balanced classes.
        for c in 0..10 {
            assert_eq!(a.labels.iter().filter(|&&l| l == c).count(), 5);
        }
        // Different seeds differ.
        let c = digits(50, 4);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn digit_pixels_in_range() {
        let d = digits(20, 1);
        assert!(d.images.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn digits_have_signal() {
        // A rendered 8 must have more ink than a rendered 1.
        let d = digits(20, 9);
        let ink = |i: usize| d.image(i).iter().sum::<f32>();
        let ones: f32 = (0..20).filter(|&i| d.labels[i] == 1).map(ink).sum();
        let eights: f32 = (0..20).filter(|&i| d.labels[i] == 8).map(ink).sum();
        assert!(eights > ones * 1.2, "eights {eights} vs ones {ones}");
    }

    #[test]
    fn digits_within_class_variation() {
        let d = digits(40, 5);
        // Two 3s are similar but not identical (jitter applied).
        let threes: Vec<usize> = (0..40).filter(|&i| d.labels[i] == 3).collect();
        assert!(d.image(threes[0]) != d.image(threes[1]));
    }

    #[test]
    fn shapes_deterministic_and_ranged() {
        let a = shapes(40, 11, 0.5);
        let b = shapes(40, 11, 0.5);
        assert_eq!(a.images, b.images);
        assert_eq!(a.classes, 20);
        assert!(a.images.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn shapes_difficulty_raises_noise() {
        // Compare pixel variance off-shape: harder images are noisier.
        let easy = shapes(20, 2, 0.0);
        let hard = shapes(20, 2, 1.0);
        let var = |d: &Dataset| {
            let data = d.images.data();
            let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
            data.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / data.len() as f32
        };
        assert!(var(&hard) > var(&easy));
    }

    #[test]
    fn shuffle_preserves_pairs() {
        let mut d = digits(30, 8);
        let ink_label: Vec<(u32, usize)> = (0..30)
            .map(|i| {
                (
                    (d.image(i).iter().sum::<f32>() * 1000.0) as u32,
                    d.labels[i],
                )
            })
            .collect();
        shuffle(&mut d, 99);
        let mut after: Vec<(u32, usize)> = (0..30)
            .map(|i| {
                (
                    (d.image(i).iter().sum::<f32>() * 1000.0) as u32,
                    d.labels[i],
                )
            })
            .collect();
        let mut before = ink_label;
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "difficulty")]
    fn shapes_difficulty_validated() {
        shapes(10, 1, 1.5);
    }
}
