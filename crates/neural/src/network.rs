//! Sequential networks, SGD training, and weight (de)serialization.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::layer::softmax_cross_entropy;
use crate::{Layer, Tensor};

/// A feed-forward network: an ordered stack of layers ending in logits.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network").field("layers", &names).finish()
    }
}

/// Summary of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy loss over the epoch.
    pub loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

impl Network {
    /// Builds a network from layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Network {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        Network { layers }
    }

    /// The layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Runs inference on a batch, returning logits.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, false);
        }
        x
    }

    /// One SGD step on a minibatch; returns the batch loss.
    pub fn train_batch(&mut self, input: &Tensor, labels: &[usize], lr: f32) -> f32 {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, true);
        }
        let (loss, mut grad) = softmax_cross_entropy(&x, labels);
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        for layer in &mut self.layers {
            layer.update(lr);
        }
        loss
    }

    /// One epoch of minibatch SGD over `(images, labels)`.
    ///
    /// `images` is `[n, ...]`; batches are taken in order (shuffle the
    /// dataset up front for stochasticity).
    pub fn train_epoch(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
        lr: f32,
    ) -> EpochStats {
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "one label per image");
        let per_image = images.len() / n;
        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            let b = end - start;
            let mut shape = images.shape().to_vec();
            shape[0] = b;
            let batch = Tensor::from_vec(
                shape,
                images.data()[start * per_image..end * per_image].to_vec(),
            );
            total_loss += self.train_batch(&batch, &labels[start..end], lr) as f64;
            batches += 1;
            start = end;
        }
        let accuracy = self.evaluate(images, labels);
        EpochStats {
            loss: (total_loss / batches.max(1) as f64) as f32,
            accuracy,
        }
    }

    /// Classification accuracy over a dataset.
    pub fn evaluate(&mut self, images: &Tensor, labels: &[usize]) -> f64 {
        let preds = self.predict(images);
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        correct as f64 / labels.len() as f64
    }

    /// Predicted class per image.
    pub fn predict(&mut self, images: &Tensor) -> Vec<usize> {
        let n = images.shape()[0];
        let per_image = images.len() / n;
        let mut preds = Vec::with_capacity(n);
        // Evaluate in modest batches to bound memory.
        let chunk = 64;
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let b = end - start;
            let mut shape = images.shape().to_vec();
            shape[0] = b;
            let batch = Tensor::from_vec(
                shape,
                images.data()[start * per_image..end * per_image].to_vec(),
            );
            let logits = self.forward(&batch);
            let classes = logits.shape()[1];
            for i in 0..b {
                let row = Tensor::from_vec(
                    vec![classes],
                    (0..classes).map(|j| logits.at2(i, j)).collect(),
                );
                preds.push(row.argmax());
            }
            start = end;
        }
        preds
    }

    /// Extracts all parameter tensors for serialization.
    pub fn export_weights(&self) -> SavedWeights {
        SavedWeights {
            tensors: self
                .layers
                .iter()
                .flat_map(|l| l.params().into_iter().cloned())
                .collect(),
        }
    }

    /// Loads parameters previously produced by
    /// [`export_weights`](Network::export_weights) on an identically
    /// shaped network.
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or any shape differs.
    pub fn import_weights(&mut self, saved: &SavedWeights) {
        let mut params: Vec<&mut Tensor> = self
            .layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect();
        assert_eq!(
            params.len(),
            saved.tensors.len(),
            "weight count mismatch: network has {}, file has {}",
            params.len(),
            saved.tensors.len()
        );
        for (dst, src) in params.iter_mut().zip(&saved.tensors) {
            assert_eq!(dst.shape(), src.shape(), "weight shape mismatch");
            dst.data_mut().copy_from_slice(src.data());
        }
    }
}

/// A flat list of parameter tensors, serializable to JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedWeights {
    /// Parameter tensors in network order.
    pub tensors: Vec<Tensor>,
}

impl SavedWeights {
    /// Writes the weights as JSON, atomically: the bytes go to a
    /// sibling temp file that is then renamed over `path`, so a reader
    /// sees either the old file or the complete new one.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        let mut temp = path.as_os_str().to_owned();
        temp.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            NEXT_TEMP.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&temp, json)?;
        std::fs::rename(&temp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&temp);
        })
    }

    /// Reads weights from JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O and deserialization errors.
    pub fn load(path: &Path) -> std::io::Result<SavedWeights> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Relu};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn toy_network(rng: &mut ChaCha8Rng) -> Network {
        Network::new(vec![
            Box::new(Dense::new(4, 16, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(16, 3, rng)),
        ])
    }

    /// A linearly separable 3-class toy problem.
    fn toy_data() -> (Tensor, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let class = i % 3;
            let jitter = (i as f32 * 0.77).sin() * 0.1;
            let mut row = vec![jitter; 4];
            row[class] += 1.0;
            data.extend(row);
            labels.push(class);
        }
        (Tensor::from_vec(vec![60, 4], data), labels)
    }

    #[test]
    fn training_reaches_high_accuracy() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = toy_network(&mut rng);
        let (x, y) = toy_data();
        let mut stats = EpochStats {
            loss: f32::INFINITY,
            accuracy: 0.0,
        };
        for _ in 0..30 {
            stats = net.train_epoch(&x, &y, 16, 0.2);
        }
        assert!(stats.accuracy > 0.95, "accuracy {}", stats.accuracy);
        assert!(stats.loss < 0.3, "loss {}", stats.loss);
    }

    #[test]
    fn predict_matches_evaluate() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut net = toy_network(&mut rng);
        let (x, y) = toy_data();
        for _ in 0..20 {
            net.train_epoch(&x, &y, 16, 0.2);
        }
        let preds = net.predict(&x);
        let acc = preds.iter().zip(&y).filter(|(p, l)| p == l).count() as f64 / y.len() as f64;
        assert!((acc - net.evaluate(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn weight_roundtrip_preserves_outputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = toy_network(&mut rng);
        let (x, y) = toy_data();
        net.train_epoch(&x, &y, 16, 0.2);
        let saved = net.export_weights();
        let before = net.forward(&x);

        let mut rng2 = ChaCha8Rng::seed_from_u64(99);
        let mut net2 = toy_network(&mut rng2);
        net2.import_weights(&saved);
        let after = net2.forward(&x);
        assert_eq!(before, after);
    }

    #[test]
    fn weight_file_roundtrip() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = toy_network(&mut rng);
        let saved = net.export_weights();
        let dir = std::env::temp_dir().join("reram_ecc_test_weights");
        let path = dir.join("toy.json");
        let _ = std::fs::remove_dir_all(&dir);
        saved.save(&path).unwrap();
        // Overwriting goes through a temp file that the rename consumes.
        saved.save(&path).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["toy.json"]);
        let loaded = SavedWeights::load(&path).unwrap();
        assert_eq!(saved.tensors.len(), loaded.tensors.len());
        assert_eq!(saved.tensors[0], loaded.tensors[0]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn import_rejects_wrong_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = toy_network(&mut rng);
        let saved = SavedWeights {
            tensors: vec![Tensor::zeros(vec![2, 2])],
        };
        net.import_weights(&saved);
    }

    #[test]
    fn debug_lists_layers() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let net = toy_network(&mut rng);
        let text = format!("{net:?}");
        assert!(text.contains("dense") && text.contains("relu"));
    }
}
