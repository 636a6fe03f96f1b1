//! The evaluated network topologies (Table II of the paper).

use rand::Rng;

use crate::conv::ConvGeometry;
use crate::{Conv2d, Dense, Flatten, MaxPool2, Network, Relu};

/// MLP1: a 3-layer perceptron with 500 and 150 hidden units
/// (LeCun et al., reference 12 of the paper), for 28×28 grayscale inputs.
pub fn mlp1<R: Rng + ?Sized>(rng: &mut R) -> Network {
    Network::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(784, 500, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(500, 150, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(150, 10, rng)),
    ])
}

/// MLP2: a 2-layer perceptron with 800 hidden units (Simard et al.,
/// reference 16 of the paper).
pub fn mlp2<R: Rng + ?Sized>(rng: &mut R) -> Network {
    Network::new(vec![
        Box::new(Flatten::new()),
        Box::new(Dense::new(784, 800, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(800, 10, rng)),
    ])
}

/// CNN1: the LeNet-5-style network of Table II — 6 then 16 5×5 feature
/// maps, with 120- and 84-unit fully connected layers.
pub fn cnn1<R: Rng + ?Sized>(rng: &mut R) -> Network {
    let conv1 = ConvGeometry {
        in_channels: 1,
        out_channels: 6,
        kernel: 5,
        padding: 2,
        in_hw: (28, 28),
    };
    let conv2 = ConvGeometry {
        in_channels: 6,
        out_channels: 16,
        kernel: 5,
        padding: 0,
        in_hw: (14, 14),
    };
    // 28→(pad 2, k 5)→28 →pool→14 →(k 5)→10 →pool→5.
    Network::new(vec![
        Box::new(Conv2d::new(conv1, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new(6, 28, 28)),
        Box::new(Conv2d::new(conv2, rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new(16, 10, 10)),
        Box::new(Flatten::new()),
        Box::new(Dense::new(16 * 5 * 5, 120, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(120, 84, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(84, 10, rng)),
    ])
}

/// The AlexNet proxy: an 8-layer CNN (5 convolutional + 3 fully
/// connected, like AlexNet — reference 64 of the paper) scaled to the
/// 20-class shapes dataset.
///
/// The full 60M-parameter AlexNet cannot be trained or Monte-Carlo
/// simulated on CPU (the paper itself restricts AlexNet to one design
/// point for the same reason); this proxy preserves the *structure* —
/// conv layers with small receptive fields feeding wide fully connected
/// layers — which is what determines per-row occupancy and hence error
/// behaviour.
pub fn alexnet_proxy<R: Rng + ?Sized>(rng: &mut R) -> Network {
    let g = |in_c, out_c, hw| ConvGeometry {
        in_channels: in_c,
        out_channels: out_c,
        kernel: 3,
        padding: 1,
        in_hw: (hw, hw),
    };
    Network::new(vec![
        Box::new(Conv2d::new(g(3, 16, 16), rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new(16, 16, 16)),
        Box::new(Conv2d::new(g(16, 32, 8), rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new(32, 8, 8)),
        Box::new(Conv2d::new(g(32, 48, 4), rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(g(48, 48, 4), rng)),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(g(48, 32, 4), rng)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new(32, 4, 4)),
        Box::new(Flatten::new()),
        Box::new(Dense::new(32 * 2 * 2, 256, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(256, 128, rng)),
        Box::new(Relu::new()),
        Box::new(Dense::new(128, 20, rng)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn mlp1_shapes() {
        let mut net = mlp1(&mut rng());
        let x = Tensor::zeros(vec![2, 1, 28, 28]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn mlp2_shapes() {
        let mut net = mlp2(&mut rng());
        let x = Tensor::zeros(vec![1, 1, 28, 28]);
        assert_eq!(net.forward(&x).shape(), &[1, 10]);
    }

    #[test]
    fn cnn1_shapes() {
        let mut net = cnn1(&mut rng());
        let x = Tensor::zeros(vec![2, 1, 28, 28]);
        assert_eq!(net.forward(&x).shape(), &[2, 10]);
    }

    #[test]
    fn alexnet_proxy_shapes_and_depth() {
        let mut net = alexnet_proxy(&mut rng());
        let x = Tensor::zeros(vec![1, 3, 16, 16]);
        assert_eq!(net.forward(&x).shape(), &[1, 20]);
        // 5 conv + 3 fc parameterized layers.
        let parameterized = net
            .layers()
            .iter()
            .filter(|l| !l.params().is_empty())
            .count();
        assert_eq!(parameterized, 8);
    }

    #[test]
    fn models_quantize_cleanly() {
        use crate::QuantizedNetwork;
        for net in [
            mlp1(&mut rng()),
            cnn1(&mut rng()),
            alexnet_proxy(&mut rng()),
        ] {
            let q = QuantizedNetwork::from_network(&net);
            assert!(!q.mvm_matrices().is_empty());
        }
    }

    #[test]
    fn mlp1_learns_digits() {
        // A quick smoke check that the Table II topology trains on the
        // synthetic digits stand-in.
        let mut rng = rng();
        let mut net = mlp1(&mut rng);
        let mut train = crate::data::digits(1600, 42);
        crate::data::shuffle(&mut train, 7);
        let test = crate::data::digits(200, 43);
        for _ in 0..8 {
            net.train_epoch(&train.images, &train.labels, 32, 0.1);
        }
        let acc = net.evaluate(&test.images, &test.labels);
        assert!(acc > 0.8, "accuracy {acc}");
    }
}
