//! The committed experiment specs under `results/specs/`.
//!
//! Figures 10 and 11 and the lifetime campaign run only as
//! `campaign-grid` specs. A static figure cell is a one-epoch campaign:
//! at `initial_writes` equal to the endurance floor, epoch 0's fault
//! rate is exactly 0 and its evaluation seed is the cell seed, so the
//! cell is the plain `sim::evaluate` call the figure needs. These tests
//! pin the specs' shape and that equivalence.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use accel::campaign::CampaignState;
use accel::grid::{Grid, GridOptions, GridSpec, Launcher};
use accel::{AccelConfig, ProtectionScheme};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar::endurance::EnduranceParams;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/specs")
}

fn load(name: &str) -> GridSpec {
    let path = specs_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    GridSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_committed_spec_validates() {
    let mut names: Vec<String> = std::fs::read_dir(specs_dir())
        .expect("results/specs")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter_map(|file| file.strip_suffix(".json").map(str::to_string))
        .collect();
    names.sort();
    assert_eq!(names, ["fig10", "fig11", "lifetime"]);
    for name in &names {
        load(name);
    }
}

#[test]
fn figure_specs_are_one_epoch_cells_at_their_fault_rate() {
    let endurance = EnduranceParams::default();
    for (name, fault_rate) in [("fig10", 0.0), ("fig11", 1e-3)] {
        let spec = load(name);
        assert_eq!(spec.models, ["mlp1", "mlp2", "cnn1"], "{name}");
        assert_eq!(spec.cell_bits, [1, 2, 3, 4, 5], "{name}");
        assert_eq!(spec.epochs, 1, "{name}");
        assert_eq!(spec.samples, 1000, "{name}");
        assert_eq!(spec.train, 8000, "{name}");
        let cells = spec.cells();
        assert_eq!(cells.len(), 105, "{name}: 3 models × 7 schemes × 5 bits");
        for cell in &cells {
            let config = spec.cell_config(cell).expect("cell config");
            assert_eq!(config.endurance, endurance);
            let rate = config.fault_rate_at(0);
            if name == "fig10" {
                assert_eq!(
                    rate.to_bits(),
                    0f64.to_bits(),
                    "{}: fault rate {rate}",
                    cell.id
                );
            } else {
                assert!(
                    (rate - fault_rate).abs() < 1e-12,
                    "{}: fault rate {rate}",
                    cell.id
                );
            }
        }
    }
    assert_eq!(load("fig10").initial_writes, endurance.min_writes);
    assert_eq!(
        load("fig11").initial_writes,
        endurance.writes_for_failure_rate(1e-3)
    );
}

#[test]
fn lifetime_spec_is_the_recorded_lifetime_sweep() {
    let spec = load("lifetime");
    assert_eq!(spec.models, ["mlp1"]);
    assert_eq!(spec.schemes, ["NoECC", "ABN-9"]);
    assert_eq!(spec.cell_bits, [5]);
    assert_eq!(spec.writes_per_epoch, [4e3]);
    assert_eq!(spec.seeds, [0xCA_FE]);
    assert_eq!(spec.epochs, 10);
    assert_eq!(spec.initial_writes, EnduranceParams::default().min_writes);
    assert_eq!(spec.error_model, "mc");
}

/// A small trained mlp2 and its test digits.
fn tiny_mlp2(samples: usize) -> accel::grid::worker::Problem {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut net = neural::models::mlp2(&mut rng);
    let mut train = neural::data::digits(400, 1);
    neural::data::shuffle(&mut train, 2);
    for _ in 0..3 {
        net.train_epoch(&train.images, &train.labels, 32, 0.1);
    }
    let test = neural::data::digits(samples, 99);
    let qnet = neural::QuantizedNetwork::from_network(&net);
    (qnet, test.images, test.labels)
}

#[test]
fn one_epoch_figure_cell_equals_a_fault_free_evaluate() {
    // Fig 10's spec narrowed to one small model, two schemes and one
    // cell width; everything else (epochs, wear, seed, threads, error
    // model) is the committed spec's.
    let mut spec = load("fig10");
    spec.models = vec!["mlp2".into()];
    spec.schemes = vec!["NoECC".into(), "ABN-9".into()];
    spec.cell_bits = vec![4];
    spec.samples = 8;
    let problem = Arc::new(tiny_mlp2(spec.samples as usize));
    let dir = std::env::temp_dir().join(format!("figure-spec-cell-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let launcher = Launcher::InProcess {
        problems: HashMap::from([("mlp2".to_string(), problem.clone())]),
    };
    Grid::new(spec.clone(), dir.clone(), launcher, GridOptions::default())
        .expect("grid")
        .run()
        .expect("grid run");

    let (qnet, images, labels) = &*problem;
    for cell in spec.cells() {
        let text = std::fs::read_to_string(dir.join("cells").join(format!("{}.json", cell.id)))
            .expect("cell artifact");
        let state = CampaignState::from_json(&text).expect("parse artifact");
        let [record] = state.completed.as_slice() else {
            panic!(
                "{}: expected one epoch, got {}",
                cell.id,
                state.completed.len()
            );
        };
        let scheme = ProtectionScheme::from_label(&cell.scheme).expect("scheme");
        let config = AccelConfig::new(scheme)
            .with_cell_bits(cell.cell_bits as u32)
            .with_fault_rate(0.0);
        let direct = accel::sim::evaluate(
            qnet,
            images,
            labels,
            &config,
            cell.seed,
            spec.threads as usize,
        )
        .expect("evaluate");
        assert_eq!(record.fault_rate.to_bits(), 0f64.to_bits(), "{}", cell.id);
        let rates = |m: f64, t: f64, f: f64| [m.to_bits(), t.to_bits(), f.to_bits()];
        assert_eq!(
            rates(
                record.misclassification,
                record.top5_misclassification,
                record.flip_rate
            ),
            rates(
                direct.misclassification,
                direct.top5_misclassification,
                direct.flip_rate
            ),
            "{}: rates differ",
            cell.id
        );
        let s = &direct.stats;
        assert_eq!(
            [
                record.clean,
                record.corrected,
                record.uncorrectable,
                record.miscorrected,
                record.silent_a,
                record.retries,
                record.uncoded
            ],
            [
                s.clean,
                s.corrected,
                s.uncorrectable,
                s.miscorrected,
                s.silent_a,
                s.retries,
                s.uncoded
            ],
            "{}: ECU counts differ",
            cell.id
        );
        assert_eq!(record.samples, direct.samples as u64);
    }
    std::fs::remove_dir_all(&dir).ok();
}
