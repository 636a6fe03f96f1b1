//! The committed experiment specs under `results/specs/`.
//!
//! Figures 10, 11 and 12, Table III, the lifetime campaign and the
//! §IV–§VI ablations run only as `campaign-grid` specs. A static
//! figure cell is a one-epoch campaign: at `initial_writes` equal to
//! the endurance floor, epoch 0's fault rate is exactly 0 and its
//! evaluation seed is the cell seed, so the cell is the plain
//! `sim::evaluate` call the figure needs. A variant's knobs reach the
//! cell's configuration through `AccelConfig::apply`. These tests pin
//! the specs' shape, their canonical bytes, and that each cell equals
//! the `sim::evaluate` of the configuration the experiment is defined
//! by.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use accel::campaign::CampaignState;
use accel::grid::{Grid, GridCell, GridOptions, GridSpec, Launcher};
use accel::{AccelConfig, ProtectionScheme};
use ancode::{CorrectionPolicy, GroupLayout};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use xbar::endurance::EnduranceParams;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/specs")
}

fn load_path(path: &std::path::Path) -> GridSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    GridSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn load(name: &str) -> GridSpec {
    load_path(&specs_dir().join(format!("{name}.json")))
}

/// Every committed spec, by name, sorted.
fn spec_names() -> Vec<String> {
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
    names
}

#[test]
fn every_committed_spec_validates() {
    assert_eq!(
        spec_names(),
        [
            "ablation_group_size",
            "ablation_policy",
            "ablation_remap",
            "ablation_rtn_offset",
            "ablation_table_depth",
            "fig10",
            "fig11",
            "fig12",
            "lifetime",
            "table3"
        ]
    );
    for name in spec_names() {
        load(&name);
    }
}

const FIG10_DIGEST: u64 = 0xa84c_c448;
const FIG11_DIGEST: u64 = 0xb69d_f6df;
const LIFETIME_DIGEST: u64 = 0x2eb5_fe7b;
const E2E_GRID_DIGEST: u64 = 0x47ac_3cba;

/// The specs that existed before the `variants` axis, with the digest
/// each had then: adding the axis moved none of them.
const DIGESTS_BEFORE_VARIANTS: [(&str, u64); 4] = [
    ("results/specs/fig10.json", FIG10_DIGEST),
    ("results/specs/fig11.json", FIG11_DIGEST),
    ("results/specs/lifetime.json", LIFETIME_DIGEST),
    ("e2ebench/grid_spec.json", E2E_GRID_DIGEST),
];

#[test]
fn canonical_json_round_trips_and_old_digests_hold() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths: Vec<PathBuf> = spec_names()
        .iter()
        .map(|n| specs_dir().join(format!("{n}.json")))
        .collect();
    paths.push(root.join("e2ebench/grid_spec.json"));
    for path in &paths {
        let spec = load_path(path);
        let json = spec.to_json().expect("canonical json");
        let again = GridSpec::from_json(&json).expect("reparse");
        assert_eq!(again, spec, "{}", path.display());
        assert_eq!(again.to_json().expect("json"), json, "{}", path.display());
        assert_eq!(
            json.contains("\"variants\""),
            !spec.variants.is_empty(),
            "{}: {json}",
            path.display()
        );
    }
    for (rel, digest) in DIGESTS_BEFORE_VARIANTS {
        let spec = load_path(&root.join(rel));
        assert!(spec.variants.is_empty(), "{rel}");
        assert_eq!(spec.digest().expect("digest"), digest, "{rel}");
    }
}

/// The scheme axis of Figures 10–12, in legend order.
const FIGURE_SCHEMES: [&str; 7] = [
    "NoECC",
    "Static16",
    "Static128",
    "ABN-7",
    "ABN-8",
    "ABN-9",
    "ABN-10",
];

#[test]
fn figure_specs_are_one_epoch_cells_at_their_fault_rate() {
    let endurance = EnduranceParams::default();
    for (name, fault_rate) in [("fig10", 0.0), ("fig11", 1e-3)] {
        let spec = load(name);
        assert_eq!(spec.models, ["mlp1", "mlp2", "cnn1"], "{name}");
        assert_eq!(spec.schemes, FIGURE_SCHEMES, "{name}");
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

/// Runs `spec` in-process against a small trained mlp2 registered
/// under every model the spec names, then checks each cell's one epoch
/// against `sim::evaluate` on `expected(cell)` at the cell seed and
/// the spec's threads: rates bitwise, ECU counts exactly.
fn assert_cells_equal_evaluate(
    name: &str,
    spec: &GridSpec,
    expected: impl Fn(&GridCell) -> AccelConfig,
) {
    let problem = Arc::new(tiny_mlp2(spec.samples as usize));
    let dir = std::env::temp_dir().join(format!("figure-spec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let launcher = Launcher::InProcess {
        problems: spec
            .models
            .iter()
            .map(|m| (m.clone(), problem.clone()))
            .collect::<HashMap<_, _>>(),
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
        let direct = accel::sim::evaluate(
            qnet,
            images,
            labels,
            &expected(&cell),
            cell.seed,
            spec.threads as usize,
        )
        .expect("evaluate");
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

/// `name`'s spec cut to 8 samples, one scheme, one cell width and the
/// named variants; every other field is the committed spec's.
fn narrowed(name: &str, scheme: &str, bits: u64, variants: &[&str]) -> GridSpec {
    let mut spec = load(name);
    assert!(spec.schemes.iter().any(|s| s == scheme), "{name}: {scheme}");
    assert!(spec.cell_bits.contains(&bits), "{name}: {bits}");
    spec.schemes = vec![scheme.into()];
    spec.cell_bits = vec![bits];
    spec.samples = 8;
    spec.variants
        .retain(|v| variants.contains(&v.name.as_str()));
    assert_eq!(spec.variants.len(), variants.len(), "{name}: {variants:?}");
    spec
}

/// The fault-free configuration every static figure and ablation
/// starts from.
fn fault_free(cell: &GridCell) -> AccelConfig {
    AccelConfig::new(ProtectionScheme::from_label(&cell.scheme).expect("scheme"))
        .with_cell_bits(cell.cell_bits as u32)
        .with_fault_rate(0.0)
}

fn variant(cell: &GridCell) -> &str {
    cell.variant.as_ref().map_or("", |v| v.name.as_str())
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
    assert_cells_equal_evaluate("fig10", &spec, |cell| {
        assert_eq!(cell.model, "mlp2");
        fault_free(cell)
    });
}

// Each test below pins one spec: its narrowed cells equal
// `sim::evaluate` on the configuration its experiment is defined by,
// written out field by field, so each variant knob is shown to set the
// field the experiment varies.

#[test]
fn fig12_cells_sweep_rlo_delta_r_and_rtn_probability() {
    let full = load("fig12");
    assert_eq!(full.models, ["mlp1"]);
    assert_eq!(full.schemes, FIGURE_SCHEMES);
    assert_eq!(full.cell_bits, [2, 4]);
    assert_eq!(full.variants.len(), 10);
    assert_eq!(full.cells().len(), 140);
    let spec = narrowed("fig12", "ABN-9", 4, &["rlo_drr_0.028", "p_rtn_0.32"]);
    assert_cells_equal_evaluate("fig12", &spec, |cell| {
        let mut config = fault_free(cell);
        match variant(cell) {
            "rlo_drr_0.028" => config.device = config.device.with_rlo_delta_r(0.028),
            "p_rtn_0.32" => config.device.rtn_state_probability = 0.32,
            other => panic!("unexpected variant {other}"),
        }
        config
    });
}

#[test]
fn table3_cells_are_fault_free_two_bit_alexnet() {
    let spec = load("table3");
    assert_eq!(spec.models, ["alexnet"]);
    assert_eq!(spec.schemes, ["NoECC", "ABN-9"]);
    let spec = narrowed("table3", "ABN-9", 2, &[]);
    assert_cells_equal_evaluate("table3", &spec, |cell| {
        AccelConfig::new(ProtectionScheme::data_aware(9))
            .with_cell_bits(cell.cell_bits as u32)
            .with_fault_rate(0.0)
    });
}

#[test]
fn group_size_cells_set_the_operand_count() {
    let spec = narrowed("ablation_group_size", "ABN-9", 2, &["operands_2"]);
    assert_cells_equal_evaluate("group-size", &spec, |cell| {
        let mut config = fault_free(cell);
        config.group = GroupLayout::new(16, 2).expect("layout");
        config
    });
}

#[test]
fn policy_cells_set_policy_and_retries() {
    let spec = narrowed(
        "ablation_policy",
        "ABN-8",
        4,
        &["keep-corrected", "retry-2"],
    );
    assert_cells_equal_evaluate("policy", &spec, |cell| {
        let mut config = fault_free(cell);
        match variant(cell) {
            "keep-corrected" => config.policy = CorrectionPolicy::KeepCorrected,
            "retry-2" => {
                config.policy = CorrectionPolicy::Revert;
                config.max_retries = 2;
            }
            other => panic!("unexpected variant {other}"),
        }
        config
    });
}

#[test]
fn remap_cells_run_both_row_orders_at_half_a_percent_faults() {
    let spec = narrowed("ablation_remap", "ABN-9", 4, &["original", "remapped"]);
    let rate = EnduranceParams::default().failure_probability(spec.initial_writes);
    assert!((rate - 5e-3).abs() < 1e-12, "fault rate {rate}");
    assert_cells_equal_evaluate("remap", &spec, |cell| {
        let mut config = fault_free(cell).with_fault_rate(5e-3);
        config.remap = variant(cell) == "remapped";
        config
    });
}

#[test]
fn rtn_offset_cells_toggle_the_offset() {
    let spec = narrowed("ablation_rtn_offset", "NoECC", 2, &["no-offset"]);
    assert_cells_equal_evaluate("rtn-offset", &spec, |cell| {
        let mut config = fault_free(cell);
        config.device.rtn_offset = false;
        config
    });
}

#[test]
fn table_depth_cells_set_the_event_depth() {
    // Depth 2, not 1: at depth 1 a config that instead kept only the
    // top row for combinations would build the same tables.
    let spec = narrowed("ablation_table_depth", "ABN-10", 3, &["depth_2"]);
    assert_cells_equal_evaluate("table-depth", &spec, |cell| {
        let mut config = fault_free(cell);
        config.error_list.max_rows_per_event = 2;
        config
    });
}
