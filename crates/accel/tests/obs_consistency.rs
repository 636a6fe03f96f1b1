//! Observability consistency: the metric layer must *agree with* the
//! values the simulation returns, and the event log must match the
//! schema DESIGN.md §8 documents (`obs::schema`).
//!
//! Run with `cargo test -p accel --features obs --test obs_consistency`
//! (the workspace build enables `obs` transitively through the CLI).
//!
//! Counters and the event sink are process-global, so every test holds
//! `GUARD` and resets the registry first; other test binaries run in
//! other processes and cannot interfere.

#![cfg(feature = "obs")]

use accel::campaign::{Campaign, CampaignConfig};
use accel::sim::evaluate;
use accel::{AccelConfig, ProtectionScheme};
use neural::{QuantizedNetwork, Tensor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Value;

static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn guard() -> std::sync::MutexGuard<'static, ()> {
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// A tiny trained network and test set. The counter/return-value
/// equality under test is independent of network size, so this uses a
/// deliberately small two-layer perceptron (the full `mlp2` recipe
/// would multiply the scheme × thread matrix cost ~25x for no extra
/// coverage).
fn tiny_problem() -> (QuantizedNetwork, Tensor, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut net = neural::Network::new(vec![
        Box::new(neural::Flatten::new()),
        Box::new(neural::Dense::new(784, 24, &mut rng)),
        Box::new(neural::Relu::new()),
        Box::new(neural::Dense::new(24, 10, &mut rng)),
    ]);
    let mut train = neural::data::digits(200, 1);
    neural::data::shuffle(&mut train, 2);
    for _ in 0..3 {
        net.train_epoch(&train.images, &train.labels, 32, 0.1);
    }
    let test = neural::data::digits(10, 99);
    let qnet = QuantizedNetwork::from_network(&net);
    (qnet, test.images, test.labels)
}

/// The tentpole invariant: after `evaluate` returns, the merged
/// counter totals equal the decode statistics and flip count *that
/// run* returned — for every scheme and independent of how many worker
/// threads the examples were sharded over (merge is u64 addition, so
/// join order cannot change totals).
#[test]
fn counter_totals_equal_evaluate_returns() {
    let _g = guard();
    let (qnet, images, labels) = tiny_problem();
    for scheme in ["NoECC", "Static16", "ABN-9"] {
        let scheme = ProtectionScheme::from_label(scheme).expect("known scheme");
        // Default config: realistic noise, so every counter class can
        // fire.
        let config = AccelConfig::new(scheme.clone());
        for threads in [1usize, 3] {
            obs::reset();
            let result = evaluate(&qnet, &images, &labels, &config, 42, threads).expect("evaluate");
            let label = format!("{} / {threads} threads", config.scheme.label());
            assert_eq!(
                obs::counter_value("ecc_clean"),
                result.stats.clean,
                "{label}"
            );
            assert_eq!(
                obs::counter_value("ecc_corrected"),
                result.stats.corrected,
                "{label}"
            );
            assert_eq!(
                obs::counter_value("ecc_uncorrectable"),
                result.stats.uncorrectable,
                "{label}"
            );
            assert_eq!(
                obs::counter_value("ecc_miscorrected"),
                result.stats.miscorrected,
                "{label}"
            );
            assert_eq!(
                obs::counter_value("ecc_silent_a"),
                result.stats.silent_a,
                "{label}"
            );
            assert_eq!(
                obs::counter_value("ecc_retries"),
                result.stats.retries,
                "{label}"
            );
            assert_eq!(
                obs::counter_value("ecc_uncoded"),
                result.stats.uncoded,
                "{label}"
            );
            let flips = (result.flip_rate * result.samples as f64).round() as u64;
            assert_eq!(obs::counter_value("prediction_flips"), flips, "{label}");
            // Data-aware schemes exercised the A-search during
            // programming (Static16 builds its minimal-A code directly,
            // without a search).
            if matches!(scheme, ProtectionScheme::DataAware { .. }) {
                assert!(obs::counter_value("a_search_candidates") > 0, "{label}");
            }
            // Structural sanity on the series side: one programming
            // span per layer engine per shard, `samples` worth of MVMs.
            let snap = obs::snapshot();
            let mvm = snap
                .series
                .iter()
                .find(|s| s.name == "mvm")
                .expect("mvm span recorded");
            assert!(mvm.count > 0 && mvm.sum >= mvm.count * mvm.min, "{label}");
        }
    }
}

/// Batched submission preserves the counter contract: at every batch
/// size the merged counter totals still equal the returned stats, and
/// the decode *total* — one decode per nonzero (vector, bit) mask,
/// regardless of what the noise did — is batch-size independent even
/// though the individual outcome classes (clean/corrected/…) shift
/// with the reordered draws.
#[test]
fn batched_counter_totals_stay_consistent_and_invariant() {
    let _g = guard();
    let (qnet, images, labels) = tiny_problem();
    let mut totals = Vec::new();
    for batch in [1usize, 4, 32] {
        obs::reset();
        let config = AccelConfig::new(ProtectionScheme::data_aware(9)).with_batch(batch);
        let result = evaluate(&qnet, &images, &labels, &config, 42, 2).expect("evaluate");
        let label = format!("batch {batch}");
        assert_eq!(
            obs::counter_value("ecc_clean"),
            result.stats.clean,
            "{label}"
        );
        assert_eq!(
            obs::counter_value("ecc_corrected"),
            result.stats.corrected,
            "{label}"
        );
        assert_eq!(
            obs::counter_value("ecc_uncorrectable"),
            result.stats.uncorrectable,
            "{label}"
        );
        assert_eq!(
            obs::counter_value("ecc_retries"),
            result.stats.retries,
            "{label}"
        );
        totals.push(result.stats.total());
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "decode totals must not depend on batch size: {totals:?}"
    );
}

/// Parses one JSONL line into the stub's `Value` tree.
struct Echo(Value);

impl serde::Deserialize for Echo {
    fn from_value(value: &Value) -> Result<Echo, String> {
        Ok(Echo(value.clone()))
    }
}

/// Validates one event line against `obs::schema` (the machine-readable
/// twin of the DESIGN.md §8 table): common fields, a known type, every
/// per-type field present with the right JSON kind, and nothing extra.
/// Returns the parsed value tree.
fn validate_line(line: &str) -> Value {
    let value = serde_json::from_str::<Echo>(line)
        .unwrap_or_else(|e| panic!("unparseable event line ({e}): {line}"))
        .0;
    let fields = value
        .as_object()
        .unwrap_or_else(|| panic!("event line is not an object: {line}"));
    match value.get("v") {
        Some(&Value::Number(n)) if n == obs::schema::VERSION as f64 => {}
        other => panic!("bad schema version {other:?} in: {line}"),
    }
    match value.get("ts_ns") {
        Some(&Value::Number(n)) if n >= 0.0 && n.fract() == 0.0 => {}
        other => panic!("bad ts_ns {other:?} in: {line}"),
    }
    let ty = match value.get("type") {
        Some(Value::String(s)) => s.clone(),
        other => panic!("bad type {other:?} in: {line}"),
    };
    let spec = obs::schema::spec_for(&ty)
        .unwrap_or_else(|| panic!("event type {ty} not in obs::schema::EVENTS: {line}"));
    for field in spec.fields {
        let got = value
            .get(field.name)
            .unwrap_or_else(|| panic!("{ty} line missing field {}: {line}", field.name));
        let kind_ok = match field.kind {
            obs::schema::FieldKind::U64 => {
                matches!(got, &Value::Number(n) if n >= 0.0 && n.fract() == 0.0)
            }
            obs::schema::FieldKind::F64 => matches!(got, Value::Number(_)),
            obs::schema::FieldKind::Str => matches!(got, Value::String(_)),
            obs::schema::FieldKind::Bool => matches!(got, Value::Bool(_)),
        };
        assert!(
            kind_ok,
            "{ty} field {} has wrong kind (want {:?}): {line}",
            field.name, field.kind
        );
    }
    for (key, _) in fields {
        let known = key == "v"
            || key == "ts_ns"
            || key == "type"
            || spec.fields.iter().any(|f| f.name == key);
        assert!(known, "{ty} line has undocumented field {key}: {line}");
    }
    value
}

fn num(value: &Value, key: &str) -> f64 {
    match value.get(key) {
        Some(&Value::Number(n)) => n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// A campaign run must emit an event log in which every line validates
/// against the schema, the per-epoch records reproduce the campaign's
/// own `EpochRecord`s (the same numbers that checkpoints and the grid
/// summary are built from), and the counter totals match the summed
/// per-epoch statistics.
#[test]
fn campaign_event_log_matches_schema_and_records() {
    let _g = guard();
    let (qnet, images, labels) = tiny_problem();
    let base = AccelConfig::new(ProtectionScheme::data_aware(9));
    let mut config = CampaignConfig::new(base, 3, 11);
    config.threads = 2;
    config.writes_per_epoch = 4e5;
    config.checkpoint_every = 0;

    obs::reset();
    obs::events::log_to_memory();
    let mut campaign = Campaign::new(config).expect("campaign");
    let state = campaign
        .run(&qnet, &images, &labels)
        .expect("campaign run")
        .clone();
    let lines = obs::events::take_memory();
    obs::events::stop_logging();

    let parsed: Vec<Value> = lines.iter().map(|l| validate_line(l)).collect();
    let epochs: Vec<&Value> = parsed
        .iter()
        .filter(|v| v.get("type") == Some(&Value::String("campaign_epoch".into())))
        .collect();
    assert_eq!(epochs.len(), state.completed.len());
    for (event, record) in epochs.iter().zip(&state.completed) {
        assert_eq!(num(event, "epoch") as u64, record.epoch);
        assert_eq!(num(event, "writes"), record.writes);
        assert_eq!(num(event, "fault_rate"), record.fault_rate);
        assert_eq!(num(event, "misclassification"), record.misclassification);
        assert_eq!(num(event, "flip_rate"), record.flip_rate);
        assert_eq!(num(event, "samples") as u64, record.samples);
        assert_eq!(num(event, "corrected") as u64, record.corrected);
        assert_eq!(num(event, "miscorrected") as u64, record.miscorrected);
        match event.get("scheme") {
            Some(Value::String(s)) => assert_eq!(s, &state.scheme),
            other => panic!("bad scheme field: {other:?}"),
        }
        // No checkpoint path configured: write latency must be 0.
        assert_eq!(num(event, "checkpoint_ns"), 0.0);
    }
    // Shard completions were logged.
    assert!(parsed
        .iter()
        .any(|v| v.get("type") == Some(&Value::String("shard_done".into()))));

    // Counter totals across the whole campaign equal the summed
    // per-epoch returns.
    let sum = |f: fn(&accel::campaign::EpochRecord) -> u64| -> u64 {
        state.completed.iter().map(f).sum()
    };
    assert_eq!(obs::counter_value("ecc_clean"), sum(|r| r.clean));
    assert_eq!(obs::counter_value("ecc_corrected"), sum(|r| r.corrected));
    assert_eq!(
        obs::counter_value("ecc_miscorrected"),
        sum(|r| r.miscorrected)
    );
    assert_eq!(obs::counter_value("ecc_retries"), sum(|r| r.retries));
}
