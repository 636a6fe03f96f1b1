//! Regenerates Figure 7: the current transient of a 128-element row
//! with two bits per cell and equal state occupancy, plus the §IV error
//! rates (paper: 14.5 % total — 13.9 % high, 0.51 % low).
//!
//! Usage: `cargo run --release -p bench --bin fig7_transient`

use analog::TransientRow;
use rand_chacha::rand_core::SeedableRng;
use serde::Serialize;
use xbar::DeviceParams;

#[derive(Serialize)]
struct Fig7 {
    duration_s: f64,
    samples: usize,
    ideal_current_a: f64,
    lsb_a: f64,
    high_rate: f64,
    low_rate: f64,
    total_rate: f64,
    two_step_rate: f64,
    trace_times: Vec<f64>,
    trace_currents: Vec<f64>,
}

fn main() {
    // Equal occupancy of the four 2-bit states across 128 cells (§IV).
    let levels: Vec<u32> = (0..128).map(|i| i % 4).collect();
    let params = DeviceParams {
        fault_rate: 0.0,
        ..DeviceParams::default()
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let mut row = TransientRow::new(&levels, &params, &mut rng);

    // The paper runs 1 s of transient; sampling every RTN dwell time
    // captures the same statistics in bounded compute. Scale with
    // REPRO_SAMPLES if a longer run is wanted.
    let samples: usize = std::env::var("REPRO_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|s: usize| s * 2000)
        .unwrap_or(100_000);
    let duration = samples as f64 * params.rtn_tau_on / 10.0;
    let trace = row.run(duration, samples, &mut rng);
    let stats = trace.error_stats();

    println!("=== Figure 7: row current transient ===");
    println!("row: 128 cells, 2 bits/cell, equal state occupancy");
    println!("duration: {duration:.4} s, {samples} samples");
    println!("ideal current: {:.4} mA", trace.ideal() * 1e3);
    println!(
        "thresholds ±1: {:.4} / {:.4} mA",
        trace.threshold(-1) * 1e3,
        trace.threshold(1) * 1e3
    );
    println!(
        "error rates: high {:.2}%  low {:.2}%  total {:.2}%  (paper: 13.9% / 0.51% / 14.5%)",
        stats.high_rate * 100.0,
        stats.low_rate * 100.0,
        stats.total_rate() * 100.0
    );
    println!("two-step rate: {:.3}%", stats.two_step_rate * 100.0);

    // ASCII sketch of the first stretch of the trace.
    let sketch = trace.downsample(64);
    let lo = trace.threshold(-2);
    let hi = trace.threshold(2);
    println!(
        "\ntrace (first {} samples, ±2 LSB window):",
        sketch.times().len()
    );
    for (&t, &i) in sketch.times().iter().zip(sketch.currents()).take(32) {
        let frac = ((i - lo) / (hi - lo)).clamp(0.0, 1.0);
        let pos = (frac * 60.0) as usize;
        let mut line = vec![b' '; 61];
        line[30] = b'|';
        line[pos] = b'*';
        println!("{:>9.6}s {}", t, String::from_utf8_lossy(&line));
    }

    let down = trace.downsample(512);
    bench::write_json(
        "fig7_transient",
        &Fig7 {
            duration_s: duration,
            samples,
            ideal_current_a: trace.ideal(),
            lsb_a: trace.lsb(),
            high_rate: stats.high_rate,
            low_rate: stats.low_rate,
            total_rate: stats.total_rate(),
            two_step_rate: stats.two_step_rate,
            trace_times: down.times().to_vec(),
            trace_currents: down.currents().to_vec(),
        },
    );
}
