//! Microbenchmarks for the crossbar substrate: programming, row reads
//! (independent, frozen-RTN and batched-amortized at 2- and 5-bit
//! cells, and the engine's bracket-then-walk of one vector), reduction,
//! and error-rate prediction.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand_chacha::rand_core::SeedableRng;
use xbar::{rowerr, BitSlicer, CrossbarArray, DeviceParams, InputMask};

fn bench_crossbar(c: &mut Criterion) {
    let params = DeviceParams::default();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    let levels: Vec<Vec<u32>> = (0..69)
        .map(|r| (0..128).map(|j| ((r + j) % 4) as u32).collect())
        .collect();
    let array = CrossbarArray::program(&levels, &params, &mut rng);
    let mask = InputMask::all_ones(128);

    c.bench_function("program_69x128", |b| {
        b.iter(|| CrossbarArray::program(black_box(&levels), &params, &mut rng))
    });
    c.bench_function("read_row_independent", |b| {
        b.iter(|| array.read_row(black_box(0), &mask, &mut rng))
    });
    let snap = array.sample_rtn(&mut rng);
    c.bench_function("read_row_frozen", |b| {
        b.iter(|| array.read_row_frozen(black_box(0), &mask, &snap, &mut rng))
    });
    c.bench_function("sample_rtn_69x128", |b| {
        b.iter(|| array.sample_rtn(&mut rng))
    });

    // One bit-serial cycle of the batched kernel over the whole stack:
    // the hoisted plane sums and trap table, then 69 amortized reads.
    let values: Vec<u64> = (0..128u64)
        .map(|j| j.wrapping_mul(2654435761) % 65536)
        .collect();
    let mut planes = Vec::new();
    array.conductance_planes_into(&values, 16, &mut planes);
    let (mut offsets, mut entries) = (Vec::new(), Vec::new());
    array.trap_level_sparse_into(&snap, &mut offsets, &mut entries);
    let plane_mask = InputMask::from_bit_of(&values, 0);
    let mut normals = xbar::stats::NormalSource::new();
    let mut out = Vec::with_capacity(69);
    c.bench_function("read_rows_amortized_69x128", |b| {
        b.iter(|| {
            array.read_rows_amortized_into(
                &plane_mask,
                black_box(&planes[..69]),
                &offsets,
                &entries,
                &mut normals,
                &mut rng,
                &mut out,
            )
        })
    });

    // The engine's read of one vector over the same stack: bracket all
    // 16 cycles, then walk each (its clean value plus the straddling
    // rows' draws).
    let masks: Vec<InputMask> = (0..16)
        .map(|t| InputMask::from_bit_of(&values, t))
        .collect();
    let mut brackets = xbar::ReadBrackets::with_row_capacity(69);
    c.bench_function("walk_69x128", |b| {
        b.iter(|| {
            array.bracket_reads_into(
                &masks,
                black_box(&planes),
                &offsets,
                &entries,
                &mut brackets,
            );
            for t in 0..16 {
                black_box(array.walk_reads(&brackets, t, &mut normals, &mut rng));
            }
        })
    });

    // The same cycle at 5-bit cells (a 137-bit coded group spans 28
    // rows), where a row's trap table has up to 32 levels.
    let params5 = DeviceParams {
        bits_per_cell: 5,
        ..DeviceParams::default()
    };
    let levels5: Vec<Vec<u32>> = (0..28)
        .map(|r| (0..128).map(|j| ((r + j) % 32) as u32).collect())
        .collect();
    let array5 = CrossbarArray::program(&levels5, &params5, &mut rng);
    let snap5 = array5.sample_rtn(&mut rng);
    let mut planes5 = Vec::new();
    array5.conductance_planes_into(&values, 16, &mut planes5);
    let (mut offsets5, mut entries5) = (Vec::new(), Vec::new());
    array5.trap_level_sparse_into(&snap5, &mut offsets5, &mut entries5);
    c.bench_function("read_rows_amortized_28x128_5b", |b| {
        b.iter(|| {
            array5.read_rows_amortized_into(
                &plane_mask,
                black_box(&planes5[..28]),
                &offsets5,
                &entries5,
                &mut normals,
                &mut rng,
                &mut out,
            )
        })
    });

    let slicer = BitSlicer::new(2, 138);
    let outputs: Vec<u64> = (0..69).map(|r| (r * 37 % 256) as u64).collect();
    c.bench_function("reduce_69_rows", |b| {
        b.iter(|| slicer.reduce(black_box(&outputs)))
    });

    c.bench_function("predict_row_error", |b| {
        b.iter(|| rowerr::predict_composition(black_box(&[32, 32, 32, 32]), &params))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2));
    targets = bench_crossbar
}
criterion_main!(benches);
