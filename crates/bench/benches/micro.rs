//! Micro-benchmarks of the hot primitives: fuzzy-tree lookup, CRC range
//! expansion, per-packet pipeline cost, full-precision forward pass, and the
//! fusion pass itself.
//!
//! Self-timed (`harness = false`) so the workspace stays free of external
//! benchmark frameworks. Run: `cargo bench -p pegasus-bench`.

use pegasus_core::fusion::fuse_basic;
use pegasus_core::fuzzy::ClusterTree;
use pegasus_core::lowering::{lower_sequential, LoweringOptions};
use pegasus_nn::init::rng;
use pegasus_nn::layers::{BatchNorm1d, Dense, NormMode, Relu};
use pegasus_nn::{Sequential, Tensor};
use pegasus_switch::{range_to_ternary, SwitchConfig};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

/// Times `f` adaptively (at least ~0.2 s of samples after warm-up) and
/// prints mean ns/iter.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm-up and calibration: find an iteration count worth ~50 ms.
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 50 || iters >= 1 << 30 {
            break;
        }
        iters *= 4;
    }
    // Measured runs.
    let mut best = f64::MAX;
    let mut total = 0.0;
    const RUNS: usize = 4;
    for _ in 0..RUNS {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
        total += ns;
    }
    println!("{name:<40} {:>12.1} ns/iter (best {best:>10.1})", total / RUNS as f64);
}

fn mlp() -> Sequential {
    let mut r = rng(1);
    let mut m = Sequential::new();
    m.add(Box::new(BatchNorm1d::new(16, NormMode::Feature)));
    m.add(Box::new(Dense::new(&mut r, 16, 20)));
    m.add(Box::new(Relu::new()));
    m.add(Box::new(Dense::new(&mut r, 20, 20)));
    m.add(Box::new(Relu::new()));
    m.add(Box::new(Dense::new(&mut r, 20, 3)));
    m
}

fn bench_fuzzy_lookup() {
    let mut r = rng(2);
    let data: Vec<Vec<f32>> =
        (0..4096).map(|_| (0..4).map(|_| r.gen_range(0..256) as f32).collect()).collect();
    let tree = ClusterTree::fit(&data, 6);
    let probe = vec![100.0f32, 50.0, 200.0, 10.0];
    bench("fuzzy_tree_lookup_depth6_dim4", || {
        black_box(tree.index_of(black_box(&probe)));
    });
}

fn bench_crc_expansion() {
    bench("crc_range_to_ternary_8bit", || {
        black_box(range_to_ternary(black_box(13), black_box(201), 8));
    });
    bench("crc_range_to_ternary_16bit", || {
        black_box(range_to_ternary(black_box(1000), black_box(48000), 16));
    });
}

fn bench_switch_pipeline() {
    // Compile a small classifier once; measure per-packet processing.
    let mut r = rng(3);
    let mut model = mlp();
    // Settle BN stats.
    for _ in 0..20 {
        let x = pegasus_nn::init::uniform(&mut r, &[64, 16], 127.0).map(|v| v + 128.0);
        let _ = model.forward(&x, true);
    }
    let spec = model.to_spec("m");
    let mut prog = lower_sequential(&spec, &LoweringOptions::default());
    fuse_basic(&mut prog);
    let train: Vec<Vec<f32>> =
        (0..2048).map(|_| (0..16).map(|_| r.gen_range(0..256) as f32).collect()).collect();
    let compiled = pegasus_core::compile::compile(
        &prog,
        &train,
        &pegasus_core::compile::CompileOptions::default(),
        pegasus_core::compile::CompileTarget::Classify,
        "bench",
    )
    .expect("compiles");
    let dp = pegasus_core::runtime::DataplaneModel::deploy(compiled, &SwitchConfig::tofino2())
        .expect("deploys");
    let sample: Vec<f32> = (0..16).map(|i| (i * 13 % 256) as f32).collect();
    bench("flat_classify_per_row_mlp", || {
        black_box(dp.classify(black_box(&sample)).expect("classifies"));
    });
}

fn bench_nn_forward() {
    let mut model = mlp();
    let x = Tensor::full(&[64, 16], 0.5);
    bench("nn_forward_mlp_batch64", || {
        black_box(model.forward(black_box(&x), false));
    });
}

fn bench_fusion_pass() {
    let spec = mlp().to_spec("m");
    bench("fuse_basic_mlp", || {
        let mut prog = lower_sequential(&spec, &LoweringOptions::default());
        black_box(fuse_basic(black_box(&mut prog)));
    });
}

fn bench_tree_fit() {
    let mut r = rng(4);
    let data: Vec<Vec<f32>> =
        (0..1024).map(|_| (0..4).map(|_| r.gen_range(0..256) as f32).collect()).collect();
    bench("cluster_tree_fit_1k_dim4_depth5", || {
        black_box(ClusterTree::fit(black_box(&data), 5));
    });
}

fn main() {
    bench_fuzzy_lookup();
    bench_crc_expansion();
    bench_switch_pipeline();
    bench_nn_forward();
    bench_fusion_pass();
    bench_tree_fit();
}
