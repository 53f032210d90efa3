//! Figure 9d: inference throughput (samples/s) — Pegasus at switch line
//! rate vs full-precision CPU (1 thread) and the multi-core batched stand-in
//! for the paper's GPU rig.
//!
//! This reproduces the paper's CPU-vs-line-rate comparison and nothing
//! else: the "Switch" column is `SwitchConfig::line_rate_pps` arithmetic
//! and the CPU columns time bare `Sequential::forward` calls. It says
//! nothing about how fast this repo's engine serves packets — those
//! numbers come from `servebench` only (see `pegasus_bench::throughput`).
//!
//! Run: `cargo run -p pegasus-bench --bin fig9_throughput --release [-- --quick]`

use pegasus_bench::harness::prepare;
use pegasus_bench::throughput::{cpu_throughput, parallel_throughput, switch_line_rate};
use pegasus_bench::{parse_args, write_report};
use pegasus_core::models::mlp_b::MlpB;
use pegasus_core::models::{ModelData, TrainSettings};
use pegasus_core::pipeline::Pegasus;
use pegasus_datasets::peerrush;
use pegasus_nn::init::rng;
use pegasus_nn::layers::{Dense, Embedding, Flatten, Relu};
use pegasus_nn::{ModelSpec, Sequential, Tensor};
use pegasus_switch::SwitchConfig;

/// Full-precision stand-ins with the same compute shape per model family.
fn model_specs(classes: usize) -> Vec<(&'static str, ModelSpec, usize)> {
    let mut r = rng(1);
    let mlp = {
        let mut m = Sequential::new();
        m.add(Box::new(Dense::new(&mut r, 16, 20)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 20, 20)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 20, classes)));
        (("MLP-B"), m.to_spec("mlp"), 16)
    };
    let rnn_like = {
        // Dense unroll with the same MAC count as the 8-step RNN.
        let mut m = Sequential::new();
        m.add(Box::new(Embedding::new(&mut r, 256, 4)));
        m.add(Box::new(Flatten::new()));
        m.add(Box::new(Dense::new(&mut r, 64, 64)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 64, classes)));
        (("RNN-B"), m.to_spec("rnn"), 16)
    };
    let cnn_b = {
        let mut m = Sequential::new();
        m.add(Box::new(Embedding::new(&mut r, 256, 6)));
        m.add(Box::new(Flatten::new()));
        m.add(Box::new(Dense::new(&mut r, 96, 48)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 48, classes)));
        (("CNN-B"), m.to_spec("cnnb"), 16)
    };
    let cnn_m = {
        let mut m = Sequential::new();
        m.add(Box::new(Dense::new(&mut r, 16, 256)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 256, 256)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 256, classes)));
        (("CNN-M"), m.to_spec("cnnm"), 16)
    };
    let cnn_l = {
        let mut m = Sequential::new();
        m.add(Box::new(Dense::new(&mut r, 480, 192)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 192, 192)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 192, classes)));
        (("CNN-L"), m.to_spec("cnnl"), 480)
    };
    vec![mlp, rnn_like, cnn_b, cnn_m, cnn_l]
}

fn main() {
    let cfg = parse_args();
    let switch = SwitchConfig::tofino2();
    // Average packet size from the synthetic PeerRush mix.
    let data = prepare(&peerrush(), &cfg);
    let avg_pkt: f64 = data.test_trace.packets.iter().map(|p| p.wire_len as f64).sum::<f64>()
        / data.test_trace.packets.len().max(1) as f64;
    let line_rate = switch_line_rate(&switch, avg_pkt);

    let reps = if cfg.quick { 20 } else { 100 };
    let mut out = String::new();
    out.push_str("Figure 9d: throughput (samples/s)\n\n");
    out.push_str(&format!(
        "(avg packet {avg_pkt:.0} B; switch line rate {:.3e} pkts/s = samples/s)\n\n",
        line_rate
    ));
    out.push_str(&format!(
        "{:<8} {:>12} {:>12} {:>14} {:>11} {:>11}\n",
        "Model", "CPU", "GPU*", "Pegasus", "vs CPU", "vs GPU*"
    ));
    out.push_str(&"-".repeat(72));
    out.push('\n');

    for (name, spec, in_dim) in model_specs(3) {
        let x = Tensor::full(&[256, in_dim], 1.0);
        let cpu = cpu_throughput(&spec, &x, reps);
        let gpu = parallel_throughput(&spec, &x, reps);
        out.push_str(&format!(
            "{:<8} {:>12.3e} {:>12.3e} {:>14.3e} {:>10.0}x {:>10.0}x\n",
            name,
            cpu,
            gpu,
            line_rate,
            line_rate / cpu,
            line_rate / gpu
        ));
        eprintln!("[fig9d] {name} done");
    }
    out.push_str("\n(GPU* = all-core batched stand-in; see DESIGN.md substitutions)\n");

    // Transparency: the flat executor's own one-thread rate (not a hardware
    // claim): `classify` is a one-lane `FlatProgram::classify`.
    let settings = TrainSettings::quick();
    let m = MlpB::fit(&data.train.stat, None, &settings);
    let bundle = ModelData::new().with_stat(&data.train.stat);
    let dp = Pegasus::new(m).compile(&bundle).expect("compiles").deploy(&switch).expect("deploys");
    let n = data.test.stat.len().min(2000);
    let start = std::time::Instant::now();
    for r in 0..n {
        let _ = dp.classify(data.test.stat.x.row(r)).expect("classifies");
    }
    let flat_rate = n as f64 / start.elapsed().as_secs_f64();
    out.push_str(&format!(
        "(flat executor classifies ~{flat_rate:.0} rows/s on one thread of this host — host \
         software speed, not hardware)\n"
    ));

    println!("{out}");
    if let Some(p) = write_report("fig9_throughput", &out) {
        eprintln!("[fig9_throughput] written to {}", p.display());
    }
}
