//! Throughput measurement for Figure 9d.
//!
//! Three execution targets, as in the paper (§7.5):
//!
//! * **CPU** — single-threaded full-precision inference, features
//!   pre-loaded in memory (the paper's idealized setup);
//! * **"GPU"** — batched inference across all cores with OS threads. This
//!   stands in for the paper's 4× V100 rig: what matters for the figure's
//!   shape is a fixed parallel speedup over CPU, not CUDA itself
//!   (substitution recorded in DESIGN.md);
//! * **Switch** — line rate. PISA runs any program that fits at line rate
//!   regardless of model size (§7.5), so dataplane samples/s is packets/s:
//!   `12.8 Tb/s ÷ (avg packet + overhead)` — workload-independent.
//!
//! The flat executor's own one-thread rows/s (`DataplaneModel::classify`,
//! a one-lane `FlatProgram::classify` over pre-extracted rows) is also
//! reported for transparency; it is a host software number, never a claim
//! about hardware.
//!
//! None of these is a serving number. The figure compares model inference
//! in a tight loop over pre-loaded tensors against an analytic line rate:
//! no frame is parsed, routed, admitted to a flow table or handed to a
//! shard. What this repo's engine serves — wire bytes → verdict through
//! `EngineServer`, in kpps — is measured by `servebench` (`benchmark/`,
//! `BENCHMARK.json`) and nowhere else.

use pegasus_nn::{Sequential, Tensor};
use pegasus_switch::SwitchConfig;
use std::sync::Arc;
use std::time::Instant;

/// Samples/s of single-threaded full-precision inference.
pub fn cpu_throughput(model_spec: &pegasus_nn::ModelSpec, x: &Tensor, reps: usize) -> f64 {
    let mut model = Sequential::from_spec(model_spec);
    // Warm up once.
    let _ = model.forward(x, false);
    let start = Instant::now();
    for _ in 0..reps {
        let _ = model.forward(x, false);
    }
    let secs = start.elapsed().as_secs_f64();
    (reps * x.shape()[0]) as f64 / secs
}

/// Samples/s of multi-threaded batched inference over all cores (the GPU
/// stand-in).
pub fn parallel_throughput(model_spec: &pegasus_nn::ModelSpec, x: &Tensor, reps: usize) -> f64 {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let spec = Arc::new(model_spec.clone());
    let rows = x.shape()[0];
    let x = Arc::new(x.clone());
    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let spec = Arc::clone(&spec);
            let x = Arc::clone(&x);
            std::thread::spawn(move || {
                let mut model = Sequential::from_spec(&spec);
                for _ in 0..reps {
                    let _ = model.forward(&x, false);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let secs = start.elapsed().as_secs_f64();
    (threads * reps * rows) as f64 / secs
}

/// Line-rate samples/s on the switch: one inference per packet at line rate.
pub fn switch_line_rate(cfg: &SwitchConfig, avg_packet_bytes: f64) -> f64 {
    cfg.line_rate_pps(avg_packet_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_nn::init::rng;
    use pegasus_nn::layers::{Dense, Relu};

    fn spec() -> pegasus_nn::ModelSpec {
        let mut r = rng(1);
        let mut m = Sequential::new();
        m.add(Box::new(Dense::new(&mut r, 16, 32)));
        m.add(Box::new(Relu::new()));
        m.add(Box::new(Dense::new(&mut r, 32, 3)));
        m.to_spec("t")
    }

    #[test]
    fn cpu_throughput_positive() {
        let x = Tensor::ones(&[64, 16]);
        let t = cpu_throughput(&spec(), &x, 10);
        assert!(t.is_finite() && t > 0.0, "throughput {t}");
    }

    #[test]
    fn switch_line_rate_dwarfs_cpu() {
        let cfg = SwitchConfig::tofino2();
        let line = switch_line_rate(&cfg, 700.0);
        // ~2.2 G packets/s at 700 B — orders of magnitude above any CPU.
        assert!(line > 1e9);
    }
}
