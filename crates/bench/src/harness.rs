//! Shared experiment plumbing: argument parsing, dataset preparation,
//! report output.

use pegasus_core::models::TrainSettings;
use pegasus_datasets::{
    extract_views, generate_trace, split_by_flow, DatasetSpec, GenConfig, SampleViews,
};
use pegasus_net::Trace;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Common experiment knobs.
#[derive(Clone, Copy, Debug)]
pub struct BenchConfig {
    /// Flows generated per class.
    pub flows_per_class: usize,
    /// Master seed.
    pub seed: u64,
    /// Reduced-scale run.
    pub quick: bool,
    /// Run only the flow-churn section of a bench that has one (CI smoke
    /// mode; skips the full shard sweep and does not rewrite the
    /// committed results file).
    pub churn_only: bool,
    /// Run only the tenant-routing section (CI smoke mode; same skipping
    /// rules as `churn_only`): attaches a 1k-tenant fleet, asserts the
    /// routed/unrouted counters and a flat per-packet dispatch-cost bound.
    pub routing_only: bool,
    /// Run only the hot-swap cost section (CI smoke mode; same skipping
    /// rules as `churn_only`): measures the epoch/RCU apply latency, the
    /// throughput dip and the adopt-on-first-touch transplant progress,
    /// and asserts the stall-free counters (sub-millisecond apply, shard
    /// adoption; the pps dip is printed only).
    pub swap_only: bool,
}

impl BenchConfig {
    /// Training settings matched to the scale.
    pub fn train_settings(&self) -> TrainSettings {
        if self.quick {
            TrainSettings { epochs: 8, batch: 64, lr: 0.01, seed: self.seed }
        } else {
            TrainSettings { epochs: 30, batch: 64, lr: 0.005, seed: self.seed }
        }
    }
}

/// Parses the standard CLI flags (`--quick`, `--seed N`, `--flows N`,
/// `--churn-only`, `--routing-only`, `--swap-only`).
pub fn parse_args() -> BenchConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = BenchConfig {
        flows_per_class: 120,
        seed: 7,
        quick: false,
        churn_only: false,
        routing_only: false,
        swap_only: false,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                cfg.quick = true;
                cfg.flows_per_class = 30;
            }
            "--churn-only" => {
                cfg.churn_only = true;
            }
            "--routing-only" => {
                cfg.routing_only = true;
            }
            "--swap-only" => {
                cfg.swap_only = true;
            }
            "--seed" => {
                i += 1;
                cfg.seed = args[i].parse().expect("--seed takes a number");
            }
            "--flows" => {
                i += 1;
                cfg.flows_per_class = args[i].parse().expect("--flows takes a number");
            }
            other => panic!(
                "unknown argument {other} (try --quick / --seed N / --flows N / --churn-only / --routing-only / --swap-only)"
            ),
        }
        i += 1;
    }
    assert!(
        u8::from(cfg.churn_only) + u8::from(cfg.routing_only) + u8::from(cfg.swap_only) <= 1,
        "--churn-only, --routing-only and --swap-only are mutually exclusive (each runs only its own section)"
    );
    cfg
}

/// A dataset prepared for evaluation: split traces plus extracted views.
pub struct Prepared {
    /// Dataset name.
    pub name: String,
    /// Class count.
    pub classes: usize,
    /// Training views (stat/seq/raw).
    pub train: SampleViews,
    /// Validation views.
    pub val: SampleViews,
    /// Test views.
    pub test: SampleViews,
    /// The raw test trace (for per-flow replay evaluation).
    pub test_trace: Trace,
    /// The raw training trace.
    pub train_trace: Trace,
}

/// Generates, splits and featurizes one dataset.
pub fn prepare(spec: &DatasetSpec, cfg: &BenchConfig) -> Prepared {
    let trace =
        generate_trace(spec, &GenConfig { flows_per_class: cfg.flows_per_class, seed: cfg.seed });
    let (train, val, test) = split_by_flow(&trace, cfg.seed);
    Prepared {
        name: spec.name.clone(),
        classes: spec.num_classes(),
        train: extract_views(&train),
        val: extract_views(&val),
        test: extract_views(&test),
        test_trace: test,
        train_trace: train,
    }
}

/// Writes a report file under `target/experiments/` (best effort) and
/// returns its path.
pub fn write_report(name: &str, content: &str) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.txt"));
    let mut f = fs::File::create(&path).ok()?;
    f.write_all(content.as_bytes()).ok()?;
    Some(path)
}

/// Formats a fraction as the paper prints metrics (4 decimals).
pub fn fmt4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pegasus_datasets::peerrush;

    #[test]
    fn prepare_produces_aligned_views() {
        let cfg = BenchConfig {
            flows_per_class: 10,
            seed: 1,
            quick: true,
            churn_only: false,
            routing_only: false,
            swap_only: false,
        };
        let p = prepare(&peerrush(), &cfg);
        assert_eq!(p.classes, 3);
        assert!(!p.train.is_empty());
        assert!(!p.test.is_empty());
        assert_eq!(p.train.stat.len(), p.train.seq.len());
    }

    #[test]
    fn write_report_creates_file() {
        let path = write_report("selftest", "hello").expect("writable target dir");
        assert!(path.exists());
    }
}
