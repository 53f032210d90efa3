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

/// Parses the standard CLI flags (`--quick`, `--seed N`, `--flows N`);
/// anything else panics with a usage hint.
pub fn parse_args() -> BenchConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_from(&args).unwrap_or_else(|err| panic!("{err} (try --quick / --seed N / --flows N)"))
}

fn parse_from(args: &[String]) -> Result<BenchConfig, String> {
    let mut cfg = BenchConfig { flows_per_class: 120, seed: 7, quick: false };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                cfg.quick = true;
                cfg.flows_per_class = 30;
            }
            "--seed" => cfg.seed = number(arg, args.next())?,
            "--flows" => cfg.flows_per_class = number(arg, args.next())?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cfg)
}

fn number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    value.and_then(|v| v.parse().ok()).ok_or_else(|| format!("{flag} takes a number"))
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
    fn parse_from_covers_defaults_flags_and_bad_input() {
        let parse = |args: &[&str]| {
            parse_from(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
                .map(|c| (c.flows_per_class, c.seed, c.quick))
        };
        assert_eq!(parse(&[]), Ok((120, 7, false)));
        assert_eq!(parse(&["--quick"]), Ok((30, 7, true)));
        assert_eq!(parse(&["--seed", "3", "--flows", "8"]), Ok((8, 3, false)));
        // A value flag with nothing after it is a usage error like any other.
        assert_eq!(parse(&["--quick", "--seed"]), Err("--seed takes a number".into()));
        assert_eq!(parse(&["--flows", "many"]), Err("--flows takes a number".into()));
        assert_eq!(parse(&["--churn-only"]), Err("unknown argument --churn-only".into()));
    }

    #[test]
    fn prepare_produces_aligned_views() {
        let cfg = BenchConfig { flows_per_class: 10, seed: 1, quick: true };
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
