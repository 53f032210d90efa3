//! `servebench --workload <name> --seed <n> [--seconds S] [--trace 0|1]`
//!
//! Prints every measured metric as a `metric <name> <value> <unit>` line,
//! then — last line of stdout — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`). Exits non-zero when
//! anything served differed from what was expected.
//!
//! Other modes: `--check` (set-up and the correctness pass only),
//! `--parity` (the daemon parity pass only), `--aa N` (N runs of the same
//! workload and seed, each in a process of its own, judged against the
//! manifest's bounds), `--print-manifest` (`BENCHMARK.json`).

use servebench::manifest::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use servebench::run::{check_only, parity_only, run, Options, RunResult};
use servebench::stats::{quartiles, relative_spread};
use servebench::workload::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: servebench --workload <mlp_steady|cnn_flowreg|mice_fleet|burst_rtt> \
                     --seed <n> [--seconds S] [--trace 0|1] [--check | --parity | --aa [N]] \
                     [--out-dir DIR] | --print-manifest";

enum Mode {
    Run,
    Check,
    Parity,
    AA(usize),
}

fn parse_args() -> Result<Option<(Options, Mode)>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = f64::from(RUN_SECONDS);
    let mut trace = false;
    let mut mode = Mode::Run;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-manifest" => return Ok(None),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => mode = Mode::Check,
            "--parity" => mode = Mode::Parity,
            "--aa" => {
                let n = match args.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        args.next();
                        n
                    }
                    None => 5,
                };
                if n < 2 {
                    return Err("--aa needs at least 2 runs".to_string());
                }
                mode = Mode::AA(n);
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // From the repo root (how the driver runs it) output goes under the
    // benchmark's own directory; from inside that directory, beside it.
    let out_dir = out_dir.unwrap_or_else(|| {
        if Path::new("benchmark/Cargo.toml").exists() { "benchmark/out" } else { "out" }.into()
    });
    Ok(Some((Options { workload, seed, seconds, trace, out_dir }, mode)))
}

/// The names the last-line JSON must carry for this kind of run.
fn reported(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

fn print_result(result: &RunResult, names: &[&'static str]) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: {cores} core(s) for one client thread and one shard worker");
    println!("check: {} verdicts compared position by position", result.verdicts_checked);
    for (label, values) in &result.samples {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        println!("samples {label}: {}", values.join(" "));
    }
    for (name, value) in &result.metrics {
        println!("metric {name} {value} {}", manifest::unit_of(name).unwrap_or("?"));
    }
    let correct = result.failed == 0 && names.iter().all(|n| result.metrics.contains_key(n));
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|n| result.metrics.get(n).map(|v| (n, v)))
        // A ratio over a layer the workload never entered is 0/0; the
        // contract's JSON has no NaN.
        .map(|(n, v)| (n, if v.is_finite() { *v } else { 0.0 }))
        .map(|(n, v)| {
            format!(
                "\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                manifest::unit_of(n).unwrap_or("?")
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    correct
}

/// Runs the workload `n` times, one child process each, and judges every
/// end-to-end metric's inter-quartile spread against its bound.
fn aa(opts: &Options, n: usize) -> bool {
    let exe = std::env::current_exe().expect("own path is known");
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for i in 0..n {
        let output = Command::new(&exe)
            .args(["--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", "0"])
            .arg("--out-dir")
            .arg(&opts.out_dir)
            .output()
            .expect("child run starts");
        if !output.status.success() {
            eprintln!(
                "servebench: A/A run {i} failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            return false;
        }
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut words = line.split(' ');
            if let (Some("metric"), Some(name), Some(value)) =
                (words.next(), words.next(), words.next())
            {
                if let Ok(v) = value.parse::<f64>() {
                    samples.entry(name.to_string()).or_default().push(v);
                }
            }
        }
    }
    println!("A/A {} seed {} x{n} ({} s each)", opts.workload.name(), opts.seed, opts.seconds);
    let mut within = true;
    for m in END_TO_END {
        let values = &samples[m.name];
        let [q1, q2, q3] = quartiles(values);
        let spread = relative_spread(values);
        // setup_s is judged on its median only (it has the widest bound and
        // the driver exempts its spread); everything else must sit inside.
        let ok = spread <= m.bound || m.name == "setup_s";
        within &= ok;
        println!(
            "  {:<18} median {q2:>10.3} {:<5} q1 {q1:>10.3} q3 {q3:>10.3} spread {:>6.2}% bound {:>5.1}% {}",
            m.name,
            m.unit,
            spread * 100.0,
            m.bound * 100.0,
            if ok { "ok" } else { "EXCEEDED" }
        );
    }
    within
}

fn main() -> ExitCode {
    let (opts, mode) = match parse_args() {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            print!("{}", manifest::render());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("servebench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match mode {
        Mode::Run => print_result(&run(&opts), &reported(opts.trace)),
        Mode::Check => print_result(&check_only(&opts), &[]),
        Mode::Parity => print_result(&parity_only(&opts), &["ctl.ingest_pcap_kpps"]),
        Mode::AA(n) => aa(&opts, n),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
