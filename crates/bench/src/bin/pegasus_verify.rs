//! `pegasus-verify` — static artifact verification over all nine nets.
//!
//! Trains and compiles every model of the evaluation (the six Pegasus
//! nets plus the three baselines), runs the three-layer static verifier
//! (see `pegasus_core::verify`) over each compiled artifact, and prints
//! one line per (net, analysis) pair:
//!
//! * **compile-time** — structural + interval + semantic layers, no
//!   switch model. Every net must verify with zero `Error` diagnostics:
//!   the compiler emitting a corrupt artifact is a bug, full stop.
//! * **tofino2** — the same plus the resource-accounting layer (`V204`).
//!   Every net except N3IC must fit; N3IC must *fail* with `V204`
//!   (the paper's §2 stage-wall result as a falsifiable check).
//!
//! * **flat vs simulator** — every stateless net that deploys on the
//!   Tofino-2 model and flattens must produce, through
//!   `FlatProgram::classify`/`scores`, exactly what the switch simulator
//!   (`DataplaneModel::classify`/`scores`) produces on its training rows
//!   (at least 500). The column also carries the matcher census —
//!   `dense/indexed` table counts; there is no scan fallback to count, a
//!   table with a key too wide to index makes the net not flatten — and
//!   the longest fused action run. Nets that do not flatten print the
//!   reason instead.
//!
//! Exit status is non-zero on any deviation, so CI can gate on it.
//! Standard flags apply (`--quick`, `--seed N`, `--flows N`).

use pegasus_baselines::{Bos, Leo, N3ic};
use pegasus_bench::harness::prepare;
use pegasus_bench::parse_args;
use pegasus_core::compile::CompileOptions;
use pegasus_core::models::autoencoder::AutoEncoder;
use pegasus_core::models::cnn_b::CnnB;
use pegasus_core::models::cnn_l::CnnL;
use pegasus_core::models::cnn_m::CnnM;
use pegasus_core::models::mlp_b::MlpB;
use pegasus_core::models::rnn_b::RnnB;
use pegasus_core::models::{DataplaneNet, ModelData, StreamFeatures};
use pegasus_core::pipeline::{Artifact, Pegasus};
use pegasus_core::runtime::DataplaneModel;
use pegasus_core::verify::VerifyReport;
use pegasus_datasets::peerrush;
use pegasus_switch::SwitchConfig;

/// Verification outcome for one net.
struct NetResult {
    name: &'static str,
    compile_time: VerifyReport,
    on_switch: VerifyReport,
    flat: FlatCheck,
}

/// The flat-vs-simulator differential of one net.
enum FlatCheck {
    /// The net never reaches a `FlatProgram` (why).
    Skipped(String),
    /// Rows compared, rows that differed, and the program's shape.
    Compared { rows: usize, mismatches: usize, dense: usize, indexed: usize, longest_run: usize },
}

/// Rows the differential must cover for a net that flattens.
const MIN_DIFF_ROWS: usize = 500;
/// Rows it stops at (the simulator side costs tens of µs per row).
const MAX_DIFF_ROWS: usize = 4000;

/// Holds `FlatProgram` to the simulator on the training rows of the
/// feature family the net is served with.
fn differential<M: DataplaneNet>(
    name: &'static str,
    model: &M,
    artifact: &Artifact,
    data: &ModelData<'_>,
    switch: &SwitchConfig,
) -> FlatCheck {
    let Artifact::Single(pipeline) = artifact else {
        return FlatCheck::Skipped("per-flow registers".into());
    };
    let dp = match DataplaneModel::deploy((**pipeline).clone(), switch) {
        Ok(dp) => dp,
        Err(e) => return FlatCheck::Skipped(format!("does not deploy: {e}")),
    };
    let Some(flat) = dp.flat() else {
        return FlatCheck::Skipped(dp.flatten_skip().map(ToString::to_string).unwrap_or_default());
    };
    let view = match model.stream_features() {
        StreamFeatures::Stat => data.stat(name),
        StreamFeatures::Seq => data.seq(name),
    }
    .unwrap_or_else(|e| panic!("{name} has its serving view: {e}"));
    let rows = view.len().min(MAX_DIFF_ROWS);
    let mut scratch = flat.scratch();
    // A net is a classifier, a scorer, or both; each side must agree,
    // errors included.
    let mismatches = (0..rows)
        .filter(|&r| {
            let row = view.x.row(r);
            flat.classify(row, &mut scratch) != dp.classify(row)
                || flat.scores(row, &mut scratch) != dp.scores(row)
        })
        .count();
    FlatCheck::Compared {
        rows,
        mismatches,
        dense: flat.dense_tables(),
        indexed: flat.indexed_tables(),
        longest_run: flat.longest_run(),
    }
}

fn check<M: DataplaneNet>(
    name: &'static str,
    data: &ModelData<'_>,
    opts: &CompileOptions,
    epochs: usize,
    seed: u64,
    switch: &SwitchConfig,
) -> NetResult {
    let settings = pegasus_core::models::TrainSettings { epochs, batch: 64, lr: 0.01, seed };
    let compiled = Pegasus::<M>::train(data, &settings)
        .unwrap_or_else(|e| panic!("{name} trains: {e}"))
        .options(opts.clone())
        .compile(data)
        .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
    NetResult {
        name,
        compile_time: compiled.artifact().verify(None),
        on_switch: compiled.artifact().verify(Some(switch)),
        flat: differential(name, compiled.model(), compiled.artifact(), data, switch),
    }
}

fn summarize(r: &VerifyReport) -> String {
    let (e, w) = (r.errors().count(), r.warnings().count());
    let codes: Vec<&str> = {
        let mut c: Vec<&str> = r.diagnostics.iter().map(|d| d.code).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    if codes.is_empty() {
        "clean".to_string()
    } else {
        format!("{e} error(s), {w} warning(s) [{}]", codes.join(", "))
    }
}

fn main() -> std::process::ExitCode {
    let cfg = parse_args();
    let switch = SwitchConfig::tofino2();
    let opts =
        CompileOptions { clustering_depth: if cfg.quick { 5 } else { 6 }, ..Default::default() };
    let p = prepare(&peerrush(), &cfg);
    let bundle = ModelData::new()
        .with_stat(&p.train.stat)
        .with_seq(&p.train.seq)
        .with_raw(&p.train.raw)
        .with_validation(&p.val.stat, &p.val.seq);
    let epochs = cfg.train_settings().epochs;
    let seed = cfg.seed;

    let results = [
        check::<MlpB>("MLP-B", &bundle, &opts, epochs, seed, &switch),
        check::<RnnB>("RNN-B", &bundle, &opts, epochs, seed, &switch),
        check::<CnnB>("CNN-B", &bundle, &opts, epochs, seed, &switch),
        check::<CnnM>("CNN-M", &bundle, &opts, epochs, seed, &switch),
        check::<CnnL>("CNN-L", &bundle, &opts, epochs, seed, &switch),
        check::<AutoEncoder>("AutoEncoder", &bundle, &opts, epochs, seed, &switch),
        check::<Leo>("Leo", &bundle, &opts, epochs, seed, &switch),
        check::<Bos>("BoS", &bundle, &opts, epochs, seed, &switch),
        check::<N3ic>("N3IC", &bundle, &opts, epochs, seed, &switch),
    ];

    println!(
        "{:<12} {:<40} {:<40} flat vs simulator (dense/indexed tables)",
        "net", "compile-time", "tofino2"
    );
    let mut failed = false;
    for r in &results {
        let flat = match &r.flat {
            FlatCheck::Skipped(why) => format!("- ({why})"),
            FlatCheck::Compared { rows, mismatches, dense, indexed, longest_run } => format!(
                "{mismatches} mismatch(es) on {rows} rows; {dense}/{indexed} tables, \
                 longest run {longest_run}"
            ),
        };
        println!(
            "{:<12} {:<40} {:<40} {flat}",
            r.name,
            summarize(&r.compile_time),
            summarize(&r.on_switch)
        );
        if let FlatCheck::Compared { rows, mismatches, .. } = r.flat {
            if mismatches > 0 || rows < MIN_DIFF_ROWS {
                eprintln!(
                    "FAIL: {} flat vs simulator: {mismatches} mismatch(es) on {rows} rows \
                     (need 0 on at least {MIN_DIFF_ROWS})",
                    r.name
                );
                failed = true;
            }
        }
        if r.compile_time.has_errors() {
            eprintln!("FAIL: {} has compile-time verifier errors:\n{}", r.name, r.compile_time);
            failed = true;
        }
        if r.name == "N3IC" {
            // The paper's stage-wall result: N3IC must be rejected by the
            // resource layer, and by exactly that layer.
            if !r.on_switch.has_code("V204") {
                eprintln!("FAIL: N3IC was expected to overflow tofino2 (V204):\n{}", r.on_switch);
                failed = true;
            }
        } else if r.on_switch.has_errors() {
            eprintln!("FAIL: {} does not verify on tofino2:\n{}", r.name, r.on_switch);
            failed = true;
        }
    }
    if failed {
        return std::process::ExitCode::FAILURE;
    }
    println!(
        "all nets verified: 8/8 clean on tofino2, N3IC rejected by V204 as expected, \
         0 flat-vs-simulator mismatches"
    );
    std::process::ExitCode::SUCCESS
}
