//! Uniform train → compile → deploy → evaluate drivers for all eight
//! methods of Table 5, all through the one `DataplaneNet` trait and
//! `Pegasus` builder.

use crate::harness::{BenchConfig, Prepared};
use pegasus_baselines::{Bos, Leo, N3ic};
use pegasus_core::compile::CompileOptions;
use pegasus_core::error::PegasusError;
use pegasus_core::models::autoencoder::AutoEncoder;
use pegasus_core::models::cnn_b::CnnB;
use pegasus_core::models::cnn_l::CnnL;
use pegasus_core::models::cnn_m::CnnM;
use pegasus_core::models::mlp_b::MlpB;
use pegasus_core::models::rnn_b::RnnB;
use pegasus_core::models::{DataplaneNet, ModelData};
use pegasus_core::pipeline::{Deployment, Pegasus};
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::Dataset;
use pegasus_switch::{ResourceReport, SwitchConfig};

/// The eight evaluated methods, in the paper's Table 5 row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Leo decision tree (baseline).
    Leo,
    /// N3IC binary MLP (baseline, software-evaluated like the paper).
    N3ic,
    /// Pegasus MLP-B.
    MlpB,
    /// BoS binary RNN (baseline).
    Bos,
    /// Pegasus RNN-B.
    RnnB,
    /// Pegasus CNN-B.
    CnnB,
    /// Pegasus CNN-M.
    CnnM,
    /// Pegasus CNN-L (44-bit variant).
    CnnL,
}

impl Method {
    /// All methods in row order.
    pub fn all() -> [Method; 8] {
        [
            Method::Leo,
            Method::N3ic,
            Method::MlpB,
            Method::Bos,
            Method::RnnB,
            Method::CnnB,
            Method::CnnM,
            Method::CnnL,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Leo => "Leo (Decision Tree)",
            Method::N3ic => "N3IC (binary MLP)",
            Method::MlpB => "MLP-B",
            Method::Bos => "BoS (binary RNN)",
            Method::RnnB => "RNN-B",
            Method::CnnB => "CNN-B",
            Method::CnnM => "CNN-M",
            Method::CnnL => "CNN-L",
        }
    }

    /// Input scale in bits (Table 5 column).
    pub fn input_bits(&self) -> usize {
        match self {
            Method::Leo | Method::MlpB | Method::RnnB | Method::CnnB | Method::CnnM => 128,
            Method::N3ic => N3ic::input_bits(),
            Method::Bos => Bos::input_bits(),
            Method::CnnL => CnnL::input_bits(),
        }
    }
}

/// One Table 5 row: metrics for a single (method, dataset) pair.
#[derive(Clone, Debug)]
pub struct MethodResult {
    /// Method display name.
    pub method: &'static str,
    /// Input scale in bits.
    pub input_bits: usize,
    /// Model size in kilobits.
    pub size_kb: f64,
    /// On-switch (deployed-semantics) macro metrics.
    pub dataplane: PrRcF1,
    /// Full-precision (CPU) macro metrics — the Figure 9 comparison.
    pub float: PrRcF1,
    /// Switch resource report when the method deploys (None for N3IC).
    pub resources: Option<ResourceReport>,
}

/// The generic train → compile → deploy → evaluate path every deployable
/// method flows through. `train` drives training and compilation; `test`
/// provides the held-out views for both the full-precision reference and
/// the dataplane evaluation (`eval` names the test view this method's
/// verdicts are scored on).
fn drive<M: DataplaneNet>(
    train: &ModelData<'_>,
    test: &ModelData<'_>,
    eval: &Dataset,
    opts: &CompileOptions,
    cfg: &BenchConfig,
    switch: &SwitchConfig,
) -> Result<MethodResult, PegasusError> {
    let settings = cfg.train_settings();
    let mut model = M::train(train, &settings)?;
    let float = model.evaluate_float(test)?;
    let size_kb = model.size_kilobits();
    let dp = Pegasus::new(model).options(opts.clone()).compile(train)?.deploy(switch)?;
    let dataplane = dp.evaluate(eval)?;
    Ok(MethodResult {
        method: dp.model().name(),
        input_bits: 0, // stamped once by run_method from Method::input_bits
        size_kb,
        dataplane,
        float,
        resources: Some(dp.resource_report()),
    })
}

/// Trains, deploys and evaluates one method on one prepared dataset.
pub fn run_method(method: Method, data: &Prepared, cfg: &BenchConfig) -> MethodResult {
    let settings = cfg.train_settings();
    let opts =
        CompileOptions { clustering_depth: if cfg.quick { 5 } else { 6 }, ..Default::default() };
    let switch = SwitchConfig::tofino2();
    let bundle = ModelData::new()
        .with_stat(&data.train.stat)
        .with_seq(&data.train.seq)
        .with_raw(&data.train.raw)
        .with_validation(&data.val.stat, &data.val.seq);
    let test_bundle = ModelData::new()
        .with_stat(&data.test.stat)
        .with_seq(&data.test.seq)
        .with_raw(&data.test.raw);
    let mut result = match method {
        Method::Leo => drive::<Leo>(&bundle, &test_bundle, &data.test.stat, &opts, cfg, &switch)
            .expect("Leo deploys"),
        Method::N3ic => {
            // N3IC does not fit the switch (OutOfStages by §2's cost
            // model); deployed semantics are the bit-exact packed
            // XNOR/popcnt path in software, like the paper's evaluation of
            // its largest configuration.
            let mut m = N3ic::train(&bundle, &settings).expect("stat view present");
            let float = m.evaluate_float(&test_bundle).expect("evaluates");
            let packed = m.pack();
            let preds: Vec<usize> = (0..data.test.stat.len())
                .map(|r| packed.classify_codes(data.test.stat.x.row(r)))
                .collect();
            let dataplane = pr_rc_f1(&data.test.stat.y, &preds, data.classes);
            MethodResult {
                method: method.name(),
                input_bits: 0,
                size_kb: m.size_kilobits(),
                dataplane,
                float,
                resources: None,
            }
        }
        Method::MlpB => {
            let opts = CompileOptions { finetune_centroids: !cfg.quick, ..opts };
            drive::<MlpB>(&bundle, &test_bundle, &data.test.stat, &opts, cfg, &switch)
                .expect("MLP-B deploys")
        }
        Method::Bos => drive::<Bos>(&bundle, &test_bundle, &data.test.seq, &opts, cfg, &switch)
            .expect("BoS deploys"),
        Method::RnnB => drive::<RnnB>(&bundle, &test_bundle, &data.test.seq, &opts, cfg, &switch)
            .expect("RNN-B deploys"),
        Method::CnnB => drive::<CnnB>(&bundle, &test_bundle, &data.test.seq, &opts, cfg, &switch)
            .expect("CNN-B deploys"),
        Method::CnnM => drive::<CnnM>(&bundle, &test_bundle, &data.test.seq, &opts, cfg, &switch)
            .expect("CNN-M deploys"),
        Method::CnnL => {
            // Per-flow pipeline: trace replay, not row evaluation.
            let mut model = CnnL::train(&bundle, &settings).expect("views present");
            let float = model.evaluate_float(&test_bundle).expect("evaluates");
            let size_kb = model.size_kilobits();
            let dp = Pegasus::new(model)
                .options(opts.clone())
                .compile(&bundle)
                .expect("compiles")
                .deploy(&switch)
                .expect("CNN-L deploys");
            let resources = dp.resource_report();
            let dataplane = CnnL::evaluate_on_trace(dp.flow().expect("per-flow"), &data.test_trace)
                .expect("replays");
            MethodResult {
                method: method.name(),
                input_bits: 0,
                size_kb,
                dataplane,
                float,
                resources: Some(resources),
            }
        }
    };
    result.input_bits = method.input_bits();
    result
}

/// Trains + compiles the AutoEncoder (Table 6 / Figure 8 driver). Returns
/// the deployment, which keeps the trained detector accessible via
/// [`Deployment::model_mut`].
pub fn train_autoencoder(data: &Prepared, cfg: &BenchConfig) -> Deployment<AutoEncoder> {
    let mut settings = cfg.train_settings();
    settings.epochs = settings.epochs.max(30);
    let bundle = ModelData::new().with_seq(&data.train.seq);
    let ae = AutoEncoder::train(&bundle, &settings).expect("seq view present");
    Pegasus::new(ae)
        .compile(&bundle)
        .expect("AE compiles")
        .deploy(&SwitchConfig::tofino2())
        .expect("AE deploys")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::prepare;
    use pegasus_datasets::peerrush;

    #[test]
    fn leo_runs_end_to_end_quick() {
        let cfg = BenchConfig { flows_per_class: 12, seed: 2, quick: true };
        let p = prepare(&peerrush(), &cfg);
        let r = run_method(Method::Leo, &p, &cfg);
        assert!(r.dataplane.f1 > 0.4, "{:?}", r.dataplane);
        assert!(r.resources.is_some());
    }

    /// FNV-1a over the bit pattern of every score `dp` gives `rows`.
    fn fold_scores(h: u64, dp: &pegasus_core::runtime::DataplaneModel, rows: &Dataset) -> u64 {
        (0..rows.len())
            .flat_map(|r| dp.scores(rows.x.row(r)).expect("scores"))
            .fold(h, |h, s| (h ^ u64::from(s.to_bits())).wrapping_mul(0x100_0000_01b3))
    }

    /// The `--quick` tables print F1 to four decimals, so a one-ulp score
    /// shift leaves every fixture byte-identical; this pins every score
    /// bit of MLP-B and the AutoEncoder as `--quick` builds them on
    /// PeerRush, over their test rows.
    #[test]
    fn quick_scores_fold_to_their_pinned_value() {
        let cfg = BenchConfig { flows_per_class: 30, seed: 7, quick: true };
        let p = prepare(&peerrush(), &cfg);
        // `run_method`'s MLP-B at --quick: depth 5, no centroid fine-tune.
        let bundle = ModelData::new()
            .with_stat(&p.train.stat)
            .with_seq(&p.train.seq)
            .with_raw(&p.train.raw)
            .with_validation(&p.val.stat, &p.val.seq);
        let mlp = MlpB::train(&bundle, &cfg.train_settings()).expect("trains");
        let opts =
            CompileOptions { clustering_depth: 5, finetune_centroids: false, ..Default::default() };
        let mlp = Pegasus::new(mlp)
            .options(opts)
            .compile(&bundle)
            .expect("compiles")
            .deploy(&SwitchConfig::tofino2())
            .expect("deploys");
        let ae = train_autoencoder(&p, &cfg);
        let h =
            fold_scores(0xcbf2_9ce4_8422_2325, mlp.dataplane().expect("stateless"), &p.test.stat);
        let h = fold_scores(h, ae.dataplane().expect("stateless"), &p.test.seq);
        assert_eq!(
            (p.test.stat.len(), p.test.seq.len(), h),
            (228, 228, 0x855a_1232_f8f2_e1c4),
            "a score moved: compile, flatten or the flat executor changed"
        );
    }

    #[test]
    fn mlp_b_runs_end_to_end_quick() {
        let cfg = BenchConfig { flows_per_class: 12, seed: 3, quick: true };
        let p = prepare(&peerrush(), &cfg);
        let r = run_method(Method::MlpB, &p, &cfg);
        assert!(r.dataplane.f1 > 0.3, "{:?}", r.dataplane);
        assert!(r.float.f1 >= r.dataplane.f1 - 0.3);
    }
}
