//! Deployed-model runtime: feeding feature codes through the dataplane.
//!
//! It holds one copy of the tables (the pipeline's `Arc<SwitchProgram>`,
//! which its [`LoadedProgram`] shares), the [`FlatProgram`] baked from
//! them and no per-flow state; the engine shares it whole by `Arc`.
//!
//! Every verdict it hands out comes from the [`FlatProgram`], the executor
//! a stateless shard serves with; the switch simulator runs only in
//! [`simulate_classify`](DataplaneModel::simulate_classify) /
//! [`simulate_scores`](DataplaneModel::simulate_scores), the oracle the
//! differential suites hold that executor against. Every method takes
//! `&self`; misuse returns [`PegasusError`] instead of panicking.

use crate::compile::CompiledPipeline;
use crate::engine::FlatProgram;
use crate::error::PegasusError;
use crate::primitives::{Primitive, PrimitiveProgram};
use crate::verify::verify_pipeline_with;
use pegasus_nn::metrics::{pr_rc_f1, PrRcF1};
use pegasus_nn::Dataset;
use pegasus_switch::{FieldId, LoadedProgram, RegFile, ResourceReport, SwitchConfig};
use std::sync::Arc;

/// Samples per executor sweep when a whole dataset or trace is replayed
/// offline: the 64-lane run a shard serves.
pub(crate) const EVAL_RUN: usize = 64;

/// A verified compiled pipeline, flattened and loaded onto the switch
/// model, ready to classify.
pub struct DataplaneModel {
    pipeline: CompiledPipeline,
    loaded: LoadedProgram,
    /// The flattened-LUT program, baked once at deploy time: what every
    /// verdict, offline or served, comes from.
    pub(crate) flat: FlatProgram,
}

impl DataplaneModel {
    /// Statically verifies the pipeline, validates it against a switch
    /// configuration and loads it.
    ///
    /// The static verifier (see [`crate::verify`]) runs first: artifacts
    /// with any `Error`-severity diagnostic are rejected with
    /// [`PegasusError::Verify`] before the resource model ever sees them.
    /// Resource fit is deliberately left to the switch model's own typed
    /// [`DeployError`](pegasus_switch::DeployError) (richer than a `V204`
    /// diagnostic); the verifier's resource layer covers the same
    /// accounting when invoked with a config. The pipeline is baked into a
    /// [`FlatProgram`] — the executor every verdict comes from (see
    /// [`flat`](DataplaneModel::flat)) — once, inside the verifier run, so
    /// the program proved in-bounds is the one kept.
    pub fn deploy(pipeline: CompiledPipeline, cfg: &SwitchConfig) -> Result<Self, PegasusError> {
        Self::verify_and_load(pipeline, cfg, None)
    }

    /// [`deploy`](DataplaneModel::deploy) with the verifier's resource
    /// layer holding the program to `verify_cfg` — the serving engine's
    /// first admission of a content passes the model it loads onto.
    pub(crate) fn verify_and_load(
        pipeline: CompiledPipeline,
        cfg: &SwitchConfig,
        verify_cfg: Option<&SwitchConfig>,
    ) -> Result<Self, PegasusError> {
        let (report, flat) =
            verify_pipeline_with(&pipeline, verify_cfg, || FlatProgram::from_pipeline(&pipeline));
        let Some(flat) = flat.filter(|_| !report.has_errors()) else {
            return Err(PegasusError::Verify { report: Box::new(report) });
        };
        let loaded = Arc::clone(&pipeline.program).deploy(cfg)?;
        Ok(DataplaneModel { pipeline, loaded, flat })
    }

    /// The compiled artifact.
    pub fn pipeline(&self) -> &CompiledPipeline {
        &self.pipeline
    }

    /// The flattened-LUT program [`classify`](DataplaneModel::classify) and
    /// the engine run — always `Some`: every pipeline the verifier accepts
    /// flattens (the `Option` is kept for callers written against the
    /// fallible form). Bit-identical to
    /// [`simulate_classify`](DataplaneModel::simulate_classify), which the
    /// differential suites assert over whole traces.
    pub fn flat(&self) -> Option<&FlatProgram> {
        Some(&self.flat)
    }

    /// Switch resource utilization (the Table 6 row).
    pub fn resource_report(&self) -> ResourceReport {
        self.loaded.resource_report()
    }

    /// The switch configuration this model was deployed against (its SRAM
    /// model bounds per-tenant flow-state budgets in the serving engine).
    pub fn switch_config(&self) -> &SwitchConfig {
        self.loaded.config()
    }

    /// Classifies one sample of feature codes (each in `[0, 255]`): a
    /// one-lane [`FlatProgram::classify`].
    pub fn classify(&self, codes: &[f32]) -> Result<usize, PegasusError> {
        self.flat.classify(codes, &mut self.flat.scratch())
    }

    /// Classifies a batch of samples, one verdict per row, through one
    /// reused scratch; a row of the wrong arity fails alone.
    pub fn classify_batch(&self, rows: &[Vec<f32>]) -> Vec<Result<usize, PegasusError>> {
        let mut scratch = self.flat.scratch();
        rows.iter().map(|r| self.flat.classify(r, &mut scratch)).collect()
    }

    /// Decoded output scores of one sample: a one-lane
    /// [`FlatProgram::scores`].
    pub fn scores(&self, codes: &[f32]) -> Result<Vec<f32>, PegasusError> {
        self.flat.scores(codes, &mut self.flat.scratch())
    }

    /// Evaluates classification quality over a dataset of code rows, swept
    /// through [`FlatProgram::classify_batch`] 64 rows at a time plus a
    /// ragged tail — the runs a stateless shard serves.
    pub fn evaluate(&self, data: &Dataset) -> Result<PrRcF1, PegasusError> {
        let n = data.len();
        let (mut scratch, mut run) = (self.flat.batch_scratch(EVAL_RUN), Vec::new());
        let mut preds = Vec::with_capacity(n);
        for start in (0..n).step_by(EVAL_RUN) {
            let lanes = EVAL_RUN.min(n - start);
            let arity = data.x.row(start).len();
            let codes = &data.x.data()[start * arity..][..lanes * arity];
            self.flat.classify_batch(codes, lanes, &mut scratch, &mut run)?;
            preds.extend_from_slice(&run);
        }
        Ok(pr_rc_f1(&data.y, &preds, data.classes()))
    }

    /// The switch simulator's class for one sample: the oracle the
    /// differential suites hold [`classify`](DataplaneModel::classify)
    /// against, not a serving path.
    pub fn simulate_classify(&self, codes: &[f32]) -> Result<usize, PegasusError> {
        let phv = self.simulate(codes)?;
        let f = self.pipeline.predicted_field.ok_or_else(|| PegasusError::NotAClassifier {
            pipeline: self.pipeline.program.name.clone(),
        })?;
        Ok(phv.get(f) as usize)
    }

    /// The switch simulator's decoded scores for one sample: the oracle
    /// [`scores`](DataplaneModel::scores) is held against.
    pub fn simulate_scores(&self, codes: &[f32]) -> Result<Vec<f32>, PegasusError> {
        if self.pipeline.score_fields.is_empty() {
            return Err(PegasusError::NoScores { pipeline: self.pipeline.program.name.clone() });
        }
        let phv = self.simulate(codes)?;
        Ok(self
            .pipeline
            .score_fields
            .iter()
            .map(|&f| self.pipeline.score_format.to_real(phv.get(f)))
            .collect())
    }

    fn simulate(&self, codes: &[f32]) -> Result<pegasus_switch::Phv, PegasusError> {
        if codes.len() != self.pipeline.input_fields.len() {
            return Err(PegasusError::FeatureCount {
                expected: self.pipeline.input_fields.len(),
                got: codes.len(),
            });
        }
        let inputs: Vec<(FieldId, i64)> = self
            .pipeline
            .input_fields
            .iter()
            .zip(codes.iter())
            .map(|(&f, &v)| (f, v.round().clamp(0.0, 255.0) as i64))
            .collect();
        // Samples are independent: each starts from zeroed registers — an
        // empty, allocation-free file for every register-free pipeline.
        Ok(self.loaded.process(&inputs, &mut RegFile::new(&self.pipeline.program.registers)))
    }
}

/// Corrupts a compiled pipeline as a bit-rotted artifact would be: the
/// first entry names a nonexistent action (`V003`).
#[cfg(test)]
pub(crate) fn corrupt_first_entry(pipeline: &mut CompiledPipeline) {
    let t = Arc::make_mut(&mut pipeline.program)
        .tables
        .iter_mut()
        .find(|t| !t.entries.is_empty())
        .expect("has entries");
    t.entries[0].action_idx = 999;
}

/// Finds the top-level input partition of a (fused) program: the segment
/// values, offsets and lengths of the `Partition` op that consumes the
/// program input. Returns `None` when the program maps the input whole.
pub fn input_partition(prog: &PrimitiveProgram) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    prog.ops.iter().find_map(|op| match op {
        Primitive::Partition { input, offsets, lens, outputs } if *input == prog.input => {
            Some((outputs.iter().map(|v| v.0).collect(), offsets.clone(), lens.clone()))
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, CompileTarget};
    use crate::fusion::fuse_basic;
    use crate::primitives::MapFn;
    use pegasus_nn::Tensor;
    use rand::Rng;
    use rand::SeedableRng;

    fn scorer() -> PrimitiveProgram {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let w0 = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]);
        let w1 = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[2, 2]);
        let m0 = p.map(segs[0], MapFn::MatVec { weight: w0, bias: vec![0.0, 0.0] });
        let m1 = p.map(segs[1], MapFn::MatVec { weight: w1, bias: vec![0.0, 0.0] });
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        p
    }

    fn inputs(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..4).map(|_| rng.gen_range(0..256) as f32).collect()).collect()
    }

    #[test]
    fn deploy_and_classify() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(1500, 1),
            &CompileOptions { clustering_depth: 6, ..Default::default() },
            CompileTarget::Classify,
            "rt",
        )
        .expect("compiles");
        let m = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        assert!(Arc::ptr_eq(&m.pipeline().program, m.loaded.program()), "deploy copied the tables");
        // Clearly separated sample: class 1 (x2+x3 dominates).
        let pred = m.classify(&[10.0, 10.0, 250.0, 250.0]).expect("classifies");
        assert_eq!(pred, 1);
        let pred = m.classify(&[250.0, 250.0, 10.0, 10.0]).expect("classifies");
        assert_eq!(pred, 0);
    }

    #[test]
    fn evaluate_reports_macro_f1() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let train = inputs(1500, 2);
        let c = compile(
            &prog,
            &train,
            &CompileOptions { clustering_depth: 6, ..Default::default() },
            CompileTarget::Classify,
            "rt",
        )
        .expect("compiles");
        let m = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        // Labels from the reference program.
        let test = inputs(300, 3);
        let labels: Vec<usize> = test
            .iter()
            .map(|x| {
                let s = prog.eval(x);
                usize::from(s[1] > s[0])
            })
            .collect();
        let flat: Vec<f32> = test.iter().flatten().copied().collect();
        let data = Dataset::new(Tensor::from_vec(flat, &[300, 4]), labels);
        let m1 = m.evaluate(&data).expect("evaluates");
        assert!(m1.f1 > 0.9, "dataplane F1 {}", m1.f1);
    }

    #[test]
    fn resource_report_nonzero() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(800, 4),
            &CompileOptions::default(),
            CompileTarget::Classify,
            "rt",
        )
        .expect("compiles");
        let m = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let r = m.resource_report();
        assert!(r.tcam_bits > 0, "fuzzy tables should use TCAM");
        assert!(r.stages_used > 0);
    }

    #[test]
    fn input_partition_found_after_fusion() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let (values, offsets, lens) = input_partition(&prog).expect("partition exists");
        assert_eq!(offsets, vec![0, 2]);
        assert_eq!(lens, vec![2, 2]);
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn wrong_feature_count_is_an_error_not_a_panic() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(500, 5),
            &CompileOptions::default(),
            CompileTarget::Classify,
            "rt",
        )
        .expect("compiles");
        let m = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let err = m.classify(&[1.0, 2.0]).unwrap_err();
        assert_eq!(err, PegasusError::FeatureCount { expected: 4, got: 2 });
    }

    #[test]
    fn scores_pipeline_rejects_class_queries() {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let c = compile(
            &prog,
            &inputs(500, 6),
            &CompileOptions::default(),
            CompileTarget::Scores,
            "rt",
        )
        .expect("compiles");
        let m = DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap();
        let err = m.classify(&[1.0, 2.0, 3.0, 4.0]).unwrap_err();
        assert!(matches!(err, PegasusError::NotAClassifier { .. }), "{err:?}");
        // Scores still work.
        assert_eq!(m.scores(&[1.0, 2.0, 3.0, 4.0]).expect("scores").len(), 2);
    }

    fn deployed(target: CompileTarget, seed: u64) -> DataplaneModel {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        let opts = CompileOptions { clustering_depth: 6, ..Default::default() };
        let c = compile(&prog, &inputs(1500, seed), &opts, target, "rt").expect("compiles");
        DataplaneModel::deploy(c, &SwitchConfig::tofino2()).unwrap()
    }

    #[test]
    fn classify_batch_matches_one_lane_classify_and_a_bad_row_errors_alone() {
        let m = deployed(CompileTarget::Classify, 7);
        let rows = inputs(600, 8);
        let batch: Vec<usize> =
            m.classify_batch(&rows).into_iter().map(|r| r.expect("classifies")).collect();
        for (row, &b) in rows.iter().zip(batch.iter()) {
            assert_eq!(m.classify(row).unwrap(), b);
        }
        // A bad row yields an error without poisoning the rest.
        let mut mixed = rows[..10].to_vec();
        mixed.push(vec![1.0]);
        let verdicts = m.classify_batch(&mixed);
        assert!(verdicts[..10].iter().all(|v| v.is_ok()));
        assert!(verdicts[10].is_err());
    }

    /// Every verdict the runtime hands out — one lane, a batch, a whole
    /// evaluation in 64-row runs with a ragged tail (600 = 9 × 64 + 24) —
    /// equals the switch simulator's, and so do its typed errors.
    #[test]
    fn evaluate_classify_batch_and_scores_match_the_simulator_oracle() {
        let rows = inputs(600, 9);
        let codes = || Tensor::from_vec(rows.iter().flatten().copied().collect(), &[600, 4]);
        let m = deployed(CompileTarget::Classify, 10);
        let want: Vec<usize> = rows.iter().map(|r| m.simulate_classify(r).unwrap()).collect();
        let got: Vec<usize> = m.classify_batch(&rows).into_iter().map(Result::unwrap).collect();
        assert_eq!(got, want);
        // Labelled with the oracle's verdicts, a perfect score means every
        // row of every run, the tail included, matched it.
        let data = Dataset::new(codes(), want.clone());
        assert!(want.contains(&0) && want.contains(&1), "both classes occur");
        let eval = m.evaluate(&data).expect("evaluates");
        assert_eq!(eval, pr_rc_f1(&want, &want, data.classes()));
        assert_eq!(eval.f1, 1.0);
        // One bad row of a mixed batch fails alone, with the one-row count.
        let mut mixed = rows[..5].to_vec();
        mixed.insert(2, vec![1.0]);
        let verdicts = m.classify_batch(&mixed);
        assert_eq!(verdicts[2], Err(PegasusError::FeatureCount { expected: 4, got: 1 }));
        let rest: Vec<usize> = verdicts.iter().filter_map(|v| v.clone().ok()).collect();
        assert_eq!(rest, want[..5]);

        let scorer = deployed(CompileTarget::Scores, 11);
        for row in &rows {
            assert_eq!(scorer.scores(row).unwrap(), scorer.simulate_scores(row).unwrap());
        }
        let err = scorer.evaluate(&Dataset::new(codes(), want)).unwrap_err();
        assert!(matches!(err, PegasusError::NotAClassifier { .. }), "{err:?}");
        assert_eq!(scorer.simulate_classify(&rows[0]), Err(err));
    }

    /// A corrupted artifact must be turned away at the engine's door —
    /// both attach and swap. Building the artifact deploys nothing, so the
    /// pipeline is corrupted before it is built, and the engine's one
    /// verifier run at admission is the gate.
    #[test]
    fn engine_rejects_corrupted_artifact_at_attach_and_swap() {
        use crate::engine::server::{EngineArtifact, EngineBuilder, TenantConfig};
        use crate::error::PegasusError;
        use crate::models::StreamFeatures;

        let build = |corrupt: bool| {
            let mut prog = scorer();
            fuse_basic(&mut prog);
            let mut c = compile(
                &prog,
                &inputs(1200, 11),
                &CompileOptions { clustering_depth: 6, ..Default::default() },
                CompileTarget::Classify,
                "corrupt",
            )
            .expect("compiles");
            if corrupt {
                corrupt_first_entry(&mut c);
            }
            let cfg = SwitchConfig::tofino2();
            EngineArtifact::from_compiled_pipeline(c, StreamFeatures::Stat, &cfg).expect("builds")
        };
        let corrupt = build(true);

        let server = EngineBuilder::new().build().expect("engine starts");
        let control = server.control();
        let err = control.attach(corrupt, TenantConfig::new()).unwrap_err();
        match err {
            PegasusError::Verify { report } => {
                assert!(report.has_code("V003"), "{report}");
            }
            other => panic!("attach must reject with Verify, got {other:?}"),
        }

        // Swap: attach a clean artifact, then try to swap in a corrupt one.
        let token = control.attach(build(false), TenantConfig::new()).expect("clean attaches");
        let err = control.swap(token, build(true)).unwrap_err();
        assert!(
            matches!(err, PegasusError::Verify { .. }),
            "swap must reject with Verify, got {err:?}"
        );
        // The engine still serves the clean artifact.
        let stats = control.stats().expect("stats");
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].epoch, 0, "failed swap must not bump the epoch");
        server.shutdown().expect("shuts down");
    }
}
