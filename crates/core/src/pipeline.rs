//! The staged `Pegasus` builder — the one way from a trained model to a
//! serving dataplane.
//!
//! ```text
//! Pegasus::new(model)            // configure
//!     .options(opts)
//!     .target(CompileTarget::Classify)
//!     .compile(&data)?           // -> Compiled (artifact + metrics)
//!     .deploy(&SwitchConfig::tofino2())?   // -> Deployment (serving)
//! ```
//!
//! The stages are separate types, so invalid orderings (deploying before
//! compiling, classifying before deploying) do not typecheck, and every
//! fallible edge returns [`PegasusError`]. One builder serves all six paper
//! models and all three baselines: whatever a model
//! [`lower`](DataplaneNet::lower)s to — a primitive program, a bespoke
//! table pipeline, or a per-flow windowed pipeline — compiles and deploys
//! through the same two calls.
//!
//! A [`Deployment`] classifies one sample at a time. Packets are served by
//! the long-lived [`EngineServer`](crate::engine::EngineServer): hand
//! [`Deployment::engine_artifact`] to its
//! [`attach`](crate::engine::ControlHandle::attach), push, then shut down.

use crate::compile::{
    compile_with_trees, CompileOptions, CompileReport, CompileTarget, CompiledPipeline,
};
use crate::engine::server::EngineArtifact;
use crate::error::PegasusError;
use crate::flowpipe::{FlowClassifier, FlowPipeline};
use crate::models::{DataplaneNet, Lowered, ModelData, TrainSettings};
use crate::runtime::DataplaneModel;
use pegasus_nn::metrics::PrRcF1;
use pegasus_nn::Dataset;
use pegasus_switch::{ResourceReport, SwitchConfig};
use std::sync::Arc;

/// Stage 1: a trained model plus compile configuration.
pub struct Pegasus<M: DataplaneNet> {
    model: M,
    opts: CompileOptions,
    target: Option<CompileTarget>,
}

impl<M: DataplaneNet> Pegasus<M> {
    /// Wraps a trained model with default compile options.
    pub fn new(model: M) -> Self {
        Pegasus { model, opts: CompileOptions::default(), target: None }
    }

    /// Trains a fresh model and wraps it in one step.
    ///
    /// ```no_run
    /// use pegasus_core::models::mlp_b::MlpB;
    /// use pegasus_core::models::{ModelData, TrainSettings};
    /// use pegasus_core::pipeline::Pegasus;
    ///
    /// # fn run(train: pegasus_nn::Dataset) -> Result<(), pegasus_core::error::PegasusError> {
    /// let data = ModelData::new().with_stat(&train);
    /// let staged = Pegasus::<MlpB>::train(&data, &TrainSettings::default())?;
    /// # let _ = staged; Ok(())
    /// # }
    /// ```
    pub fn train(data: &ModelData<'_>, settings: &TrainSettings) -> Result<Self, PegasusError> {
        Ok(Pegasus::new(M::train(data, settings)?))
    }

    /// Sets the compiler options (models may further tune them — e.g.
    /// activation-width clamps — during lowering).
    pub fn options(mut self, opts: CompileOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the pipeline head. Defaults to the model's
    /// [`default_target`](DataplaneNet::default_target) (`Classify` for
    /// classifiers, `Scores` for the AutoEncoder).
    ///
    /// Models that lower to bespoke pipelines (RNN-B, CNN-L, the
    /// baselines, the AutoEncoder) fix their own head; asking them for the
    /// other target fails at [`compile`](Pegasus::compile) with
    /// [`PegasusError::Unsupported`] rather than being silently ignored.
    pub fn target(mut self, target: CompileTarget) -> Self {
        self.target = Some(target);
        self
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Lowers and compiles the model against the bundle's training views.
    ///
    /// ```no_run
    /// use pegasus_core::compile::{CompileOptions, CompileTarget};
    /// use pegasus_core::models::mlp_b::MlpB;
    /// use pegasus_core::models::{ModelData, TrainSettings};
    /// use pegasus_core::pipeline::Pegasus;
    ///
    /// # fn run(train: pegasus_nn::Dataset) -> Result<(), pegasus_core::error::PegasusError> {
    /// let data = ModelData::new().with_stat(&train);
    /// let compiled = Pegasus::<MlpB>::train(&data, &TrainSettings::default())?
    ///     .options(CompileOptions { clustering_depth: 5, ..Default::default() })
    ///     .target(CompileTarget::Classify)
    ///     .compile(&data)?;
    /// println!("{} tables, {} entries", compiled.report().tables, compiled.report().entries);
    /// # Ok(())
    /// # }
    /// ```
    pub fn compile(mut self, data: &ModelData<'_>) -> Result<Compiled<M>, PegasusError> {
        let target = self.target.unwrap_or_else(|| self.model.default_target());
        let artifact = match self.model.lower(data, &self.opts)? {
            Lowered::Primitives { program, tree_overrides, opts, stateful_bits_per_flow } => {
                let rows = self.model.calibration_inputs(data)?;
                let name = table_prefix(self.model.name());
                let mut pipeline =
                    compile_with_trees(&program, &rows, &opts, target, &name, &tree_overrides)?;
                Arc::make_mut(&mut pipeline.program).stateful_bits_per_flow =
                    stateful_bits_per_flow;
                Artifact::Single(Box::new(pipeline))
            }
            Lowered::Pipeline(pipeline) => Artifact::Single(pipeline),
            Lowered::Flow(flow) => Artifact::Flow(flow),
        };
        // Bespoke pipelines carry their own head; an explicit override that
        // contradicts it must fail loudly, not be dropped.
        if let Some(requested) = self.target {
            let actual = match &artifact {
                Artifact::Single(p) => head_of(p.predicted_field.is_some()),
                Artifact::Flow(p) => head_of(p.predicted_field.is_some()),
            };
            if requested != actual {
                return Err(PegasusError::Unsupported {
                    model: self.model.name(),
                    what: "overriding the pipeline head of a bespoke lowering",
                });
            }
        }
        // Static verification of the fresh artifact (no switch config yet:
        // resource fit is a deploy-time question, structural and semantic
        // soundness is a compile-time one). A compiler emitting a corrupt
        // program is a bug this surfaces immediately, with typed
        // diagnostics instead of a downstream panic.
        let report = artifact.verify(None);
        if report.has_errors() {
            return Err(PegasusError::Verify { report: Box::new(report) });
        }
        Ok(Compiled { model: self.model, artifact })
    }
}

/// The head an emitted artifact actually has.
fn head_of(has_predicted_field: bool) -> CompileTarget {
    if has_predicted_field {
        CompileTarget::Classify
    } else {
        CompileTarget::Scores
    }
}

/// Sanitizes a display name into a table-name prefix ("MLP-B" → "mlp_b").
fn table_prefix(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '_' })
        .collect();
    while out.contains("__") {
        out = out.replace("__", "_");
    }
    out.trim_matches('_').to_string()
}

/// A compiled artifact: stateless single-pass or per-flow windowed.
pub enum Artifact {
    /// One feature row in, one verdict out; no cross-packet state.
    Single(Box<CompiledPipeline>),
    /// Per-flow registers; driven packet-by-packet after deployment.
    Flow(Box<FlowPipeline>),
}

impl Artifact {
    /// Compilation metrics.
    pub fn report(&self) -> &CompileReport {
        match self {
            Artifact::Single(p) => &p.report,
            Artifact::Flow(p) => &p.report,
        }
    }

    /// Runs the static verifier over this artifact. With a switch
    /// configuration the report includes resource accounting (`V204`);
    /// without one it covers the structural, interval, and semantic
    /// layers only.
    pub fn verify(
        &self,
        cfg: Option<&pegasus_switch::SwitchConfig>,
    ) -> crate::verify::VerifyReport {
        match self {
            Artifact::Single(p) => crate::verify::verify_pipeline(p, cfg),
            Artifact::Flow(p) => crate::verify::verify_flow(p, cfg),
        }
    }
}

/// Stage 2: a compiled (not yet deployed) model.
pub struct Compiled<M: DataplaneNet> {
    model: M,
    artifact: Artifact,
}

impl<M: DataplaneNet> Compiled<M> {
    /// Compilation metrics (tables, entries, lookups per input).
    pub fn report(&self) -> &CompileReport {
        self.artifact.report()
    }

    /// The compiled artifact.
    pub fn artifact(&self) -> &Artifact {
        &self.artifact
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Unwraps the compiled stage, returning the trained model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Validates the artifact against a switch configuration and loads it.
    ///
    /// ```no_run
    /// use pegasus_core::models::mlp_b::MlpB;
    /// use pegasus_core::models::{ModelData, TrainSettings};
    /// use pegasus_core::pipeline::Pegasus;
    /// use pegasus_switch::SwitchConfig;
    ///
    /// # fn run(train: pegasus_nn::Dataset) -> Result<(), pegasus_core::error::PegasusError> {
    /// let data = ModelData::new().with_stat(&train);
    /// let deployment = Pegasus::<MlpB>::train(&data, &TrainSettings::default())?
    ///     .compile(&data)?
    ///     .deploy(&SwitchConfig::tofino2())?;
    /// let class = deployment.classify(&[0.0; 16])?;
    /// # let _ = class; Ok(())
    /// # }
    /// ```
    pub fn deploy(self, cfg: &SwitchConfig) -> Result<Deployment<M>, PegasusError> {
        let plane = match self.artifact {
            Artifact::Single(pipeline) => {
                Plane::Single(Arc::new(DataplaneModel::deploy(*pipeline, cfg)?))
            }
            Artifact::Flow(flow) => Plane::Flow(FlowClassifier::deploy(*flow, cfg)?),
        };
        Ok(Deployment { model: self.model, plane })
    }
}

/// The deployed program sits behind an `Arc` on both planes (a
/// [`FlowClassifier`] is the shared program plus this deployment's own
/// register file) so a serving engine can hold the artifact (and keep
/// serving it) independently of this deployment's lifetime —
/// [`Deployment::engine_artifact`] just clones the handle.
enum Plane {
    Single(Arc<DataplaneModel>),
    Flow(FlowClassifier),
}

/// Stage 3: a model loaded onto the switch simulator and serving.
///
/// Inference goes through the shared [`DataplaneModel`] runtime (stateless
/// pipelines) or, for per-flow pipelines, packet-by-packet through a
/// [`fork`](FlowClassifier::fork) of [`flow`](Deployment::flow). The
/// trained float model stays accessible for side-by-side evaluation.
pub struct Deployment<M: DataplaneNet> {
    model: M,
    plane: Plane,
}

impl<M: DataplaneNet> Deployment<M> {
    /// The wrapped model (float reference, Figure 9 comparisons).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Switch resource utilization (the Table 6 row).
    pub fn resource_report(&self) -> ResourceReport {
        match &self.plane {
            Plane::Single(dp) => dp.resource_report(),
            Plane::Flow(fc) => fc.resource_report(),
        }
    }

    /// The stateless runtime, or the error every stateless entry point
    /// returns for per-flow pipelines.
    fn stateless(&self) -> Result<&DataplaneModel, PegasusError> {
        match &self.plane {
            Plane::Single(dp) => Ok(dp),
            Plane::Flow(fc) => Err(PegasusError::FlowStateRequired {
                pipeline: fc.pipeline().program.name.clone(),
            }),
        }
    }

    /// Classifies one sample of feature codes (stateless pipelines).
    pub fn classify(&self, codes: &[f32]) -> Result<usize, PegasusError> {
        self.stateless()?.classify(codes)
    }

    /// Classifies a batch of samples (see [`DataplaneModel::classify_batch`]).
    pub fn classify_batch(&self, rows: &[Vec<f32>]) -> Vec<Result<usize, PegasusError>> {
        match self.stateless() {
            Ok(dp) => dp.classify_batch(rows),
            Err(err) => rows.iter().map(|_| Err(err.clone())).collect(),
        }
    }

    /// Decoded output scores of one sample (stateless pipelines).
    pub fn scores(&self, codes: &[f32]) -> Result<Vec<f32>, PegasusError> {
        self.stateless()?.scores(codes)
    }

    /// Evaluates classification quality over a dataset of code rows.
    pub fn evaluate(&self, data: &Dataset) -> Result<PrRcF1, PegasusError> {
        self.stateless()?.evaluate(data)
    }

    /// The shared stateless runtime, when this deployment has one.
    pub fn dataplane(&self) -> Option<&DataplaneModel> {
        self.stateless().ok()
    }

    /// Unwraps the deployment, returning the trained model (e.g. to
    /// recompile it with different options).
    pub fn into_model(self) -> M {
        self.model
    }

    /// The serving-engine view of this deployment: the compiled artifact
    /// (flattened LUTs or per-flow register pipeline) plus its streaming
    /// feature family, detached from the trained float model.
    ///
    /// Hand the artifact to
    /// [`ControlHandle::attach`](crate::engine::server::ControlHandle::attach)
    /// to serve it as one tenant of a long-lived
    /// [`EngineServer`](crate::engine::server::EngineServer), or to
    /// [`swap`](crate::engine::server::ControlHandle::swap) to hot-swap a
    /// running tenant onto it. Cheap (an `Arc` clone): the engine shares
    /// the deployed artifact rather than copying it, and the deployment
    /// remains usable for [`classify`](Deployment::classify) /
    /// [`evaluate`](Deployment::evaluate) side-by-side.
    ///
    /// ```no_run
    /// use pegasus_core::{EngineBuilder, TenantConfig};
    ///
    /// # fn run(
    /// #     deployment: pegasus_core::Deployment<pegasus_core::models::mlp_b::MlpB>,
    /// #     trace: pegasus_net::Trace,
    /// # ) -> Result<(), pegasus_core::PegasusError> {
    /// let server = EngineBuilder::new().shards(4).build()?;
    /// let tenant = server.control().attach(deployment.engine_artifact()?, TenantConfig::new())?;
    /// server.ingress().push_frame_source(&mut trace.frames())?;
    /// let report = server.shutdown()?.take_tenant(tenant).expect("attached").result?;
    /// println!("{:.0} pps, p99 {} ns", report.pps(), report.latency.quantile_nanos(0.99));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// Fails with [`PegasusError::NotAClassifier`] for score-only
    /// pipelines — the packet engine serves class verdicts.
    pub fn engine_artifact(&self) -> Result<EngineArtifact, PegasusError> {
        let (program, predicted) = match &self.plane {
            Plane::Single(dp) => (&dp.pipeline().program, dp.pipeline().predicted_field),
            Plane::Flow(fc) => (&fc.pipeline().program, fc.pipeline().predicted_field),
        };
        if predicted.is_none() {
            return Err(PegasusError::NotAClassifier { pipeline: program.name.clone() });
        }
        Ok(match &self.plane {
            Plane::Single(dp) => EngineArtifact::stateless(
                Arc::clone(dp),
                self.model.stream_features(),
                &program.name,
            ),
            Plane::Flow(fc) => EngineArtifact::flow(Arc::clone(&fc.program), &program.name),
        })
    }

    /// The per-flow classifier of windowed pipelines (`None` for stateless
    /// deployments) — slot counts, per-slot state bits, resource
    /// accounting. To drive packets, [`fork`](FlowClassifier::fork) it: the
    /// fork shares the deployed program and owns a fresh register file, so
    /// it works whether or not a serving engine shares the plane.
    pub fn flow(&self) -> Option<&FlowClassifier> {
        match &self.plane {
            Plane::Flow(fc) => Some(fc),
            Plane::Single(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prefix_sanitizes() {
        assert_eq!(table_prefix("MLP-B"), "mlp_b");
        assert_eq!(table_prefix("Leo (Decision Tree)"), "leo_decision_tree");
        assert_eq!(table_prefix("CNN-L"), "cnn_l");
    }
}
