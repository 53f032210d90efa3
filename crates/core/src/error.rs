//! The one error type of the public Pegasus API.
//!
//! Every fallible step of the train → compile → deploy → serve pipeline
//! returns [`PegasusError`]: compilation rejects bad calibration data,
//! deployment surfaces the switch resource model's [`DeployError`], and the
//! runtime reports misuse (wrong feature arity, class queries against a
//! score pipeline) instead of panicking. The old surface `expect`ed or
//! `assert!`ed its way through all of these.

use crate::verify::VerifyReport;
use pegasus_switch::DeployError;
use std::fmt;

/// Everything that can go wrong between a trained model and a serving
/// dataplane.
#[derive(Clone, Debug, PartialEq)]
pub enum PegasusError {
    /// The switch resource model rejected the program.
    Deploy(DeployError),
    /// The static verifier found `Error`-severity diagnostics in the
    /// artifact; the full [`VerifyReport`] is attached. Raised at compile,
    /// deploy, attach, and swap time — a corrupt or over-budget artifact
    /// never reaches a serving engine.
    Verify {
        /// The verifier's findings (boxed: reports carry every diagnostic).
        report: Box<VerifyReport>,
    },
    /// A sample's feature count does not match the compiled pipeline.
    FeatureCount {
        /// Features the pipeline was compiled for.
        expected: usize,
        /// Features the caller supplied.
        got: usize,
    },
    /// A class verdict was requested from a pipeline compiled with the
    /// `Scores` target (no argmax head, e.g. the AutoEncoder).
    NotAClassifier {
        /// The offending pipeline's name.
        pipeline: String,
    },
    /// Scores were requested from a pipeline that carries no score fields
    /// (verdict-only tables — Leo's and BoS's heads store the class
    /// directly, never a score vector).
    NoScores {
        /// The offending pipeline's name.
        pipeline: String,
    },
    /// Compilation needs a non-empty calibration set (cluster fitting and
    /// fixed-point format selection are data-driven).
    EmptyTrainingSet,
    /// Calibration inputs fall outside the 8-bit feature-code domain the
    /// dataplane parsers produce.
    CalibrationRange {
        /// Smallest value observed.
        lo: f32,
        /// Largest value observed.
        hi: f32,
    },
    /// A model was driven with data missing the feature view it consumes.
    MissingView {
        /// The view the model needs (`"stat"`, `"seq"`, or `"raw"`).
        view: &'static str,
        /// The model asking for it.
        model: &'static str,
    },
    /// The requested operation needs the per-flow (stateful) runtime —
    /// [`fork`](crate::flowpipe::FlowClassifier::fork) the classifier behind
    /// [`Deployment::flow`](crate::pipeline::Deployment::flow) and feed it
    /// packets, not feature rows.
    FlowStateRequired {
        /// The per-flow pipeline's name.
        pipeline: String,
    },
    /// The operation is not defined for this model family (e.g. macro-F1 of
    /// an unsupervised detector).
    Unsupported {
        /// The model.
        model: &'static str,
        /// What was asked of it.
        what: &'static str,
    },
    /// An engine or builder parameter is outside its valid domain (e.g.
    /// zero shards): rejected by
    /// [`EngineBuilder::build`](crate::engine::server::EngineBuilder::build),
    /// whichever entry point configured it.
    InvalidConfig {
        /// The offending parameter.
        field: &'static str,
        /// Why the value is invalid.
        reason: &'static str,
    },
    /// A tenant's flow-state budget (`flow-table capacity × stateful bits
    /// per flow`) exceeds the stateful-SRAM budget of the switch model its
    /// artifact was deployed against — the paper's Figure 7 constraint
    /// enforced at attach/swap time.
    StateBudget {
        /// Register bits the requested capacity would consume.
        needed_bits: u64,
        /// Register bits the switch model offers (`register_bits_total`).
        budget_bits: u64,
    },
    /// An attach (or swap) would push the *aggregate* flow-state cost
    /// across every attached tenant past the engine's fleet-wide SRAM
    /// ceiling ([`EngineBuilder::fleet_state_budget_bits`]) — the
    /// per-tenant budget's fleet-level companion.
    ///
    /// [`EngineBuilder::fleet_state_budget_bits`]:
    /// crate::engine::server::EngineBuilder::fleet_state_budget_bits
    FleetStateBudget {
        /// Aggregate register bits the fleet would consume after the
        /// operation.
        needed_bits: u64,
        /// The configured fleet-wide ceiling.
        budget_bits: u64,
        /// Tenants attached when the operation was rejected.
        tenants: usize,
    },
    /// A control-plane operation referenced a tenant that is not attached
    /// (never attached, already detached, or a stale token after the
    /// engine restarted).
    UnknownTenant {
        /// The token's tenant id.
        tenant: u32,
    },
    /// The engine has shut down; its ingress and control handles are dead.
    EngineStopped,
    /// Serving one of a tenant's runs panicked. The shard quarantined that
    /// tenant alone — it serves nothing more — and kept serving the rest.
    TenantPanicked {
        /// The tenant's id.
        tenant: u32,
        /// The panic's message.
        message: String,
    },
    /// A thread died holding the engine's dispatcher lock, so its pending
    /// batches may be torn mid-append: pushes, `flush` and the control
    /// verbs refuse to touch them. `stats` and `tenant_stats` still
    /// answer, and `shutdown` drops the pending batches unsent.
    DispatcherPoisoned,
    /// A shard's worker thread died: every tenant it served reports this
    /// at shutdown, since their state on that shard is lost.
    ShardPanicked {
        /// The dead shard.
        shard: usize,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for PegasusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PegasusError::Deploy(e) => write!(f, "deployment rejected: {e}"),
            PegasusError::Verify { report } => {
                let first = report
                    .errors()
                    .next()
                    .map(|d| format!("{d}"))
                    .unwrap_or_else(|| "no error diagnostics".to_string());
                write!(
                    f,
                    "static verification of '{}' failed with {} error(s); first: {first}",
                    report.pipeline,
                    report.errors().count()
                )
            }
            PegasusError::FeatureCount { expected, got } => {
                write!(f, "feature count mismatch: pipeline expects {expected}, got {got}")
            }
            PegasusError::NotAClassifier { pipeline } => {
                write!(f, "pipeline '{pipeline}' has a Scores target; it produces no class verdict")
            }
            PegasusError::NoScores { pipeline } => {
                write!(f, "pipeline '{pipeline}' stores verdicts directly; it has no score fields")
            }
            PegasusError::EmptyTrainingSet => {
                write!(f, "compilation requires a non-empty calibration set")
            }
            PegasusError::CalibrationRange { lo, hi } => {
                write!(f, "calibration inputs must be 8-bit feature codes, saw range [{lo}, {hi}]")
            }
            PegasusError::MissingView { view, model } => {
                write!(f, "{model} needs the '{view}' feature view, which was not provided")
            }
            PegasusError::FlowStateRequired { pipeline } => {
                write!(
                    f,
                    "pipeline '{pipeline}' keeps per-flow state; drive it packet-by-packet via flow().fork()"
                )
            }
            PegasusError::Unsupported { model, what } => {
                write!(f, "{model} does not support {what}")
            }
            PegasusError::InvalidConfig { field, reason } => {
                write!(f, "invalid engine configuration: {field} {reason}")
            }
            PegasusError::StateBudget { needed_bits, budget_bits } => {
                write!(
                    f,
                    "per-tenant flow-state budget exceeded: needs {needed_bits} register bits, \
                     the switch model offers {budget_bits}"
                )
            }
            PegasusError::FleetStateBudget { needed_bits, budget_bits, tenants } => {
                write!(
                    f,
                    "fleet flow-state budget exceeded: {tenants} attached tenants would need \
                     {needed_bits} aggregate register bits, the fleet ceiling is {budget_bits}"
                )
            }
            PegasusError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant} is not attached to this engine")
            }
            PegasusError::EngineStopped => {
                write!(f, "the engine has shut down; this handle is no longer usable")
            }
            PegasusError::TenantPanicked { tenant, message } => {
                write!(f, "tenant {tenant} was quarantined: serving it panicked: {message}")
            }
            PegasusError::DispatcherPoisoned => {
                write!(f, "a thread died holding the engine's dispatcher; shut the engine down")
            }
            PegasusError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard}'s worker panicked: {message}")
            }
        }
    }
}

impl PegasusError {
    /// The quarantine error for a tenant whose run panicked with `payload`.
    pub(crate) fn panicked(tenant: u32, payload: Box<dyn std::any::Any + Send>) -> Self {
        PegasusError::TenantPanicked { tenant, message: panic_message(payload) }
    }

    /// The error for the tenants of a shard whose worker died with `payload`.
    pub(crate) fn shard_panicked(shard: usize, payload: Box<dyn std::any::Any + Send>) -> Self {
        PegasusError::ShardPanicked { shard, message: panic_message(payload) }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map_or("", |m| m).to_string(),
    }
}

impl std::error::Error for PegasusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PegasusError::Deploy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeployError> for PegasusError {
    fn from(e: DeployError) -> Self {
        PegasusError::Deploy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_errors_convert_and_display() {
        let e: PegasusError = DeployError::OutOfStages { needed: 25, available: 20 }.into();
        assert!(matches!(e, PegasusError::Deploy(_)));
        let msg = e.to_string();
        assert!(msg.contains("25"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn messages_name_the_numbers() {
        let e = PegasusError::FeatureCount { expected: 16, got: 2 };
        let msg = e.to_string();
        assert!(msg.contains("16") && msg.contains('2'), "{msg}");
    }

    #[test]
    fn invalid_config_names_the_field() {
        let e = PegasusError::InvalidConfig { field: "shards", reason: "must be at least 1" };
        let msg = e.to_string();
        assert!(msg.contains("shards") && msg.contains("at least 1"), "{msg}");
        let e = PegasusError::UnknownTenant { tenant: 42 };
        assert!(e.to_string().contains("42"));
    }
}
