//! # pegasus-core — the Pegasus framework
//!
//! The paper's primary contribution, end to end:
//!
//! * [`primitives`] — the Partition / Map / SumReduce IR (Table 3) with a
//!   float-exact reference interpreter;
//! * [`lowering`] — DL operators → primitives (Table 4);
//! * [`fusion`] — Basic Primitive Fusion (semantics-preserving rewrites)
//!   and Advanced Primitive Fusion (model-altering collapses, §4.3);
//! * [`fuzzy`] — clustering trees for fuzzy matching (§4.2): greedy min-SSE
//!   splits, centroids, TCAM-encodable leaf boxes;
//! * [`finetune`] — centroid fine-tuning by backpropagation (§4.4);
//! * [`numformat`] / [`compile`] — adaptive fixed-point formats and the
//!   compiler from fused programs to switch tables (fuzzy + exact paths,
//!   reduction trees, tournament argmax);
//! * [`flowpipe`] — per-flow windowed pipelines: per-packet extractors,
//!   register-packed index windows, on-switch quantizers (§7.3);
//! * [`runtime`] — the concurrency-ready deployed-model runtime (`&self`
//!   inference, batched classification);
//! * [`engine`] — the sharded streaming packet engine: RSS-style flow
//!   sharding across worker threads, shard-owned per-flow state (no hot
//!   path locks), and the flattened-LUT inference representation baked at
//!   deploy time — plus [`engine::server`], the live serving control
//!   plane: a long-lived multi-tenant [`engine::EngineServer`] with
//!   push-based ingress, predicate routing, hot model swap (per-flow state
//!   retained), live stats, and drain/shutdown;
//! * [`models`] — MLP-B, RNN-B, CNN-B/M/L and the AutoEncoder (§6.3), all
//!   behind the [`models::DataplaneNet`] trait;
//! * [`pipeline`] — the staged [`Pegasus`] builder, the one
//!   compile-and-deploy path for every model and baseline;
//! * [`error`] — [`PegasusError`], the API's single error type.
//!
//! The intended entry point:
//!
//! ```no_run
//! use pegasus_core::models::{DataplaneNet, ModelData, TrainSettings};
//! use pegasus_core::models::mlp_b::MlpB;
//! use pegasus_core::pipeline::Pegasus;
//! use pegasus_core::compile::{CompileOptions, CompileTarget};
//! use pegasus_switch::SwitchConfig;
//!
//! # fn run(train: pegasus_nn::Dataset) -> Result<(), pegasus_core::error::PegasusError> {
//! let data = ModelData::new().with_stat(&train);
//! let model = MlpB::train(&data, &TrainSettings::default())?;
//! let deployed = Pegasus::new(model)
//!     .options(CompileOptions::default())
//!     .target(CompileTarget::Classify)
//!     .compile(&data)?
//!     .deploy(&SwitchConfig::tofino2())?;
//! let class = deployed.classify(&[0.0; 16])?;
//! # let _ = class;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod engine;
pub mod error;
pub mod finetune;
pub mod flowpipe;
pub mod fusion;
pub mod fuzzy;
pub mod lowering;
pub mod models;
pub mod numformat;
pub mod pipeline;
pub mod primitives;
pub mod runtime;
pub mod verify;

pub use engine::server::{
    Admission, ControlHandle, EngineArtifact, EngineBuilder, EngineReport, EngineServer,
    EngineStats, FramePush, IngressHandle, SwapReport, TenantConfig, TenantStats, TenantToken,
};
pub use engine::{
    ArtifactCounters, FlowTableCounters, ParseErrorCounters, RoutingCounters, StreamReport,
    SwapCounters, HOST_WINDOW_STATE_BITS,
};
pub use error::PegasusError;
pub use models::{DataplaneNet, Lowered, ModelData, StreamFeatures, TrainSettings};
pub use pipeline::{Artifact, Compiled, Deployment, Pegasus};
pub use verify::{
    verify_flow, verify_pipeline, verify_program, Diagnostic, Severity, VerifyReport,
};
