//! The on-disk artifact file format (`.pa`).
//!
//! An artifact file is everything `pegasusd` needs to re-deploy a tenant
//! after a crash: the compiled pipeline itself, the stream-feature kind
//! it consumes, and the switch resource model it was verified against.
//! Program only: registers travel as declarations, never as cells.
//! The body is [`serde`]-encoded and prefixed with a 4-byte magic plus a
//! `u32` format version, so a daemon pointed at a stale or foreign state
//! directory rejects the file with a typed error instead of
//! deserializing garbage into a pipeline.

use pegasus_core::compile::CompiledPipeline;
use pegasus_core::flowpipe::FlowPipeline;
use pegasus_core::verify::{verify_flow, verify_pipeline};
use pegasus_core::{EngineArtifact, PegasusError, StreamFeatures};
use pegasus_switch::SwitchConfig;
use std::fmt;

/// First four bytes of every artifact file.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"PEGA";

/// Current format version. Bump on any encoding change; old daemons
/// reject newer files (and vice versa) instead of misreading them.
/// (v1 shipped every register array's zeroed cells.)
pub const ARTIFACT_FORMAT_VERSION: u32 = 2;

/// Why a byte blob is not an artifact file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// Shorter than the magic + version header.
    Truncated {
        /// Bytes present.
        len: usize,
    },
    /// The first four bytes are not [`ARTIFACT_MAGIC`].
    BadMagic {
        /// What was found instead.
        found: [u8; 4],
    },
    /// The header version is not [`ARTIFACT_FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// Version this build understands.
        supported: u32,
    },
    /// The body failed serde decoding.
    Decode(serde::DecodeError),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { len } => {
                write!(f, "file too short for an artifact header ({len} bytes)")
            }
            ArtifactError::BadMagic { found } => {
                write!(f, "bad magic {found:?} (expected {ARTIFACT_MAGIC:?})")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "format version {found} unsupported (this build reads {supported})")
            }
            ArtifactError::Decode(e) => write!(f, "artifact body undecodable: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// The pipeline half of an artifact file.
#[derive(Clone)]
pub enum ArtifactPayload {
    /// A per-packet classifier plus the feature kind it consumes.
    Stateless {
        /// Stat-vector or sequence features.
        features: StreamFeatures,
        /// The compiled pipeline.
        pipeline: CompiledPipeline,
    },
    /// A flow-aware pipeline (features are implied by the extractor).
    Flow {
        /// The compiled flow pipeline.
        pipeline: FlowPipeline,
    },
}

serde::impl_serde_enum!(ArtifactPayload {
    0 => Stateless { features, pipeline },
    1 => Flow { pipeline },
});

/// A complete artifact file: the pipeline plus the switch model it must
/// verify against.
#[derive(Clone)]
pub struct ArtifactFile {
    /// Resource model the pipeline was compiled and verified for.
    pub switch: SwitchConfig,
    /// The pipeline.
    pub payload: ArtifactPayload,
}

serde::impl_serde_struct!(ArtifactFile { switch, payload });

// The pipelines inside are huge table dumps; debug-print a summary, not
// the entries. (FlowPipeline has no Debug of its own for the same
// reason.)
impl fmt::Debug for ArtifactFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ArtifactFile({} {}, switch {})",
            self.kind(),
            self.program_name(),
            self.switch.name
        )
    }
}

impl ArtifactFile {
    /// Encodes the file: magic, version, serde body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = serde::to_bytes(self);
        let mut out = Vec::with_capacity(8 + body.len());
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.extend_from_slice(&ARTIFACT_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decodes a file, checking the header before touching the body.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < 8 {
            return Err(ArtifactError::Truncated { len: bytes.len() });
        }
        let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
        if magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != ARTIFACT_FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_FORMAT_VERSION,
            });
        }
        serde::from_bytes(&bytes[8..]).map_err(ArtifactError::Decode)
    }

    /// The compiled program's name.
    pub fn program_name(&self) -> &str {
        match &self.payload {
            ArtifactPayload::Stateless { pipeline, .. } => &pipeline.program.name,
            ArtifactPayload::Flow { pipeline } => &pipeline.program.name,
        }
    }

    /// `"stateless"` or `"flow"`.
    pub fn kind(&self) -> &'static str {
        match &self.payload {
            ArtifactPayload::Stateless { .. } => "stateless",
            ArtifactPayload::Flow { .. } => "flow",
        }
    }

    /// Runs static verification against the embedded switch model and
    /// returns the number of error-severity diagnostics (0 = clean).
    pub fn verify_errors(&self) -> u64 {
        let report = match &self.payload {
            ArtifactPayload::Stateless { pipeline, .. } => {
                verify_pipeline(pipeline, Some(&self.switch))
            }
            ArtifactPayload::Flow { pipeline } => verify_flow(pipeline, Some(&self.switch)),
        };
        report.errors().count() as u64
    }

    /// The payload as an engine-servable artifact (tables shared), undeployed:
    /// the engine verifies, flattens and loads it at its first admission.
    pub fn deploy(&self) -> Result<EngineArtifact, PegasusError> {
        match &self.payload {
            ArtifactPayload::Stateless { features, pipeline } => {
                EngineArtifact::from_compiled_pipeline(pipeline.clone(), *features, &self.switch)
            }
            ArtifactPayload::Flow { pipeline } => {
                EngineArtifact::from_flow_pipeline(pipeline.clone(), &self.switch)
            }
        }
    }
}
