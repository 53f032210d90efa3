//! The servable artifact and its admission: deployed — verified,
//! flattened and loaded — once, when its content is first admitted, and
//! deduplicated across tenants.

use super::{lock, EngineShared};
use crate::compile::CompiledPipeline;
use crate::engine::HOST_WINDOW_STATE_BITS;
use crate::error::PegasusError;
use crate::flowpipe::{FlowPipeline, FlowProgram};
use crate::models::StreamFeatures;
use crate::runtime::DataplaneModel;
use crate::verify::{verify_flow, verify_pipeline, VerifyReport};
use pegasus_net::FlowTableConfig;
use pegasus_switch::SwitchConfig;
use std::sync::{Arc, Weak};

/// A compiled model in the form the serving engine admits: the switch-side
/// pipeline (LUT tables or a per-flow register pipeline), the switch model
/// it is to serve under and its streaming feature family, detached from
/// the trained float model. It is a *content*, not a deployment: nothing
/// is verified, flattened or loaded until the engine first admits its
/// content, and a byte-identical copy of a resident content never is.
/// Obtained from
/// [`Deployment::engine_artifact`](crate::pipeline::Deployment::engine_artifact)
/// or the `from_*` constructors; attach one per tenant, or hand a fresh
/// one to [`ControlHandle::swap`](super::ControlHandle::swap). Its content
/// bytes and hash are computed once, when it is built, and held while it
/// lives; a clone shares the tables and those bytes: the same content.
#[derive(Clone)]
pub struct EngineArtifact {
    pipeline: ArtifactPipeline,
    switch: SwitchConfig,
    features: StreamFeatures,
    content: Arc<[u8]>,
    content_hash: u64,
}

#[derive(Clone)]
enum ArtifactPipeline {
    Stateless(CompiledPipeline),
    Flow(FlowPipeline),
}

/// An artifact the engine has admitted — the only form a tenant or a shard
/// holds: the deployed plane, the content bytes it was admitted on and
/// their hash, and the state accounting read off the loaded program.
pub(crate) struct AdmittedArtifact {
    pub(crate) plane: ArtifactPlane,
    pub(crate) features: StreamFeatures,
    pub(crate) name: String,
    /// Stateful bits one flow-table slot costs under this artifact:
    /// real per-slot register SRAM for per-flow pipelines,
    /// [`HOST_WINDOW_STATE_BITS`] (the switch-side window mirror) for
    /// register-free ones.
    state_bits_per_flow: u64,
    /// The stateful-SRAM budget of the switch model this artifact was
    /// deployed against (`register_bits_total`) — the ceiling per-tenant
    /// state budgets are validated under.
    state_budget_bits: u64,
    /// The admitted [`EngineArtifact`]'s content bytes and lane-folded hash:
    /// the cache's probe key and the bytes a hit is confirmed against, held
    /// — like the cached verdict — exactly as long as the last `Arc`.
    /// `ArtifactCounters` sizes the artifact at them.
    content_hash: u64,
    pub(super) content: Arc<[u8]>,
}

/// A keep-alive of one admitted content, from
/// [`ControlHandle::admit`](super::ControlHandle::admit): while it is held,
/// the content stays resident, so an attach or swap of a byte-identical
/// copy is served by the resident and runs no verifier.
pub struct Admission {
    pub(super) _resident: Arc<AdmittedArtifact>,
}

/// What an admitted artifact executes — program only on both planes: one
/// `SwitchProgram`, its `FlatProgram`, no register file, no scratch.
pub(crate) enum ArtifactPlane {
    Stateless(Arc<DataplaneModel>),
    Flow(Arc<FlowProgram>),
}

impl EngineArtifact {
    /// A servable artifact of a compiled stateless pipeline, to serve
    /// under `switch` — the path the control daemon takes when it revives
    /// a persisted artifact file (there is no live
    /// [`Deployment`](crate::pipeline::Deployment) to call
    /// [`engine_artifact`](crate::pipeline::Deployment::engine_artifact)
    /// on). Encodes the content once, here; the engine deploys it — one
    /// verifier run against `switch`, one flatten, one load — when it
    /// first admits this content. Score-only pipelines are rejected here
    /// with [`PegasusError::NotAClassifier`]; a corrupt one is rejected by
    /// attach or swap with [`PegasusError::Verify`].
    pub fn from_compiled_pipeline(
        pipeline: CompiledPipeline,
        features: StreamFeatures,
        switch: &SwitchConfig,
    ) -> Result<Self, PegasusError> {
        if pipeline.predicted_field.is_none() {
            return Err(PegasusError::NotAClassifier { pipeline: pipeline.program.name.clone() });
        }
        Ok(Self::new(ArtifactPipeline::Stateless(pipeline), switch, features))
    }

    /// A servable artifact of a per-flow windowed pipeline, to serve under
    /// `switch` — the flow-plane counterpart of
    /// [`from_compiled_pipeline`](EngineArtifact::from_compiled_pipeline):
    /// one encode here, and nothing verified, flattened or loaded before
    /// the engine first admits this content.
    pub fn from_flow_pipeline(
        pipeline: FlowPipeline,
        switch: &SwitchConfig,
    ) -> Result<Self, PegasusError> {
        if pipeline.predicted_field.is_none() {
            return Err(PegasusError::NotAClassifier { pipeline: pipeline.program.name.clone() });
        }
        // Flow pipelines consume raw packets; the feature tag is unused.
        Ok(Self::new(ArtifactPipeline::Flow(pipeline), switch, StreamFeatures::Seq))
    }

    /// The one constructor: encodes the artifact's content identity for
    /// cross-tenant dedup — the serialized compiled pipeline plus the switch
    /// model and feature family it serves under — and hashes it, once;
    /// nothing mutates an artifact afterwards. Two artifacts with equal
    /// content bytes are interchangeable on every shard, so the engine
    /// shares one `Arc` between their tenants (per-tenant flow tables and
    /// stats stay separate — each worker forks its own execution state).
    fn new(pipeline: ArtifactPipeline, switch: &SwitchConfig, features: StreamFeatures) -> Self {
        #[cfg(test)]
        CONTENT_ENCODES.with(|n| n.set(n.get() + 1));
        let mut w = serde::Writer::new();
        match &pipeline {
            ArtifactPipeline::Stateless(p) => {
                w.write_u8(0);
                serde::Serialize::serialize(p, &mut w);
                serde::Serialize::serialize(switch, &mut w);
                serde::Serialize::serialize(&features, &mut w);
            }
            ArtifactPipeline::Flow(p) => {
                w.write_u8(1);
                serde::Serialize::serialize(p, &mut w);
                serde::Serialize::serialize(switch, &mut w);
            }
        }
        let content: Arc<[u8]> = Arc::from(w.into_bytes());
        let content_hash = content_hash(&content);
        EngineArtifact { pipeline, switch: switch.clone(), features, content, content_hash }
    }

    /// The compiled program's name (diagnostics, default tenant name).
    pub fn name(&self) -> &str {
        match &self.pipeline {
            ArtifactPipeline::Stateless(p) => &p.program.name,
            ArtifactPipeline::Flow(p) => &p.program.name,
        }
    }

    /// Stateful bits one tracked flow (one table slot) costs under this
    /// artifact — per-slot register SRAM for per-flow pipelines (summed
    /// off the register declarations), the host window mirror for
    /// register-free ones.
    pub fn state_bits_per_flow(&self) -> u64 {
        match &self.pipeline {
            ArtifactPipeline::Stateless(_) => HOST_WINDOW_STATE_BITS,
            ArtifactPipeline::Flow(p) => p.state_bits_per_slot(),
        }
    }

    /// Per-flow register slots baked into the artifact (`None` for
    /// register-free pipelines, whose capacity is the tenant's host
    /// flow-table choice instead, and for a per-flow pipeline whose hash
    /// field is not declared — admission rejects that one).
    pub fn flow_slots(&self) -> Option<usize> {
        match &self.pipeline {
            ArtifactPipeline::Flow(p) => p.hash_mask().map(|mask| mask as usize + 1),
            ArtifactPipeline::Stateless(_) => None,
        }
    }

    /// Runs the static verifier over the pipeline against the switch model
    /// it is to serve under — the run attach and swap make when they first
    /// admit this content (a byte-identical copy of a resident one is
    /// served by the resident), so a corrupt artifact — however it was
    /// produced — never reaches a serving shard. Flattens inside the run,
    /// as admission does.
    pub fn verify_report(&self) -> VerifyReport {
        match &self.pipeline {
            ArtifactPipeline::Stateless(p) => verify_pipeline(p, Some(&self.switch)),
            ArtifactPipeline::Flow(p) => verify_flow(p, Some(&self.switch)),
        }
    }

    /// The admission miss path: one verifier run against the switch model,
    /// flattening inside it (the `FlatProgram` proved is the one kept),
    /// then the load onto the switch model.
    fn deploy(self) -> Result<AdmittedArtifact, PegasusError> {
        let name = self.name().to_string();
        let switch = Some(&self.switch);
        let plane = match self.pipeline {
            ArtifactPipeline::Stateless(p) => ArtifactPlane::Stateless(Arc::new(
                DataplaneModel::verify_and_load(p, &self.switch, switch)?,
            )),
            ArtifactPipeline::Flow(p) => {
                ArtifactPlane::Flow(FlowProgram::deploy(p, &self.switch, switch)?)
            }
        };
        Ok(AdmittedArtifact::new(plane, self.features, name, self.content, self.content_hash))
    }
}

impl AdmittedArtifact {
    pub(crate) fn new(
        plane: ArtifactPlane,
        features: StreamFeatures,
        name: String,
        content: Arc<[u8]>,
        content_hash: u64,
    ) -> Self {
        let (state_bits_per_flow, switch) = match &plane {
            ArtifactPlane::Stateless(dp) => (HOST_WINDOW_STATE_BITS, dp.switch_config()),
            ArtifactPlane::Flow(p) => (p.state_bits_per_slot(), p.loaded.config()),
        };
        AdmittedArtifact {
            state_bits_per_flow,
            state_budget_bits: switch.register_bits_total,
            plane,
            features,
            name,
            content_hash,
            content,
        }
    }

    /// Rejects a tenant flow-table configuration whose state cost exceeds
    /// the switch model's stateful-SRAM budget — the Figure 7 constraint
    /// as an attach-time check: `capacity × bits-per-flow` must fit
    /// `register_bits_total`.
    pub(super) fn validate_state_budget(
        &self,
        table: &FlowTableConfig,
    ) -> Result<(), PegasusError> {
        if table.capacity == 0 {
            return Err(PegasusError::InvalidConfig {
                field: "flow_capacity",
                reason: "must be at least 1",
            });
        }
        let needed = self.state_cost_bits(table);
        if needed > self.state_budget_bits {
            return Err(PegasusError::StateBudget {
                needed_bits: needed,
                budget_bits: self.state_budget_bits,
            });
        }
        Ok(())
    }

    /// The stateful bits serving this artifact under `table` reserves:
    /// `capacity × bits-per-flow`, the capacity being the artifact's own
    /// register slot count for per-flow pipelines and the configured
    /// host-table capacity otherwise. The per-tenant check validates it;
    /// the engine sums it across the fleet.
    pub(super) fn state_cost_bits(&self, table: &FlowTableConfig) -> u64 {
        let capacity = match &self.plane {
            ArtifactPlane::Flow(p) => p.flow_slots(),
            ArtifactPlane::Stateless(_) => table.capacity,
        };
        (capacity as u64).saturating_mul(self.state_bits_per_flow)
    }
}

/// An FNV-style fold over an artifact's content bytes — the dedup cache
/// key. Four independent lanes each take one little-endian word of every
/// 32-byte block; the lanes are then folded in, followed by the remaining
/// whole words, the tail (zero-padded) and the length. Each step XORs in a
/// word, multiplies by an odd constant and rotates: a bijection of the
/// running hash for any fixed word, so a change confined to one word —
/// any one-byte change — changes its lane or its step, and so the hash;
/// the length comes last, so a zero tail cannot pass for padding.
/// Collisions are survivable (the cache confirms hits by comparing the
/// full content bytes), so a fast non-cryptographic hash is enough.
fn content_hash(bytes: &[u8]) -> u64 {
    let step = |h: u64, word: u64| (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    let word = |w: &[u8; 8]| u64::from_le_bytes(*w);
    let seed = 0xcbf2_9ce4_8422_2325u64;
    let (words, tail) = bytes.as_chunks::<8>();
    let (blocks, rest) = words.as_chunks::<4>();
    // Spelled out, not `map`ped: the four steps must stay independent
    // instructions for the lanes to overlap.
    let mut l = [0, 16, 32, 48].map(|r| seed.rotate_left(r));
    for [a, b, c, d] in blocks {
        l = [step(l[0], word(a)), step(l[1], word(b)), step(l[2], word(c)), step(l[3], word(d))];
    }
    let mut padded = [0u8; 8];
    padded[..tail.len()].copy_from_slice(tail);
    let h = l.into_iter().chain(rest.iter().chain([&padded]).map(word)).fold(seed, step);
    step(h, bytes.len() as u64)
}

/// Whether swapping `old` for `new` carries per-flow state across, decided
/// control-plane-side so [`SwapReport::state_retained`] never waits on a
/// shard: stateless pipelines always keep their host feature windows
/// (keyed by five-tuple alone), per-flow pipelines keep register files
/// exactly when the shapes are [`state_compatible`]
/// (every shard applies the same deterministic check), and a kind change
/// rebuilds from scratch.
///
/// [`state_compatible`]: crate::flowpipe::FlowClassifier::state_compatible
pub(super) fn swap_retains_state(old: &AdmittedArtifact, new: &AdmittedArtifact) -> bool {
    match (&old.plane, &new.plane) {
        (ArtifactPlane::Stateless(_), ArtifactPlane::Stateless(_)) => true,
        (ArtifactPlane::Flow(old), ArtifactPlane::Flow(new)) => new.state_compatible(old),
        _ => false,
    }
}

impl EngineShared {
    /// The one admission path attach and swap share, which encodes nothing:
    /// the hash and bytes the incoming artifact was built with are probed
    /// against every live one's. A byte-identical resident is returned as
    /// is — it was verified against its switch model when it was first
    /// admitted, and its tenants share it (their flow tables and stats stay
    /// per-tenant); the incoming copy, a pipeline whose tables are a shared
    /// `Arc`, is dropped unserved and was never deployed. Only a miss
    /// deploys — one verifier run against the switch model with the
    /// flatten inside it, then the load — and moves the artifact's bytes
    /// into the resident uncopied. Only a clean artifact enters the cache,
    /// so a rejected one is re-verified (and re-rejected) every time. The
    /// cache holds `Weak`s: a verdict and the bytes it was reached on are
    /// remembered exactly as long as some tenant serves the artifact.
    ///
    /// Content bytes are everything the verifier reads: the `FlatProgram`
    /// is derived from the serialized pipeline — so equal bytes mean an
    /// equal verdict.
    pub(super) fn admit_artifact(
        &self,
        artifact: EngineArtifact,
    ) -> Result<Arc<AdmittedArtifact>, PegasusError> {
        let (hash, content) = (artifact.content_hash, &artifact.content);
        if let Some(resident) = find_resident(&mut lock(&self.artifact_cache), hash, content) {
            return Ok(resident);
        }
        // Deployment runs outside the cache lock: admissions of other
        // content never wait on it.
        let admitted = artifact.deploy()?;
        // Re-probe under the lock: of two racing first admissions of one
        // content, the second finds the first's `Arc` here.
        let mut cache = lock(&self.artifact_cache);
        if let Some(resident) = find_resident(&mut cache, hash, &admitted.content) {
            return Ok(resident);
        }
        let arc = Arc::new(admitted);
        cache.push(Arc::downgrade(&arc));
        Ok(arc)
    }
}

/// The live cached artifact whose content equals `content` (hashing to
/// `hash`), pruning dead entries on the way. The hash is a hint; a hit is
/// the resident's own allocation (a clone of its artifact) or, for an
/// independently built copy, equal bytes.
fn find_resident(
    cache: &mut Vec<Weak<AdmittedArtifact>>,
    hash: u64,
    content: &Arc<[u8]>,
) -> Option<Arc<AdmittedArtifact>> {
    cache.retain(|cached| cached.strong_count() > 0);
    cache.iter().filter_map(Weak::upgrade).find(|existing| {
        existing.content_hash == hash
            && (Arc::ptr_eq(&existing.content, content) || {
                #[cfg(test)]
                CONTENT_COMPARES.with(|n| n.set(n.get() + 1));
                existing.content[..] == content[..]
            })
    })
}

#[cfg(test)]
thread_local! {
    /// Artifacts content-encoded on this thread (tests hold every build to
    /// one encode, and admission to none).
    pub(crate) static CONTENT_ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Full content compares `find_resident` made on this thread.
    pub(crate) static CONTENT_COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::{content_hash, find_resident};
    use crate::engine::server::tests::tiny_artifact;
    use std::sync::Arc;

    #[test]
    fn any_one_byte_change_changes_the_content_hash() {
        // 37 bytes: one whole block's worth of words and a five-byte tail;
        // 77: two blocks, a remainder word and a tail; 101: three blocks
        // and a tail.
        for len in [37u8, 77, 101] {
            let base: Vec<u8> = (0..len).map(|i| i.wrapping_mul(73)).collect();
            let h = content_hash(&base);
            for at in 0..base.len() {
                for delta in [1u8, 0x80, 0xff] {
                    let mut changed = base.clone();
                    changed[at] ^= delta;
                    assert_ne!(content_hash(&changed), h, "{len} bytes: byte {at} ^ {delta:#x}");
                }
            }
            // Zero padding does not pass for content: the length is mixed in.
            let mut padded = base.clone();
            padded.push(0);
            assert_ne!(content_hash(&padded), h);
        }
        assert_ne!(content_hash(&[]), content_hash(&[0]));
    }

    #[test]
    fn a_resident_hash_and_length_on_other_bytes_miss() {
        let artifact = tiny_artifact(5);
        let content = Arc::clone(&artifact.content);
        let resident = Arc::new(artifact.deploy().expect("deploys"));
        let mut cache = vec![Arc::downgrade(&resident)];
        // A forgery: the resident's hash over bytes of its length that
        // differ in one place. Only the byte compare can turn it away.
        let mut forged = content.to_vec();
        *forged.last_mut().expect("content is not empty") ^= 1;
        assert_eq!(forged.len(), resident.content.len());
        assert!(find_resident(&mut cache, resident.content_hash, &Arc::from(forged)).is_none());
        let copy = tiny_artifact(5);
        assert!(!Arc::ptr_eq(&copy.content, &content), "two builds, two allocations");
        let hit = find_resident(&mut cache, copy.content_hash, &copy.content).expect("hits");
        assert!(Arc::ptr_eq(&hit, &resident));
    }
}
