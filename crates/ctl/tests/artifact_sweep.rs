//! Hostile artifact bytes end in a typed outcome at every gate the daemon
//! runs them through: `ArtifactFile::from_bytes` → `deploy` → `attach` on a
//! running engine. Building an artifact verifies nothing, so the engine's
//! admission is where a decodable but corrupt file is turned away; this
//! sweep holds that gate against every prefix of a small compiled file and
//! a fixed set of seeded single-byte mutations. No input may panic, and
//! `attach` succeeds exactly when the file's own verifier run is clean.

use pegasus_core::compile::{compile, CompileOptions, CompileTarget};
use pegasus_core::fusion::fuse_basic;
use pegasus_core::primitives::{MapFn, PrimitiveProgram};
use pegasus_core::{ControlHandle, EngineBuilder, PegasusError, StreamFeatures, TenantConfig};
use pegasus_ctl::artifact::{ArtifactFile, ArtifactPayload};
use pegasus_switch::SwitchConfig;

/// A two-class scorer over four feature codes, compiled to a stateless
/// artifact file of a few kilobytes.
fn small_file() -> ArtifactFile {
    let mut p = PrimitiveProgram::new(4);
    let segs = p.partition_strided(p.input, 2, 2);
    let affine = || MapFn::Affine { scale: vec![1.0, -1.0], shift: vec![0.0, 0.0] };
    let (a, b) = (p.map(segs[0], affine()), p.map(segs[1], affine()));
    let out = p.sum_reduce(&[a, b]);
    p.set_output(out);
    fuse_basic(&mut p);
    let rows: Vec<Vec<f32>> = (0..300u32)
        .map(|i| (0..4u32).map(|j| ((i * 53 + j * 29 + i * i * 3) % 256) as f32).collect())
        .collect();
    let opts = CompileOptions { clustering_depth: 3, ..Default::default() };
    let pipeline = compile(&p, &rows, &opts, CompileTarget::Classify, "sweep").expect("compiles");
    ArtifactFile {
        switch: SwitchConfig::tofino2(),
        payload: ArtifactPayload::Stateless { features: StreamFeatures::Stat, pipeline },
    }
}

/// Where one blob stopped.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Undecodable,
    NotDeployable,
    Rejected,
    Attached,
}

/// One blob through the daemon's gates, asserting the verdicts agree.
fn admit(control: &ControlHandle, bytes: &[u8], what: &str) -> Outcome {
    let Ok(file) = ArtifactFile::from_bytes(bytes) else { return Outcome::Undecodable };
    let errors = file.verify_errors();
    let Ok(artifact) = file.deploy() else { return Outcome::NotDeployable };
    match control.attach(artifact, TenantConfig::new()) {
        Ok(token) => {
            assert_eq!(errors, 0, "{what}: attached a file the verifier rejects");
            control.detach(token).expect("detaches");
            Outcome::Attached
        }
        Err(PegasusError::Verify { report }) => {
            assert_eq!(report.errors().count() as u64, errors, "{what}: verdicts differ");
            Outcome::Rejected
        }
        Err(e) => {
            assert_eq!(errors, 0, "{what}: a file the verifier rejects failed with {e}");
            Outcome::Rejected
        }
    }
}

#[test]
fn every_prefix_and_seeded_mutation_is_typed_through_attach() {
    let bytes = small_file().to_bytes();
    assert!(bytes.len() < 16 << 10, "{} bytes", bytes.len());
    let server = EngineBuilder::new().build().expect("builds");
    let control = server.control();
    let mut seen = std::collections::BTreeSet::new();

    for len in 0..=bytes.len() {
        let outcome = admit(&control, &bytes[..len], &format!("prefix {len}"));
        assert_eq!(outcome == Outcome::Attached, len == bytes.len(), "prefix {len}: {outcome:?}");
    }
    // splitmix64: a fixed, seeded set of (position, xor) pairs.
    let mut state = 0x5eed_u64;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for _ in 0..512 {
        let (at, flip) = ((next() % bytes.len() as u64) as usize, (next() % 255 + 1) as u8);
        let mut mutant = bytes.clone();
        mutant[at] ^= flip;
        seen.insert(admit(&control, &mutant, &format!("byte {at} ^ {flip:#04x}")));
    }
    // The sweep reached every gate: some mutants fail to decode, some
    // decode and are refused, some serve.
    for gate in [Outcome::Undecodable, Outcome::Rejected, Outcome::Attached] {
        assert!(seen.contains(&gate), "no mutant ended {gate:?}: {seen:?}");
    }
    server.shutdown().expect("shuts down");
}
