//! The correctness pass, end to end: a real engine serves the workload's
//! capture and must agree with the re-enactment verdict for verdict.

use servebench::run::{check_only, Options};
use servebench::workload::Workload;

fn opts(workload: Workload, seed: u64) -> Options {
    Options { workload, seed, seconds: 1.0, trace: false, out_dir: "out/test".into() }
}

#[test]
fn mlp_steady_check_is_green_and_not_vacuous() {
    let result = check_only(&opts(Workload::MlpSteady, 5));
    assert_eq!(result.failed, 0);
    assert!(result.attempted > 85_000, "{} frames", result.attempted);
    assert!(result.verdicts_checked > 40_000, "{} verdicts", result.verdicts_checked);
}

#[test]
fn mice_fleet_check_covers_loops_swaps_rejects_and_unrouted() {
    let result = check_only(&opts(Workload::MiceFleet, 5));
    assert_eq!(result.failed, 0);
    // Two loops of a ≥ 150 k-frame capture on one long-lived engine.
    assert!(result.attempted > 300_000, "{} frames", result.attempted);
    assert!(result.verdicts_checked > 10_000, "{} verdicts", result.verdicts_checked);
}
