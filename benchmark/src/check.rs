//! Holding three accounts of one run against each other: what the capture
//! generator intended, what the re-enactment computed, what the engine
//! served. Every difference is counted, never asserted: the count becomes
//! the run's `failed`.

use crate::capture::Capture;
use crate::reenact::Outcome;

/// Frames the re-enactment disposed of differently than the generator
/// intended (served by another tenant, unrouted, or rejected).
pub fn disposition_mismatches(capture: &Capture, reenacted: &Outcome) -> u64 {
    let differing =
        capture.disposition.iter().zip(&reenacted.disposition).filter(|(a, b)| a != b).count();
    differing as u64 + capture.frames().abs_diff(reenacted.disposition.len() as u64)
}

/// Verdicts an outcome recorded: what [`outcome_mismatches`] has to compare
/// position by position (0 would make a green check vacuous).
pub fn verdicts_recorded(o: &Outcome) -> u64 {
    o.tenants.iter().flat_map(|t| t.predictions.values()).map(|v| v.len() as u64).sum()
}

/// Differences between what the re-enactment expects and what was served:
/// frame, reject-bucket and unrouted totals, per-tenant packet and verdict
/// counts, and — where both sides recorded them — every position at which
/// a flow's verdict sequence differs.
pub fn outcome_mismatches(expect: &Outcome, got: &Outcome) -> u64 {
    let mut n = expect.frames.abs_diff(got.frames) + expect.unrouted.abs_diff(got.unrouted);
    for (a, b) in expect.rejects.iter().zip(&got.rejects) {
        n += a.abs_diff(*b);
    }
    n += expect.tenants.len().abs_diff(got.tenants.len()) as u64;
    for (a, b) in expect.tenants.iter().zip(&got.tenants) {
        n += a.packets.abs_diff(b.packets) + a.classified.abs_diff(b.classified);
        for (flow, want) in &a.predictions {
            let have = b.predictions.get(flow).map_or(&[][..], Vec::as_slice);
            n += want.len().abs_diff(have.len()) as u64;
            n += want.iter().zip(have).filter(|(x, y)| x != y).count() as u64;
        }
        n += b.predictions.keys().filter(|f| !a.predictions.contains_key(f)).count() as u64;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reenact::TenantOutcome;
    use pegasus_net::FiveTuple;

    fn outcome() -> Outcome {
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        Outcome {
            frames: 10,
            rejects: [1, 0, 1, 0],
            unrouted: 2,
            tenants: vec![TenantOutcome {
                packets: 6,
                classified: 3,
                predictions: [(flow, vec![0, 1, 1])].into_iter().collect(),
            }],
            ..Outcome::default()
        }
    }

    #[test]
    fn identical_outcomes_have_no_mismatch() {
        assert_eq!(outcome_mismatches(&outcome(), &outcome()), 0);
    }

    #[test]
    fn every_kind_of_difference_is_counted() {
        let mut got = outcome();
        got.unrouted = 3;
        got.rejects[2] = 0;
        got.tenants[0].classified = 2;
        let flow = FiveTuple::new(1, 2, 3, 4, 6);
        got.tenants[0].predictions.insert(flow, vec![0, 2]);
        got.tenants[0].predictions.insert(FiveTuple::new(9, 9, 9, 9, 6), vec![1]);
        // unrouted 1 + reject 1 + classified 1 + (length 1 + position 1) + stray flow 1
        assert_eq!(outcome_mismatches(&outcome(), &got), 6);
    }
}
