//! Ternary keys and range-to-ternary encoding.
//!
//! TCAM matches `(value, mask)` pairs: a packet field `x` matches when
//! `x & mask == value & mask`. Numeric range predicates — which is what the
//! fuzzy-matching clustering tree produces — must be compiled to sets of
//! ternary rules. The paper uses the Consecutive Range Coding (CRC)
//! algorithm from NetBeacon \[58\] for this (§6.1); the classic form
//! implemented here decomposes `[lo, hi]` into maximal aligned power-of-two
//! blocks, which is optimal for prefix-style expansions.

/// A single ternary match: `x` matches when `x & mask == value`.
///
/// Invariant: `value & !mask == 0` (don't-care bits are zeroed in `value`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TernaryKey {
    /// Care-bit pattern.
    pub value: u64,
    /// Set bits participate in the comparison.
    pub mask: u64,
}

impl TernaryKey {
    /// An exact-match key over `bits` bits.
    pub fn exact(value: u64, bits: u8) -> Self {
        let mask = mask_of(bits);
        TernaryKey { value: value & mask, mask }
    }

    /// A wildcard key (matches anything).
    pub fn any() -> Self {
        TernaryKey { value: 0, mask: 0 }
    }

    /// True when `x` matches this key.
    #[inline]
    pub fn matches(&self, x: u64) -> bool {
        x & self.mask == self.value
    }

    /// Number of wildcard (don't-care) bits within a `bits`-wide field.
    pub fn wildcard_bits(&self, bits: u8) -> u32 {
        (!self.mask & mask_of(bits)).count_ones()
    }
}

/// All-ones mask of the low `bits` bits.
pub fn mask_of(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Consecutive Range Coding: encodes the inclusive integer range `[lo, hi]`
/// over a `bits`-wide field as a minimal set of prefix-style ternary keys.
///
/// The decomposition walks the range greedily from `lo`, at each step taking
/// the largest aligned power-of-two block that still fits — the standard
/// optimal prefix cover, worst case `2*bits - 2` keys.
pub fn range_to_ternary(lo: u64, hi: u64, bits: u8) -> Vec<TernaryKey> {
    range_prefixes(lo, hi, bits).collect()
}

/// The keys of [`range_to_ternary`], yielded one block at a time: resource
/// accounting counts them without allocating.
pub(crate) fn range_prefixes(lo: u64, hi: u64, bits: u8) -> RangePrefixes {
    assert!(lo <= hi, "empty range [{lo}, {hi}]");
    assert!(bits <= 48, "range coding supports fields up to 48 bits");
    let field_mask = mask_of(bits);
    assert!(hi <= field_mask, "range end {hi} exceeds {bits}-bit field");
    RangePrefixes { next: Some(lo), hi, bits, field_mask }
}

/// Iterator behind [`range_prefixes`]: `next` is the first value not yet
/// covered, `None` once `hi` is.
pub(crate) struct RangePrefixes {
    next: Option<u64>,
    hi: u64,
    bits: u8,
    field_mask: u64,
}

impl Iterator for RangePrefixes {
    type Item = TernaryKey;

    fn next(&mut self) -> Option<TernaryKey> {
        let cur = self.next?;
        // Largest block size aligned at `cur`:
        let align_block =
            if cur == 0 { 1u64 << self.bits.min(63) } else { 1u64 << cur.trailing_zeros() };
        // Largest block that does not overshoot hi:
        let remaining = self.hi - cur + 1;
        let mut block = align_block.min(prev_power_of_two(remaining));
        // Guard for the bits==64 edge (align_block could be 1<<63 twice).
        if block == 0 {
            block = 1;
        }
        let prefix_bits = block.trailing_zeros() as u8;
        self.next = cur.checked_add(block).filter(|&n| n <= self.hi);
        Some(TernaryKey {
            value: cur & self.field_mask,
            mask: self.field_mask & !mask_of(prefix_bits),
        })
    }
}

fn prev_power_of_two(x: u64) -> u64 {
    assert!(x > 0);
    1u64 << (63 - x.leading_zeros())
}

/// Counts how many `bits`-wide values match any key in `keys`
/// (test helper for exhaustive verification of small fields).
pub fn count_matching(keys: &[TernaryKey], bits: u8) -> u64 {
    assert!(bits <= 20, "exhaustive count only for small fields");
    (0..=mask_of(bits)).filter(|&x| keys.iter().any(|k| k.matches(x))).count() as u64
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_struct!(TernaryKey { value, mask });

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_exact_cover(lo: u64, hi: u64, bits: u8) {
        let keys = range_to_ternary(lo, hi, bits);
        for x in 0..=mask_of(bits) {
            let should = (lo..=hi).contains(&x);
            let does = keys.iter().any(|k| k.matches(x));
            assert_eq!(should, does, "x={x} lo={lo} hi={hi} keys={keys:?}");
        }
    }

    #[test]
    fn single_value_is_exact() {
        let keys = range_to_ternary(5, 5, 8);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0], TernaryKey::exact(5, 8));
    }

    #[test]
    fn full_range_is_wildcard() {
        let keys = range_to_ternary(0, 255, 8);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].mask, 0);
    }

    #[test]
    fn paper_style_threshold_ranges() {
        // Fuzzy tree thresholds produce [0, t] and [t+1, max] ranges.
        assert_exact_cover(0, 5, 4);
        assert_exact_cover(6, 15, 4);
        assert_exact_cover(0, 127, 8);
        assert_exact_cover(128, 255, 8);
    }

    #[test]
    fn awkward_ranges() {
        assert_exact_cover(1, 254, 8);
        assert_exact_cover(3, 3, 8);
        assert_exact_cover(100, 101, 8);
        assert_exact_cover(0, 0, 8);
        assert_exact_cover(255, 255, 8);
    }

    #[test]
    fn rule_count_is_bounded() {
        // Classic worst case [1, 2^n - 2] needs at most 2n-2 rules.
        for bits in [4u8, 8, 12] {
            let keys = range_to_ternary(1, mask_of(bits) - 1, bits);
            assert!(keys.len() <= 2 * bits as usize - 2, "bits={bits}: {} rules", keys.len());
        }
    }

    #[test]
    fn wildcard_bit_counts() {
        let k = TernaryKey { value: 0b1000, mask: 0b1100 };
        assert_eq!(k.wildcard_bits(4), 2);
        assert_eq!(TernaryKey::any().wildcard_bits(8), 8);
        assert_eq!(TernaryKey::exact(7, 8).wildcard_bits(8), 0);
    }

    /// CRC covers exactly [lo, hi]: no value outside matches, every value
    /// inside matches (the DESIGN.md §6 property). Every `lo` is swept
    /// against a spread of widths — exhaustive where it matters (threshold
    /// ranges are the common case) without the full 2^16 product.
    #[test]
    fn range_cover_exact_sweep() {
        for lo in 0u64..256 {
            for width in [0u64, 1, 2, 3, 5, 9, 17, 33, 64, 100, 129, 200, 254, 255] {
                let hi = (lo + width).min(255);
                assert_exact_cover(lo, hi, 8);
            }
        }
    }

    /// Keys within one range decomposition never overlap (disjoint covers
    /// make the matched-value counts add up exactly).
    #[test]
    fn keys_disjoint_randomized() {
        // Simple LCG keeps this test free of external randomness sources.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..256 {
            let lo = next() % 4096;
            let hi = (lo + next() % 4096).min(4095);
            let keys = range_to_ternary(lo, hi, 12);
            let total: u64 = count_matching(&keys, 12);
            assert_eq!(total, hi - lo + 1, "lo={lo} hi={hi}");
        }
    }
}
