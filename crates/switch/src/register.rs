//! Stateful register arrays — the per-flow memory of the dataplane.
//!
//! Registers are the scarce resource behind the paper's Figure 7: every bit
//! of per-flow state multiplies by the number of concurrent flows. Widths
//! are restricted to what PISA hardware offers (8/16/32 bits; no 4-bit
//! registers, §7.3 footnote 2).

use crate::action::RegId;
use crate::phv::truncate;
use serde::{Deserialize, Serialize};

/// Declaration and storage of one register array.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RegisterArray {
    /// Diagnostic name.
    pub name: String,
    /// Element width in bits (must be 8, 16, or 32 on the Tofino model).
    pub width_bits: u8,
    /// Number of elements.
    pub size: usize,
    values: Vec<i64>,
}

impl RegisterArray {
    /// Creates a zeroed register array.
    pub fn new(name: &str, width_bits: u8, size: usize) -> Self {
        assert!(size > 0, "register array must have at least one element");
        RegisterArray { name: name.to_string(), width_bits, size, values: vec![0; size] }
    }

    /// Total SRAM bits consumed by this array.
    pub fn total_bits(&self) -> u64 {
        self.width_bits as u64 * self.size as u64
    }

    /// Reads element `idx`, wrapping modulo the array size (dataplane index
    /// computations are masked to the array size by the compiler, so the
    /// wrap is the identity for compiled programs).
    pub fn read(&self, idx: usize) -> i64 {
        self.values[idx % self.size]
    }

    /// Writes element `idx` (wrapping modulo the array size, as
    /// [`read`](RegisterArray::read) does), truncating to the register
    /// width.
    pub fn write(&mut self, idx: usize, value: i64) {
        let i = idx % self.size;
        self.values[i] = truncate(value, self.width_bits, false);
    }

    /// Resets all elements to zero.
    pub fn clear(&mut self) {
        self.values.iter_mut().for_each(|v| *v = 0);
    }
}

/// One set of register arrays — the per-flow *state* a loaded program
/// reads and writes. Owned by whoever serves the flows (one file per engine
/// shard), never by the program: see
/// [`LoadedProgram::zeroed_registers`](crate::program::LoadedProgram::zeroed_registers).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RegFile {
    arrays: Vec<RegisterArray>,
}

impl RegFile {
    /// Wraps a list of arrays; `RegId(i)` addresses `arrays[i]`.
    pub fn new(arrays: Vec<RegisterArray>) -> Self {
        RegFile { arrays }
    }

    /// Number of arrays.
    pub fn len(&self) -> usize {
        self.arrays.len()
    }

    /// True when no arrays exist.
    pub fn is_empty(&self) -> bool {
        self.arrays.is_empty()
    }

    /// Reads `reg[idx]`.
    pub fn read(&self, reg: RegId, idx: usize) -> i64 {
        self.arrays[reg.0].read(idx)
    }

    /// Writes `reg[idx] = value`.
    pub fn write(&mut self, reg: RegId, idx: usize, value: i64) {
        self.arrays[reg.0].write(idx, value);
    }

    /// The declaration of an array.
    pub fn array(&self, reg: RegId) -> &RegisterArray {
        &self.arrays[reg.0]
    }

    /// Total SRAM bits across all arrays.
    pub fn total_bits(&self) -> u64 {
        self.arrays.iter().map(|a| a.total_bits()).sum()
    }

    /// Zeroes every array (start of a fresh trace replay).
    pub fn clear(&mut self) {
        self.arrays.iter_mut().for_each(|a| a.clear());
    }

    /// Iterates the arrays.
    pub fn iter(&self) -> impl Iterator<Item = &RegisterArray> {
        self.arrays.iter()
    }
}

// --- serde (control-daemon artifact format) ----------------------------
//
// `values` is private, so the impl lives here; the decoder re-validates
// the size/values invariant the constructor enforces.

impl serde::Serialize for RegisterArray {
    fn serialize(&self, w: &mut serde::Writer) {
        self.name.serialize(w);
        self.width_bits.serialize(w);
        self.size.serialize(w);
        self.values.serialize(w);
    }
}

impl<'de> serde::Deserialize<'de> for RegisterArray {
    fn deserialize(r: &mut serde::Reader<'de>) -> Result<Self, serde::DecodeError> {
        let name: String = serde::Deserialize::deserialize(r)?;
        let width_bits: u8 = serde::Deserialize::deserialize(r)?;
        let size: usize = serde::Deserialize::deserialize(r)?;
        let values: Vec<i64> = serde::Deserialize::deserialize(r)?;
        if size == 0 || values.len() != size {
            return Err(serde::DecodeError::BadLength {
                what: "register values",
                len: values.len(),
                remaining: r.remaining(),
            });
        }
        Ok(RegisterArray { name, width_bits, size, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut r = RegisterArray::new("r", 16, 8);
        r.write(3, 1234);
        assert_eq!(r.read(3), 1234);
        assert_eq!(r.read(0), 0);
    }

    #[test]
    fn width_truncation() {
        let mut r = RegisterArray::new("r", 8, 2);
        r.write(0, 300);
        assert_eq!(r.read(0), 44);
    }

    #[test]
    fn index_wraps_modulo_size() {
        let mut r = RegisterArray::new("r", 8, 4);
        r.write(6, 9);
        assert_eq!(r.read(2), 9);
    }

    #[test]
    fn total_bits() {
        let r = RegisterArray::new("r", 32, 1024);
        assert_eq!(r.total_bits(), 32 * 1024);
        let f = RegFile::new(vec![RegisterArray::new("a", 8, 10), RegisterArray::new("b", 16, 10)]);
        assert_eq!(f.total_bits(), 80 + 160);
    }

    #[test]
    fn clear_resets() {
        let mut f = RegFile::new(vec![RegisterArray::new("a", 8, 4)]);
        f.write(RegId(0), 1, 7);
        f.clear();
        assert_eq!(f.read(RegId(0), 1), 0);
    }
}
