//! Stateful register arrays — the per-flow memory of the dataplane.
//!
//! Registers are the scarce resource behind the paper's Figure 7: every bit
//! of per-flow state multiplies by the number of concurrent flows. Widths
//! are restricted to what PISA hardware offers (8/16/32 bits; no 4-bit
//! registers, §7.3 footnote 2).
//!
//! A [`RegisterArray`] is a *declaration* (name, width, slot count): what
//! a [`SwitchProgram`](crate::program::SwitchProgram) holds, an artifact
//! file encodes and every runner of the program shares. A [`RegFile`] is
//! the *cells*, and alone owns any: one per engine shard, allocated from
//! the declarations, never part of a program and never written to disk.

use crate::action::RegId;
use crate::phv::truncate;

/// Element widths PISA register arrays come in.
pub const REGISTER_WIDTHS: [u8; 3] = [8, 16, 32];
/// Ceiling on the register bits a decoded program may declare: the largest
/// preset's budget (a file supplies its own `SwitchConfig`, so not that).
pub const MAX_REGISTER_BITS: u64 = 100 * 1024 * 1024;

/// Declaration of one register array — shape only, no cells.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegisterArray {
    /// Diagnostic name.
    pub name: String,
    /// Element width in bits (must be 8, 16, or 32 on the Tofino model).
    pub width_bits: u8,
    /// Number of elements.
    pub size: usize,
}

impl RegisterArray {
    /// Declares a register array.
    pub fn new(name: &str, width_bits: u8, size: usize) -> Self {
        assert!(size > 0, "register array must have at least one element");
        RegisterArray { name: name.to_string(), width_bits, size }
    }

    /// Total SRAM bits this array occupies once instantiated.
    pub fn total_bits(&self) -> u64 {
        (self.width_bits as u64).saturating_mul(self.size as u64)
    }

    /// The gate a *decoded* program's declarations pass before anything is
    /// sized from them (the file's own `SwitchConfig` budget bounds
    /// nothing): widths in [`REGISTER_WIDTHS`], no empty array, total
    /// within [`MAX_REGISTER_BITS`].
    pub(crate) fn check_decoded(decls: &[RegisterArray]) -> Result<(), serde::DecodeError> {
        let invalid = |what, value| Err(serde::DecodeError::OutOfRange { what, value });
        let mut total = 0u64;
        for d in decls {
            if !REGISTER_WIDTHS.contains(&d.width_bits) {
                return invalid("register width", u64::from(d.width_bits));
            }
            if d.size == 0 {
                return invalid("register size", 0);
            }
            total = total.saturating_add(d.total_bits());
            if total > MAX_REGISTER_BITS {
                return invalid("declared register bits", total);
            }
        }
        Ok(())
    }
}

serde::impl_serde_struct!(RegisterArray { name, width_bits, size });

/// The cells of one declared array.
#[derive(Clone, Debug, PartialEq)]
struct Cells {
    width_bits: u8,
    values: Vec<i64>,
}

/// One set of instantiated register arrays — the per-flow *state* a loaded
/// program reads and writes. Owned by whoever serves the flows (one file
/// per engine shard), never by the program, and shared with nobody.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegFile {
    arrays: Vec<Cells>,
}

impl RegFile {
    /// A zeroed file of the declared shape; `RegId(i)` addresses
    /// `decls[i]`. Empty (and allocation-free) for no declarations.
    pub fn new(decls: &[RegisterArray]) -> Self {
        let cells = |d: &RegisterArray| Cells { width_bits: d.width_bits, values: vec![0; d.size] };
        RegFile { arrays: decls.iter().map(cells).collect() }
    }

    /// Reads `reg[idx]`, wrapping modulo the array size (dataplane index
    /// computations are masked to the array size by the compiler, so the
    /// wrap is the identity for compiled programs).
    pub fn read(&self, reg: RegId, idx: usize) -> i64 {
        let a = &self.arrays[reg.0];
        a.values[idx % a.values.len()]
    }

    /// Writes `reg[idx] = value` (wrapping like [`read`](RegFile::read)),
    /// truncating to the register width.
    pub fn write(&mut self, reg: RegId, idx: usize, value: i64) {
        let a = &mut self.arrays[reg.0];
        let i = idx % a.values.len();
        a.values[i] = truncate(value, a.width_bits, false);
    }

    /// Zeroes every array (start of a fresh trace replay).
    pub fn clear(&mut self) {
        self.arrays.iter_mut().for_each(|a| a.values.fill(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(width_bits: u8, size: usize) -> RegFile {
        RegFile::new(&[RegisterArray::new("r", width_bits, size)])
    }

    #[test]
    fn read_write_round_trip() {
        let mut r = file(16, 8);
        r.write(RegId(0), 3, 1234);
        assert_eq!(r.read(RegId(0), 3), 1234);
        assert_eq!(r.read(RegId(0), 0), 0);
    }

    #[test]
    fn width_truncation() {
        let mut r = file(8, 2);
        r.write(RegId(0), 0, 300);
        assert_eq!(r.read(RegId(0), 0), 44);
    }

    #[test]
    fn index_wraps_modulo_size() {
        let mut r = file(8, 4);
        r.write(RegId(0), 6, 9);
        assert_eq!(r.read(RegId(0), 2), 9);
        assert_eq!((r.read(RegId(0), 6), r.read(RegId(0), 1)), (9, 0));
    }

    #[test]
    fn total_bits() {
        assert_eq!(RegisterArray::new("r", 32, 1024).total_bits(), 32 * 1024);
        // A declaration costs its name and two integers, whatever it declares.
        let big = serde::to_bytes(&RegisterArray::new("r", 32, 1 << 20));
        assert_eq!(big.len(), serde::to_bytes(&RegisterArray::new("r", 8, 1)).len());
        assert_eq!(serde::from_bytes::<RegisterArray>(&big).unwrap().size, 1 << 20);
    }

    #[test]
    fn clear_resets() {
        let mut f = file(8, 4);
        f.write(RegId(0), 1, 7);
        f.clear();
        assert_eq!(f.read(RegId(0), 1), 0);
    }

    #[test]
    fn decoded_declarations_are_bounded_before_anything_is_sized() {
        use serde::DecodeError::OutOfRange;
        let decl = |width_bits, size| RegisterArray { name: "r".into(), width_bits, size };
        let check = RegisterArray::check_decoded;
        assert_eq!(check(&[decl(8, 16), decl(32, 1 << 14)]), Ok(()));
        assert_eq!(check(&[decl(4, 16)]), Err(OutOfRange { what: "register width", value: 4 }));
        assert_eq!(check(&[decl(8, 0)]), Err(OutOfRange { what: "register size", value: 0 }));
        let err = check(&[decl(32, 1 << 40)]).unwrap_err();
        assert_eq!(err, OutOfRange { what: "declared register bits", value: 32 << 40 });
        // The ceiling is on the sum, and the sum cannot wrap.
        let half = (MAX_REGISTER_BITS / 32) as usize;
        assert_eq!(check(&[decl(32, half)]), Ok(()));
        assert!(check(&[decl(32, half), decl(8, 1)]).is_err());
        assert!(check(&[decl(32, usize::MAX), decl(32, usize::MAX)]).is_err());
    }
}
