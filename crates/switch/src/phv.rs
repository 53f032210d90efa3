//! Packet Header Vector: the per-packet field container flowing through the
//! pipeline.
//!
//! PISA parses packet headers into a fixed-capacity vector of typed fields
//! (4096 bits on Tofino 2). Programs declare a [`PhvLayout`] of named fields
//! with explicit bit widths; the simulator enforces the total-capacity limit
//! at deploy time and value/width invariants at run time.

use std::fmt;

/// Index of a field within a [`PhvLayout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub usize);

/// Declaration of one PHV field.
#[derive(Clone, Debug, PartialEq)]
pub struct FieldDef {
    /// Diagnostic name (e.g. "pkt_len", "seg0_fuzzy_idx").
    pub name: String,
    /// Width in bits, 1..=64.
    pub bits: u8,
    /// Whether the field is interpreted as signed two's complement by
    /// arithmetic actions.
    pub signed: bool,
}

/// The set of fields a program carries per packet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhvLayout {
    fields: Vec<FieldDef>,
}

impl PhvLayout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        PhvLayout::default()
    }

    /// Declares a new unsigned field, returning its id.
    pub fn add_field(&mut self, name: &str, bits: u8) -> FieldId {
        self.add(name, bits, false)
    }

    /// Declares a new signed field, returning its id.
    pub fn add_signed_field(&mut self, name: &str, bits: u8) -> FieldId {
        self.add(name, bits, true)
    }

    fn add(&mut self, name: &str, bits: u8, signed: bool) -> FieldId {
        assert!((1..=64).contains(&bits), "field width must be 1..=64, got {bits}");
        assert!(!self.fields.iter().any(|f| f.name == name), "duplicate PHV field name: {name}");
        self.fields.push(FieldDef { name: name.to_string(), bits, signed });
        FieldId(self.fields.len() - 1)
    }

    /// Number of declared fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no fields are declared.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Total bits consumed by the layout.
    pub fn total_bits(&self) -> u64 {
        self.fields.iter().map(|f| f.bits as u64).sum()
    }

    /// The definition of a field.
    pub fn def(&self, id: FieldId) -> &FieldDef {
        &self.fields[id.0]
    }

    /// Looks a field up by name.
    pub fn find(&self, name: &str) -> Option<FieldId> {
        self.fields.iter().position(|f| f.name == name).map(FieldId)
    }

    /// Iterates `(id, def)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &FieldDef)> {
        self.fields.iter().enumerate().map(|(i, d)| (FieldId(i), d))
    }

    /// Creates a zeroed PHV instance for this layout.
    pub fn instantiate(&self) -> Phv {
        Phv { values: vec![0; self.fields.len()], layout: self.clone() }
    }
}

/// A live per-packet header vector holding one value per declared field.
///
/// Values are stored as `i64` and masked to the field width on every write:
/// unsigned fields wrap modulo `2^bits`, signed fields wrap into
/// `[-2^(bits-1), 2^(bits-1))` — matching dataplane ALU semantics where
/// addition simply truncates.
#[derive(Clone, PartialEq)]
pub struct Phv {
    values: Vec<i64>,
    layout: PhvLayout,
}

impl fmt::Debug for Phv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Phv{{")?;
        for (id, def) in self.layout.iter() {
            write!(f, " {}={}", def.name, self.values[id.0])?;
        }
        write!(f, " }}")
    }
}

impl Phv {
    /// Reads a field value.
    pub fn get(&self, id: FieldId) -> i64 {
        self.values[id.0]
    }

    /// Writes a field value, truncating to the declared width.
    pub fn set(&mut self, id: FieldId, value: i64) {
        let def = self.layout.def(id);
        self.values[id.0] = truncate(value, def.bits, def.signed);
    }

    /// The layout this PHV conforms to.
    pub fn layout(&self) -> &PhvLayout {
        &self.layout
    }

    /// Reads a field by name (test/debug convenience; panics when missing).
    pub fn get_named(&self, name: &str) -> i64 {
        let id = self.layout.find(name).unwrap_or_else(|| panic!("no PHV field named {name}"));
        self.get(id)
    }
}

/// Truncates `value` to `bits`, unsigned-wrapping or sign-extending.
pub fn truncate(value: i64, bits: u8, signed: bool) -> i64 {
    if bits >= 64 {
        return value;
    }
    let mask = (1i64 << bits) - 1;
    let raw = value & mask;
    if signed && (raw >> (bits - 1)) & 1 == 1 {
        raw - (1i64 << bits)
    } else {
        raw
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_struct!(FieldId(index));
serde::impl_serde_struct!(FieldDef { name, bits, signed });
serde::impl_serde_struct!(PhvLayout { fields });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_tracks_bits() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 8);
        let b = l.add_field("b", 16);
        assert_eq!(l.total_bits(), 24);
        assert_eq!(l.def(a).bits, 8);
        assert_eq!(l.find("b"), Some(b));
        assert_eq!(l.find("c"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        let mut l = PhvLayout::new();
        l.add_field("x", 8);
        l.add_field("x", 8);
    }

    #[test]
    fn unsigned_truncation_wraps() {
        assert_eq!(truncate(256, 8, false), 0);
        assert_eq!(truncate(257, 8, false), 1);
        assert_eq!(truncate(-1, 8, false), 255);
    }

    #[test]
    fn signed_truncation_sign_extends() {
        assert_eq!(truncate(127, 8, true), 127);
        assert_eq!(truncate(128, 8, true), -128);
        assert_eq!(truncate(-1, 8, true), -1);
        assert_eq!(truncate(255, 8, true), -1);
    }

    #[test]
    fn phv_set_get_masks() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 8);
        let s = l.add_signed_field("s", 8);
        let mut phv = l.instantiate();
        phv.set(a, 300);
        assert_eq!(phv.get(a), 44); // 300 mod 256
        phv.set(s, 200);
        assert_eq!(phv.get(s), -56); // wraps into signed range
    }

    #[test]
    fn get_named_reads() {
        let mut l = PhvLayout::new();
        let a = l.add_field("alpha", 16);
        let mut phv = l.instantiate();
        phv.set(a, 1234);
        assert_eq!(phv.get_named("alpha"), 1234);
    }

    #[test]
    fn full_width_fields_pass_through() {
        assert_eq!(truncate(i64::MIN, 64, true), i64::MIN);
        assert_eq!(truncate(i64::MAX, 64, false), i64::MAX);
    }
}
