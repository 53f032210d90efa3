//! Match-action tables.
//!
//! A table matches a tuple of PHV fields against its entries (exact, ternary
//! or range match per field) and executes the matched entry's action with
//! the entry's action data. Exact tables live in SRAM; ternary and range
//! tables consume TCAM (ranges are costed via their Consecutive Range Coding
//! expansion, §6.1) with their action data in SRAM.

use crate::action::Action;
use crate::phv::{FieldId, Phv, PhvLayout};
use crate::ternary::{mask_of, range_prefixes, TernaryKey};
use std::collections::HashMap;

/// How one key field is matched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// Exact equality (SRAM).
    Exact,
    /// Value/mask match (TCAM).
    Ternary,
    /// Inclusive numeric range (TCAM via CRC expansion).
    Range,
}

/// One field's pattern within an entry.
#[derive(Clone, Debug, PartialEq)]
pub enum KeyPart {
    /// Matches when the field equals the value exactly.
    Exact(u64),
    /// Matches when `field & mask == value`.
    Ternary(TernaryKey),
    /// Matches when `lo <= field <= hi`.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl KeyPart {
    /// True when the raw (unsigned) field value matches.
    pub fn matches(&self, raw: u64) -> bool {
        match self {
            KeyPart::Exact(v) => raw == *v,
            KeyPart::Ternary(t) => t.matches(raw),
            KeyPart::Range { lo, hi } => (*lo..=*hi).contains(&raw),
        }
    }

    /// Number of TCAM rules this part expands to on a `bits`-wide field.
    pub fn tcam_expansion(&self, bits: u8) -> u64 {
        match self {
            KeyPart::Exact(_) => 1,
            KeyPart::Ternary(_) => 1,
            KeyPart::Range { lo, hi } => range_prefixes(*lo, *hi, bits).count() as u64,
        }
    }
}

/// One table entry.
#[derive(Clone, Debug, PartialEq)]
pub struct TableEntry {
    /// One pattern per declared key field, in declaration order.
    pub keys: Vec<KeyPart>,
    /// Higher priority wins among multiple ternary/range matches.
    pub priority: i32,
    /// Index into the table's action list.
    pub action_idx: usize,
    /// Words delivered to the action's `Param` operands on match.
    pub action_data: Vec<i64>,
}

/// A match-action table declaration plus its entries — plain data; lookup
/// indexes are derived state of whoever runs the table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Diagnostic name (unique within a program).
    pub name: String,
    /// Key fields and how each is matched.
    pub keys: Vec<(FieldId, MatchKind)>,
    /// The actions entries may invoke.
    pub actions: Vec<Action>,
    /// Action + data to run when nothing matches.
    pub default_action: Option<(usize, Vec<i64>)>,
    /// Match entries.
    pub entries: Vec<TableEntry>,
    /// Bit width of each action-data word (drives bus accounting).
    pub param_widths: Vec<u8>,
}

/// Hash index over an all-exact table: key values → first entry with them.
pub(crate) type ExactIndex = HashMap<Vec<u64>, usize>;

/// Resource demand of one table, computed against a PHV layout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableUsage {
    /// SRAM bits (exact keys + action data storage).
    pub sram_bits: u64,
    /// TCAM bits (ternary/range keys after CRC expansion; value+mask pairs).
    pub tcam_bits: u64,
    /// Action-data bus bits consumed per lookup.
    pub bus_bits: u64,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str, keys: Vec<(FieldId, MatchKind)>) -> Self {
        Table {
            name: name.to_string(),
            keys,
            actions: Vec::new(),
            default_action: None,
            entries: Vec::new(),
            param_widths: Vec::new(),
        }
    }

    /// Registers an action, returning its index.
    pub fn add_action(&mut self, action: Action) -> usize {
        self.actions.push(action);
        self.actions.len() - 1
    }

    /// Appends an entry (validates arity).
    pub fn add_entry(&mut self, entry: TableEntry) {
        assert_eq!(entry.keys.len(), self.keys.len(), "entry key arity mismatch");
        assert!(entry.action_idx < self.actions.len(), "entry references unknown action");
        for (part, (_, kind)) in entry.keys.iter().zip(self.keys.iter()) {
            let ok = matches!(
                (part, kind),
                (KeyPart::Exact(_), MatchKind::Exact)
                    | (KeyPart::Ternary(_), MatchKind::Ternary)
                    | (KeyPart::Range { .. }, MatchKind::Range)
                    // Exact values are expressible in ternary/range columns.
                    | (KeyPart::Exact(_), MatchKind::Ternary)
                    | (KeyPart::Exact(_), MatchKind::Range)
            );
            assert!(ok, "key part {part:?} incompatible with match kind {kind:?}");
        }
        self.entries.push(entry);
    }

    /// True when every key column is exact-matched (pure SRAM table).
    pub fn is_exact(&self) -> bool {
        self.keys.iter().all(|(_, k)| *k == MatchKind::Exact)
    }

    /// The hash index of an exact table (`None` for any other).
    pub(crate) fn exact_index(&self) -> Option<ExactIndex> {
        if !self.is_exact() {
            return None;
        }
        let mut idx = HashMap::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            let key: Vec<u64> = e
                .keys
                .iter()
                .map(|p| match p {
                    KeyPart::Exact(v) => *v,
                    _ => unreachable!("exact table with non-exact part"),
                })
                .collect();
            idx.entry(key).or_insert(i);
        }
        Some(idx)
    }

    /// Raw unsigned value of a PHV field (what the match hardware sees).
    fn raw(phv: &Phv, field: FieldId) -> u64 {
        let bits = phv.layout().def(field).bits;
        (phv.get(field) as u64) & mask_of(bits)
    }

    /// Looks up the PHV by scanning the entries, returning `(action,
    /// action_data)` of the winning entry, or the default action.
    pub fn lookup(&self, phv: &Phv) -> Option<(&Action, &[i64])> {
        self.lookup_with(phv, None)
    }

    /// [`lookup`](Table::lookup) through this table's
    /// [`exact_index`](Table::exact_index) when the caller holds one.
    pub(crate) fn lookup_with(
        &self,
        phv: &Phv,
        index: Option<&ExactIndex>,
    ) -> Option<(&Action, &[i64])> {
        let raws: Vec<u64> = self.keys.iter().map(|(f, _)| Self::raw(phv, *f)).collect();
        let hit = if let Some(index) = index {
            index.get(&raws).copied()
        } else {
            self.entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.keys.iter().zip(raws.iter()).all(|(p, &r)| p.matches(r)))
                .max_by_key(|(i, e)| (e.priority, -(*i as i64)))
                .map(|(i, _)| i)
        };
        match hit {
            Some(i) => {
                let e = &self.entries[i];
                Some((&self.actions[e.action_idx], &e.action_data[..]))
            }
            None => {
                self.default_action.as_ref().map(|(idx, data)| (&self.actions[*idx], &data[..]))
            }
        }
    }

    /// Computes the table's resource demand against a layout.
    pub fn usage(&self, layout: &PhvLayout) -> TableUsage {
        let key_bits: u64 = self.keys.iter().map(|(f, _)| layout.def(*f).bits as u64).sum();
        let data_bits: u64 = self.param_widths.iter().map(|&w| w as u64).sum();
        // Action-id overhead per entry (selects among up to 256 actions).
        const ACTION_ID_BITS: u64 = 8;

        if self.is_exact() {
            // Hash-table style SRAM entry: key + action id + action data.
            let sram = self.entries.len() as u64 * (key_bits + ACTION_ID_BITS + data_bits);
            TableUsage { sram_bits: sram, tcam_bits: 0, bus_bits: data_bits }
        } else {
            // TCAM rules after range expansion (cross product of per-field
            // expansions), value+mask per rule; action data stays in SRAM.
            let mut rules: u64 = 0;
            for e in &self.entries {
                let mut per_entry: u64 = 1;
                for (part, (f, _)) in e.keys.iter().zip(self.keys.iter()) {
                    per_entry = per_entry.saturating_mul(part.tcam_expansion(layout.def(*f).bits));
                }
                rules = rules.saturating_add(per_entry);
            }
            let tcam = rules.saturating_mul(2 * key_bits);
            let sram = self.entries.len() as u64 * (ACTION_ID_BITS + data_bits);
            TableUsage { sram_bits: sram, tcam_bits: tcam, bus_bits: data_bits }
        }
    }

    /// Fields read by this table (match keys plus action sources).
    pub fn reads(&self) -> Vec<FieldId> {
        let mut fields: Vec<FieldId> = self.keys.iter().map(|(f, _)| *f).collect();
        for a in &self.actions {
            for op in &a.ops {
                fields.extend(op.src_fields());
            }
        }
        fields.sort_unstable();
        fields.dedup();
        fields
    }

    /// Fields written by this table's actions.
    pub fn writes(&self) -> Vec<FieldId> {
        let mut fields: Vec<FieldId> = self
            .actions
            .iter()
            .flat_map(|a| a.ops.iter().filter_map(|op| op.dst_field()))
            .collect();
        fields.sort_unstable();
        fields.dedup();
        fields
    }
}

// --- serde (control-daemon artifact format) ----------------------------

serde::impl_serde_enum!(MatchKind { 0 => Exact, 1 => Ternary, 2 => Range });
serde::impl_serde_enum!(KeyPart { 0 => Exact(v), 1 => Ternary(key), 2 => Range { lo, hi } });
serde::impl_serde_struct!(TableEntry { keys, priority, action_idx, action_data });

serde::impl_serde_struct!(Table { name, keys, actions, default_action, entries, param_widths });

#[cfg(test)]
impl KeyPart {
    /// [`tcam_expansion`](KeyPart::tcam_expansion) as it was first
    /// written — the length of the allocated cover — for the equivalence
    /// tests.
    pub(crate) fn tcam_expansion_reference(&self, bits: u8) -> u64 {
        match self {
            KeyPart::Exact(_) => 1,
            KeyPart::Ternary(_) => 1,
            KeyPart::Range { lo, hi } => {
                crate::ternary::range_to_ternary(*lo, *hi, bits).len() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{AluOp, Operand};
    use crate::register::RegFile;

    fn layout() -> (PhvLayout, FieldId, FieldId, FieldId) {
        let mut l = PhvLayout::new();
        let x = l.add_field("x", 8);
        let y = l.add_field("y", 8);
        let out = l.add_signed_field("out", 16);
        (l, x, y, out)
    }

    fn set_out(out: FieldId) -> Action {
        Action::new("set_out").with(AluOp::Set { dst: out, a: Operand::Param(0) })
    }

    #[test]
    fn exact_lookup_hits_and_misses() {
        let (l, x, _y, out) = layout();
        let mut t = Table::new("t", vec![(x, MatchKind::Exact)]);
        let a = t.add_action(set_out(out));
        t.param_widths = vec![16];
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Exact(7)],
            priority: 0,
            action_idx: a,
            action_data: vec![111],
        });
        t.default_action = Some((a, vec![-1]));

        let mut phv = l.instantiate();
        phv.set(x, 7);
        let (act, data) = t.lookup(&phv).unwrap();
        let mut regs = RegFile::default();
        act.execute(&mut phv, data, &mut regs);
        assert_eq!(phv.get(out), 111);

        phv.set(x, 8);
        let (act, data) = t.lookup(&phv).unwrap();
        act.execute(&mut phv, data, &mut regs);
        assert_eq!(phv.get(out), -1); // default action
    }

    #[test]
    fn range_lookup_respects_bounds() {
        let (l, x, _y, out) = layout();
        let mut t = Table::new("t", vec![(x, MatchKind::Range)]);
        let a = t.add_action(set_out(out));
        t.param_widths = vec![16];
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 10, hi: 20 }],
            priority: 0,
            action_idx: a,
            action_data: vec![1],
        });
        let mut phv = l.instantiate();
        phv.set(x, 15);
        assert!(t.lookup(&phv).is_some());
        phv.set(x, 21);
        assert!(t.lookup(&phv).is_none());
        phv.set(x, 10);
        assert!(t.lookup(&phv).is_some());
    }

    #[test]
    fn priority_breaks_overlaps() {
        let (l, x, _y, out) = layout();
        let mut t = Table::new("t", vec![(x, MatchKind::Range)]);
        let a = t.add_action(set_out(out));
        t.param_widths = vec![16];
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 0, hi: 255 }],
            priority: 1,
            action_idx: a,
            action_data: vec![1],
        });
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 100, hi: 200 }],
            priority: 10,
            action_idx: a,
            action_data: vec![2],
        });
        let mut phv = l.instantiate();
        phv.set(x, 150);
        let (_, data) = t.lookup(&phv).unwrap();
        assert_eq!(data, &[2]); // higher priority
        phv.set(x, 50);
        let (_, data) = t.lookup(&phv).unwrap();
        assert_eq!(data, &[1]);
    }

    #[test]
    fn multi_field_keys_all_must_match() {
        let (l, x, y, out) = layout();
        let mut t = Table::new("t", vec![(x, MatchKind::Range), (y, MatchKind::Range)]);
        let a = t.add_action(set_out(out));
        t.param_widths = vec![16];
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 0, hi: 10 }, KeyPart::Range { lo: 5, hi: 15 }],
            priority: 0,
            action_idx: a,
            action_data: vec![9],
        });
        let mut phv = l.instantiate();
        phv.set(x, 5);
        phv.set(y, 10);
        assert!(t.lookup(&phv).is_some());
        phv.set(y, 20);
        assert!(t.lookup(&phv).is_none());
    }

    #[test]
    fn exact_index_matches_linear_scan() {
        let (l, x, _y, out) = layout();
        let mut t = Table::new("t", vec![(x, MatchKind::Exact)]);
        let a = t.add_action(set_out(out));
        t.param_widths = vec![16];
        for v in 0..50u64 {
            t.add_entry(TableEntry {
                keys: vec![KeyPart::Exact(v)],
                priority: 0,
                action_idx: a,
                action_data: vec![v as i64 * 3],
            });
        }
        let index = t.exact_index();
        assert!(index.is_some(), "an all-exact table has an index");
        let mut phv = l.instantiate();
        for v in 0..60 {
            phv.set(x, v);
            let lin = t.lookup(&phv).map(|(_, d)| d.to_vec());
            let idx = t.lookup_with(&phv, index.as_ref()).map(|(_, d)| d.to_vec());
            assert_eq!(lin, idx, "mismatch at {v}");
        }
    }

    #[test]
    fn usage_exact_vs_range() {
        let (l, x, _y, _out) = layout();
        let mut exact = Table::new("e", vec![(x, MatchKind::Exact)]);
        let a = exact.add_action(Action::new("noop"));
        exact.param_widths = vec![16];
        exact.add_entry(TableEntry {
            keys: vec![KeyPart::Exact(1)],
            priority: 0,
            action_idx: a,
            action_data: vec![0],
        });
        let u = exact.usage(&l);
        assert_eq!(u.tcam_bits, 0);
        assert_eq!(u.sram_bits, 8 + 8 + 16);
        assert_eq!(u.bus_bits, 16);

        let mut range = Table::new("r", vec![(x, MatchKind::Range)]);
        let a = range.add_action(Action::new("noop"));
        range.param_widths = vec![16];
        range.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 1, hi: 254 }],
            priority: 0,
            action_idx: a,
            action_data: vec![0],
        });
        let u = range.usage(&l);
        assert!(u.tcam_bits > 0);
        // [1,254] on 8 bits expands to 14 rules x 2 x 8 bits.
        assert_eq!(u.tcam_bits, 14 * 16);
    }

    #[test]
    fn tcam_expansion_counts_the_allocated_cover() {
        // Every range of an 8-bit field, then seeded ranges up to 48 bits.
        for lo in 0..256u64 {
            for hi in lo..256 {
                let part = KeyPart::Range { lo, hi };
                assert_eq!(part.tcam_expansion(8), part.tcam_expansion_reference(8));
            }
        }
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let bits = (state >> 58) as u8 % 48 + 1;
            let (a, b) = (state & mask_of(bits), (state >> 7).rotate_left(19) & mask_of(bits));
            let part = KeyPart::Range { lo: a.min(b), hi: a.max(b) };
            assert_eq!(part.tcam_expansion(bits), part.tcam_expansion_reference(bits), "{part:?}");
        }
        for part in [KeyPart::Exact(3), KeyPart::Ternary(TernaryKey::any())] {
            assert_eq!(part.tcam_expansion(8), part.tcam_expansion_reference(8));
        }
    }

    #[test]
    #[should_panic(expected = "empty range [9, 3]")]
    fn tcam_expansion_of_an_inverted_range_panics_as_before() {
        KeyPart::Range { lo: 9, hi: 3 }.tcam_expansion(8);
    }

    #[test]
    fn reads_and_writes_introspection() {
        let (_, x, y, out) = layout();
        let mut t = Table::new("t", vec![(x, MatchKind::Exact)]);
        t.add_action(Action::new("a").with(AluOp::Add {
            dst: out,
            a: Operand::Field(y),
            b: Operand::Const(1),
        }));
        assert_eq!(t.reads(), vec![x, y]);
        assert_eq!(t.writes(), vec![out]);
    }
}
