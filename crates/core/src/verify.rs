//! Static artifact verification: `pegasus-verify`'s analysis core.
//!
//! Pegasus's premise is that a DNN is compiled into dataplane primitives
//! that *provably* fit the switch's resource and semantics model. This
//! module makes that proof explicit: [`verify_pipeline`] /
//! [`verify_flow`] run over every compiled artifact — at compile time
//! ([`Pegasus::compile`](crate::pipeline::Pegasus::compile)), at deploy
//! time ([`DataplaneModel::deploy`](crate::runtime::DataplaneModel::deploy),
//! [`FlowClassifier::deploy`](crate::flowpipe::FlowClassifier::deploy)) and
//! when the serving engine first admits it
//! ([`ControlHandle::attach`](crate::engine::server::ControlHandle::attach),
//! [`swap`](crate::engine::server::ControlHandle::swap); a byte-identical
//! copy of a resident artifact is served by the resident, verified once) —
//! and produce a typed [`VerifyReport`] of [`Diagnostic`]s. Any
//! `Error`-severity diagnostic rejects the artifact with
//! [`PegasusError::Verify`](crate::error::PegasusError::Verify) before a
//! single packet flows.
//!
//! Three analysis layers:
//!
//! 1. **Structural checks** (`V0xx`) — every ALU operand and scratch index
//!    in bounds, dense-LUT slots naming real entries, entry action/data
//!    offsets inside their pools, range parts ordered and inside the key
//!    field's declared bit width, shift amounts below 64, register ops
//!    naming real arrays, each array touched by one table only, and no
//!    registers in a stateless pipeline — the last two the shapes a
//!    table-major sweep could not reproduce, so everything that passes
//!    flattens.
//! 2. **Interval abstract interpretation** (`V1xx`) — `[lo, hi]` value
//!    ranges propagated per PHV/scratch field through every micro-op
//!    sequence and across table stages (respecting `mask_of`/`truncate`
//!    wrapping semantics), proving every packed dense-LUT key code lands
//!    in bounds, flagging value ranges that silently wrap past their
//!    field's declared width and register indices that are not provably
//!    inside their array. Inputs range over what their source can deliver
//!    (`[0, 255]` feature codes for a stateless pipeline, the input
//!    field's whole width for a per-flow one) and a register read over the
//!    array's element width.
//! 3. **Semantic lints** (`V2xx`) — unreachable/shadowed entries, tables
//!    with no default action and a provable match gap, same-priority
//!    overlapping entries (hardware match nondeterminism), and the full
//!    [`SwitchConfig`] resource accounting (stages, PHV, SRAM/TCAM, action
//!    bus) as static diagnostics instead of deploy-time surprises.
//!
//! # Cost
//!
//! Every check runs on every deploy and on a content's first admission —
//! by attach, swap or `ControlHandle::admit`, which the daemon's `load`
//! and its first use of a name after a restart call; a byte-identical
//! copy of a resident artifact is served by the resident without
//! re-verifying — so each is kept near-linear in the artifact's entries `n`:
//!
//! * structural checks and interval analysis — one pass over entries,
//!   actions and LUT slots;
//! * `V201` on an all-exact table — one sort of the key tuples;
//! * `V201`/`V203` on any other table of at most 4 096 entries
//!   (`SEMANTIC_LINT_MAX_ENTRIES`) — each entry against the entries
//!   sharing its values on every all-`Exact` key column, `n ×` that bucket
//!   (RNN-B's step tables: 448 × 14, not 448²); quadratic only without such
//!   a column, i.e. in the fuzzy-tree leaf tables of a few dozen entries;
//! * `V202` over a domain of at most 2¹⁶ points (`COVERAGE_MAX_POINTS`) —
//!   one word AND per point for each 64 entries, into an 8 KiB bitmap;
//! * `V204` — per-table usage with range expansions counted, not
//!   collected, and a stage allocation whose dependency test is a few word
//!   ANDs per table pair.
//!
//! Flattening is paid once, at deploy: a first admission verifies the
//! artifact's own flat program.
//!
//! # Diagnostic codes
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `V001` | Error | scratch/PHV field index out of bounds |
//! | `V002` | Error | dense-LUT slot names a nonexistent entry |
//! | `V003` | Error | entry action/data reference out of bounds |
//! | `V004` | Error | range key with `lo > hi` |
//! | `V005` | Error | key value/range outside the field's declared width |
//! | `V006` | Error | shift amount ≥ 64 (shift-insert included) |
//! | `V007` | Error | entry key arity differs from the table declaration |
//! | `V008` | Warn  | ternary entry can never match (`value & !mask != 0`) |
//! | `V009` | Error | flattened register op names a nonexistent array |
//! | `V010` | Error | a register array is touched by more than one table |
//! | `V011` | Error | a stateless pipeline declares register arrays |
//! | `V101` | Error | a packed dense-LUT key is not provably in bounds |
//! | `V102` | Warn  | a value range provably wraps past its field width |
//! | `V103` | Warn  | a register index is not provably inside its array (it wraps modulo the size) |
//! | `V201` | Error | entry shadowed by a dominating entry |
//! | `V202` | Warn  | no default action and a provable match gap |
//! | `V203` | Warn  | same-priority overlapping entries |
//! | `V204` | Error | switch resource model rejects the program |

use crate::compile::CompiledPipeline;
use crate::engine::flat::{
    index_rows, limbs, split_limbs, FlatAction, FlatProgram, FlatTable, Matcher, OpKind, Src, Step,
    Trunc,
};
use crate::flowpipe::FlowPipeline;
use pegasus_switch::{
    mask_of, AluOp, FieldId, KeyPart, SwitchConfig, SwitchProgram, Table, TernaryKey,
};
use std::borrow::Borrow;
use std::fmt;

/// How bad one diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational only.
    Info,
    /// Suspicious but not rejecting (e.g. silent wrap-around).
    Warn,
    /// Rejects `deploy`/`attach`/`swap` via
    /// [`PegasusError::Verify`](crate::error::PegasusError::Verify).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding of the static verifier.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Stable code, e.g. `"V001"` (see the module-level table).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The table the finding is anchored to, when table-scoped.
    pub table: Option<String>,
    /// Human-readable description with the concrete numbers.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        if let Some(t) = &self.table {
            write!(f, " [{t}]")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The typed outcome of one verification run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// The verified pipeline's name.
    pub pipeline: String,
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// True when no `Error`-severity diagnostic was produced (the artifact
    /// is admissible; warnings and infos may still be present).
    pub fn is_clean(&self) -> bool {
        !self.has_errors()
    }

    /// True when at least one `Error`-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// The `Error`-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The `Warn`-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warn)
    }

    /// True when any finding carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        table: Option<&str>,
        message: String,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            table: table.map(str::to_string),
            message,
        });
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (e, w) = (self.errors().count(), self.warnings().count());
        writeln!(f, "verify {}: {} error(s), {} warning(s)", self.pipeline, e, w)?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Non-exact tables above this many entries skip the shadowing and overlap
/// lints (`V201`/`V203`). Below it the lint holds each entry only against
/// the entries sharing its values on every all-`Exact` key column, so it is
/// quadratic only in a table without one. Exact tables find duplicate keys
/// by a sort at any size, so the compiler's enumerated maps are always
/// covered. (Raising the cap would add findings, not only cost.)
const SEMANTIC_LINT_MAX_ENTRIES: usize = 4096;

/// Key domains up to this many points are enumerated exhaustively for the
/// no-default coverage lint (`V202`) — a one-bit-per-point bitmap of 8 KiB
/// at the cap, one word AND per point for each 64 entries; larger domains
/// are skipped rather than guessed at (the verifier never reports what it
/// cannot prove).
const COVERAGE_MAX_POINTS: u64 = 1 << 16;

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Verifies a stateless compiled pipeline: program-level structural and
/// semantic layers, resource accounting when `cfg` is given, then the
/// flattened representation (structural + interval analysis).
pub fn verify_pipeline(p: &CompiledPipeline, cfg: Option<&SwitchConfig>) -> VerifyReport {
    verify_pipeline_with(p, cfg, || FlatProgram::from_pipeline(p)).0
}

/// [`verify_pipeline`] over the flattened representation `flatten` hands
/// over, so the `FlatProgram` proved in-bounds is the one that serves:
/// `deploy` builds it here and keeps it, attach/swap lend the resident
/// one. `flatten` runs only once the structural layer is clean (the
/// flattener trusts it); what it returned comes back beside the report.
pub(crate) fn verify_pipeline_with<F: Borrow<FlatProgram>>(
    p: &CompiledPipeline,
    cfg: Option<&SwitchConfig>,
    flatten: impl FnOnce() -> F,
) -> (VerifyReport, Option<F>) {
    #[cfg(test)]
    VERIFIER_RUNS.with(|n| n.set(n.get() + 1));
    let mut r = verify_program(&p.program, cfg);
    let nfields = p.program.layout.len();
    check_pipeline_fields(&mut r, "input field", &p.input_fields, nfields);
    check_pipeline_fields(&mut r, "score field", &p.score_fields, nfields);
    if let Some(f) = p.predicted_field {
        check_pipeline_fields(&mut r, "predicted field", &[f], nfields);
    }
    if !p.program.registers.is_empty() {
        r.push(
            "V011",
            Severity::Error,
            None,
            format!(
                "stateless pipeline declares {} register array(s): each sample starts from a \
                 zeroed file, which the lanes of one sweep, sharing a file, cannot reproduce",
                p.program.registers.len()
            ),
        );
    }
    // Input feature codes are clamped to [0, 255] before the store.
    verify_flattened(r, &p.program, 255, flatten)
}

/// Verifies a per-flow windowed pipeline: the program-level layers, then —
/// like [`verify_pipeline`] — its flattened representation (register ops
/// included: array ids in bounds, indices provably inside their arrays).
pub fn verify_flow(p: &FlowPipeline, cfg: Option<&SwitchConfig>) -> VerifyReport {
    verify_flow_with(p, cfg, || p.flatten()).0
}

/// [`verify_flow`] over the flattened representation `flatten` hands over
/// (see [`verify_pipeline_with`]).
pub(crate) fn verify_flow_with<F: Borrow<FlatProgram>>(
    p: &FlowPipeline,
    cfg: Option<&SwitchConfig>,
    flatten: impl FnOnce() -> F,
) -> (VerifyReport, Option<F>) {
    #[cfg(test)]
    VERIFIER_RUNS.with(|n| n.set(n.get() + 1));
    let mut r = verify_program(&p.program, cfg);
    let nfields = p.program.layout.len();
    check_pipeline_fields(&mut r, "extractor field", &p.extractor_fields, nfields);
    check_pipeline_fields(&mut r, "score field", &p.score_fields, nfields);
    let singles = [
        ("len field", p.len_field),
        ("ts field", p.ts_field),
        ("hash field", p.hash_field),
        ("valid field", p.valid_field),
    ];
    for (what, f) in singles {
        check_pipeline_fields(&mut r, what, &[f], nfields);
    }
    if let Some(f) = p.predicted_field {
        check_pipeline_fields(&mut r, "predicted field", &[f], nfields);
    }
    // Header fields and payload bytes arrive as parsed: any value of the
    // input field's width.
    verify_flattened(r, &p.program, i64::MAX, flatten)
}

/// The shared tail of both entry points: flattens only an artifact that
/// passed the structural layer (the flattener, like the resource model,
/// trusts those invariants — so every artifact that gets here flattens),
/// then verifies the flat program, its inputs ranging over
/// `[0, input_hi]`, cut to each input field's width.
fn verify_flattened<F: Borrow<FlatProgram>>(
    mut r: VerifyReport,
    prog: &SwitchProgram,
    input_hi: i64,
    flatten: impl FnOnce() -> F,
) -> (VerifyReport, Option<F>) {
    if r.has_errors() {
        return (r, None);
    }
    let flat = flatten();
    verify_flat(&mut r, flat.borrow(), &prog.tables, input_hi);
    (r, Some(flat))
}

/// Verifies a bare switch program: structural checks over every table,
/// semantic lints, and — when `cfg` is given and the structural layer is
/// clean — full resource accounting as `V204` diagnostics.
pub fn verify_program(prog: &SwitchProgram, cfg: Option<&SwitchConfig>) -> VerifyReport {
    let mut r = VerifyReport { pipeline: prog.name.clone(), diagnostics: Vec::new() };
    for t in &prog.tables {
        check_table_structure(&mut r, prog, t);
    }
    check_register_owners(&mut r, prog);
    for t in &prog.tables {
        check_table_semantics(&mut r, prog, t);
    }
    // Resource accounting runs only on structurally sound programs: the
    // cost model's range expansion asserts exactly the invariants the
    // structural layer just checked.
    if let Some(cfg) = cfg {
        if !r.has_errors() {
            if let Err(e) = prog.check_resources(cfg) {
                r.push("V204", Severity::Error, None, format!("resource model rejects: {e}"));
            }
        }
    }
    r
}

/// `V010`: every register array is touched by at most one table. A sweep
/// orders accesses by (table, packet) where packet-at-a-time execution
/// orders them by (packet, table); the two agree on one array exactly when
/// one table makes all its accesses — the PISA one-stage-per-array rule.
fn check_register_owners(r: &mut VerifyReport, prog: &SwitchProgram) {
    let mut users: Vec<Vec<&str>> = vec![Vec::new(); prog.registers.len()];
    for t in &prog.tables {
        for reg in t.actions.iter().flat_map(|a| &a.ops).filter_map(reg_of) {
            // (An undeclared array is V003's.)
            match users.get_mut(reg) {
                Some(tables) if tables.last() != Some(&t.name.as_str()) => tables.push(&t.name),
                _ => {}
            }
        }
    }
    for (array, tables) in prog.registers.iter().zip(&users) {
        if tables.len() > 1 {
            r.push(
                "V010",
                Severity::Error,
                None,
                format!(
                    "register array '{}' is touched by tables {tables:?} (one table per array)",
                    array.name
                ),
            );
        }
    }
}

fn check_pipeline_fields(r: &mut VerifyReport, what: &str, fields: &[FieldId], nfields: usize) {
    for f in fields {
        if f.0 >= nfields {
            r.push(
                "V001",
                Severity::Error,
                None,
                format!("{what} #{} outside the {nfields}-field layout", f.0),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 1a: structural checks over the switch program.
// ---------------------------------------------------------------------------

fn check_table_structure(r: &mut VerifyReport, prog: &SwitchProgram, t: &Table) {
    let nfields = prog.layout.len();
    let name = t.name.as_str();

    // Key field declarations.
    for (f, _) in &t.keys {
        if f.0 >= nfields {
            r.push(
                "V001",
                Severity::Error,
                Some(name),
                format!("key field #{} outside the {nfields}-field layout", f.0),
            );
        }
    }

    // Action micro-ops: operand fields, register ids, shift amounts.
    for (ai, a) in t.actions.iter().enumerate() {
        for op in &a.ops {
            if let Some(dst) = op.dst_field() {
                if dst.0 >= nfields {
                    r.push(
                        "V001",
                        Severity::Error,
                        Some(name),
                        format!("action #{ai} writes field #{} outside the layout", dst.0),
                    );
                }
            }
            for src in op.src_fields() {
                if src.0 >= nfields {
                    r.push(
                        "V001",
                        Severity::Error,
                        Some(name),
                        format!("action #{ai} reads field #{} outside the layout", src.0),
                    );
                }
            }
            if let AluOp::Shl { amount, .. }
            | AluOp::Shr { amount, .. }
            | AluOp::RegShiftInsert { shift: amount, .. } = op
            {
                if *amount >= 64 {
                    r.push(
                        "V006",
                        Severity::Error,
                        Some(name),
                        format!("action #{ai} shifts by {amount} (must be < 64)"),
                    );
                }
            }
            if let Some(reg) = reg_of(op) {
                if reg >= prog.registers.len() {
                    r.push(
                        "V003",
                        Severity::Error,
                        Some(name),
                        format!(
                            "action #{ai} touches register #{reg}, program declares {}",
                            prog.registers.len()
                        ),
                    );
                }
            }
        }
    }

    // Per-action max param slot (for entry data-length checks below).
    let max_param: Vec<Option<usize>> =
        t.actions.iter().map(|a| a.ops.iter().flat_map(|op| op.param_slots()).max()).collect();

    // Entries.
    for (ei, e) in t.entries.iter().enumerate() {
        if e.keys.len() != t.keys.len() {
            r.push(
                "V007",
                Severity::Error,
                Some(name),
                format!(
                    "entry #{ei} has {} key part(s), table declares {}",
                    e.keys.len(),
                    t.keys.len()
                ),
            );
            continue;
        }
        if e.action_idx >= t.actions.len() {
            r.push(
                "V003",
                Severity::Error,
                Some(name),
                format!(
                    "entry #{ei} invokes action #{}, table declares {}",
                    e.action_idx,
                    t.actions.len()
                ),
            );
        } else if let Some(maxp) = max_param[e.action_idx] {
            if maxp >= e.action_data.len() {
                r.push(
                    "V003",
                    Severity::Error,
                    Some(name),
                    format!(
                        "entry #{ei}: action #{} reads param slot {maxp}, entry carries {} word(s)",
                        e.action_idx,
                        e.action_data.len()
                    ),
                );
            }
        }
        for (j, part) in e.keys.iter().enumerate() {
            let field = t.keys[j].0;
            if field.0 >= nfields {
                continue; // already flagged at the declaration
            }
            let bits = prog.layout.def(field).bits;
            check_key_part(r, name, ei, j, part, bits);
        }
    }

    // Default action.
    if let Some((idx, data)) = &t.default_action {
        if *idx >= t.actions.len() {
            r.push(
                "V003",
                Severity::Error,
                Some(name),
                format!("default invokes action #{idx}, table declares {}", t.actions.len()),
            );
        } else if let Some(maxp) = max_param[*idx] {
            if maxp >= data.len() {
                r.push(
                    "V003",
                    Severity::Error,
                    Some(name),
                    format!(
                        "default action #{idx} reads param slot {maxp}, default carries {} word(s)",
                        data.len()
                    ),
                );
            }
        }
    }
}

fn check_key_part(
    r: &mut VerifyReport,
    table: &str,
    entry: usize,
    col: usize,
    part: &KeyPart,
    bits: u8,
) {
    let field_mask = mask_of(bits);
    match part {
        KeyPart::Exact(v) => {
            if *v > field_mask {
                r.push(
                    "V005",
                    Severity::Error,
                    Some(table),
                    format!("entry #{entry} key #{col}: exact value {v} exceeds {bits}-bit field"),
                );
            }
        }
        KeyPart::Ternary(TernaryKey { value, mask }) => {
            if value & !mask != 0 {
                r.push(
                    "V008",
                    Severity::Warn,
                    Some(table),
                    format!(
                        "entry #{entry} key #{col}: ternary value {value:#x} sets don't-care \
                         bits of mask {mask:#x} — entry can never match"
                    ),
                );
            } else if *value > field_mask {
                r.push(
                    "V005",
                    Severity::Error,
                    Some(table),
                    format!(
                        "entry #{entry} key #{col}: ternary value {value:#x} exceeds \
                         {bits}-bit field"
                    ),
                );
            }
        }
        KeyPart::Range { lo, hi } => {
            if lo > hi {
                r.push(
                    "V004",
                    Severity::Error,
                    Some(table),
                    format!("entry #{entry} key #{col}: inverted range [{lo}, {hi}]"),
                );
            } else if *hi > field_mask {
                r.push(
                    "V005",
                    Severity::Error,
                    Some(table),
                    format!("entry #{entry} key #{col}: range end {hi} exceeds {bits}-bit field"),
                );
            } else if bits > 48 {
                r.push(
                    "V005",
                    Severity::Error,
                    Some(table),
                    format!(
                        "entry #{entry} key #{col}: range match on a {bits}-bit field \
                         (TCAM range coding supports up to 48)"
                    ),
                );
            }
        }
    }
}

/// The register array an op touches, if any.
fn reg_of(op: &AluOp) -> Option<usize> {
    match op {
        AluOp::RegRead { reg, .. }
        | AluOp::RegWrite { reg, .. }
        | AluOp::RegReadWrite { reg, .. }
        | AluOp::RegIncrSat { reg, .. }
        | AluOp::RegShiftInsert { reg, .. } => Some(reg.0),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Layer 3: semantic lints (shadowing, overlap, coverage).
// ---------------------------------------------------------------------------

fn check_table_semantics(r: &mut VerifyReport, prog: &SwitchProgram, t: &Table) {
    let name = t.name.as_str();
    // Only structurally sound entries take part (a malformed entry's
    // semantics are undefined; it was already flagged).
    let sound = |e: &pegasus_switch::TableEntry| e.keys.len() == t.keys.len();
    let widths: Option<Vec<u8>> = t
        .keys
        .iter()
        .map(|(f, _)| (f.0 < prog.layout.len()).then(|| prog.layout.def(*f).bits))
        .collect();
    let Some(widths) = widths else { return };

    if t.is_exact() {
        // Exact tables: shadowing == duplicate key tuple. Each run of equal
        // keys starts at its first entry and every later member duplicates
        // it (a sort, any size — this is the compiler's enumerated-map
        // shape); findings come out in entry order.
        let exact: Vec<usize> = (0..t.entries.len())
            .filter(|&i| {
                let e = &t.entries[i];
                sound(e) && e.keys.iter().all(|p| exact_value(p).is_some())
            })
            .collect();
        let columns: Vec<usize> = (0..t.keys.len()).collect();
        let (order, runs) = exact_runs(t, &columns, exact);
        let mut duplicates: Vec<(usize, usize)> = runs
            .into_iter()
            .flat_map(|run| {
                let first = order[run.start];
                order[run.start + 1..run.end].iter().map(move |&ei| (ei, first))
            })
            .collect();
        duplicates.sort_unstable();
        for (ei, first) in duplicates {
            r.push(
                "V201",
                Severity::Error,
                Some(name),
                format!("entry #{ei} duplicates entry #{first}'s exact key — unreachable"),
            );
        }
    } else if t.entries.len() <= SEMANTIC_LINT_MAX_ENTRIES {
        lint_pairs(r, t, &widths);
    }

    // Coverage: no default action and a provable gap in the key space.
    if t.default_action.is_none() && !t.keys.is_empty() && !t.entries.is_empty() {
        let domain = widths.iter().fold(1u64, |acc, &b| acc.saturating_mul(1u64 << b.min(63)));
        if domain <= COVERAGE_MAX_POINTS {
            lint_coverage(r, t, &widths, domain as usize);
        }
    }
}

/// The value of an `Exact` part.
fn exact_value(p: &KeyPart) -> Option<u64> {
    if let KeyPart::Exact(v) = p {
        Some(*v)
    } else {
        None
    }
}

/// `members` sorted by their values on `columns` — each member's part is
/// `Exact` there — and cut into runs of equal values: spans of the order
/// returned beside them. The sort is stable, so a run lists its entries in
/// index order.
fn exact_runs(
    t: &Table,
    columns: &[usize],
    mut members: Vec<usize>,
) -> (Vec<usize>, Vec<std::ops::Range<usize>>) {
    let width = columns.len();
    let mut keys = vec![0u64; t.entries.len() * width];
    for &i in &members {
        let parts = columns.iter().map(|&c| exact_value(&t.entries[i].keys[c]).unwrap_or(0));
        keys[i * width..(i + 1) * width].iter_mut().zip(parts).for_each(|(k, v)| *k = v);
    }
    let key = |i: usize| &keys[i * width..(i + 1) * width];
    members.sort_by(|&a, &b| key(a).cmp(key(b)));
    let mut runs = Vec::new();
    let mut start = 0;
    for run in members.chunk_by(|&a, &b| key(a) == key(b)) {
        runs.push(start..start + run.len());
        start += run.len();
    }
    (members, runs)
}

/// `V201` shadowing and `V203` same-priority overlap over a non-exact
/// table's sound entries.
///
/// On a column where every sound entry's part is `Exact`, two different
/// values can neither cover nor overlap (both relations are equality
/// there), so an entry is held only against the entries that share its
/// values on every such column — its bucket, kept in ascending index
/// order, so the first shadower (where the scan stops) and every finding
/// come out as a scan over all entries finds them. Without such a column
/// the bucket is the whole table.
fn lint_pairs(r: &mut VerifyReport, t: &Table, widths: &[u8]) {
    let name = t.name.as_str();
    let sound: Vec<usize> =
        (0..t.entries.len()).filter(|&i| t.entries[i].keys.len() == t.keys.len()).collect();
    let exact_columns: Vec<usize> = (0..t.keys.len())
        .filter(|&c| sound.iter().all(|&i| exact_value(&t.entries[i].keys[c]).is_some()))
        .collect();
    // `bucket[j]` is entry j's span of `order` (empty for an unsound one).
    let (order, runs) = exact_runs(t, &exact_columns, sound);
    let mut bucket = vec![0..0; t.entries.len()];
    for run in runs {
        for &i in &order[run.clone()] {
            bucket[i] = run.clone();
        }
    }

    for (j, b) in t.entries.iter().enumerate() {
        for &i in &order[bucket[j].clone()] {
            if i == j {
                continue;
            }
            #[cfg(test)]
            LINT_PAIRS.with(|n| n.set(n.get() + 1));
            let a = &t.entries[i];
            // Entry j can never win when a dominating entry i covers its
            // whole match set: strictly higher priority anywhere, or same
            // priority earlier in the table (first match wins among
            // equals).
            let dominates = a.priority > b.priority || (a.priority == b.priority && i < j);
            if dominates && covers_all(a, b, widths) {
                r.push(
                    "V201",
                    Severity::Error,
                    Some(name),
                    format!(
                        "entry #{j} is shadowed by entry #{i} \
                         (priority {} vs {}) — unreachable",
                        a.priority, b.priority
                    ),
                );
                break;
            }
            // Same-priority partial overlap: resolution falls back to entry
            // order, which real match hardware does not guarantee. (Such an
            // i dominates j, so it gets here only when it does not cover j.)
            if i < j
                && a.priority == b.priority
                && !covers_all(b, a, widths)
                && overlaps_all(a, b, widths)
                && (a.action_idx != b.action_idx || a.action_data != b.action_data)
            {
                r.push(
                    "V203",
                    Severity::Warn,
                    Some(name),
                    format!(
                        "entries #{i} and #{j} overlap at equal priority {} with \
                         different outcomes — match order decides",
                        a.priority
                    ),
                );
            }
        }
    }
}

/// `V202`: the first point of the key domain, in packed order (the last
/// key in the low bits), that no sound entry matches.
///
/// Entries are taken 64 at a time, one bit each: every key column maps
/// each raw value to the word of the entries whose part matches it, a
/// point is hit when the AND of its columns' words is non-zero, and hits
/// accumulate in a one-bit-per-point bitmap (8 KiB at
/// [`COVERAGE_MAX_POINTS`]). The domain is walked a row at a time — the
/// leading keys' AND once, then one AND per value of the last key — so no
/// entry is re-matched at every point, and memory stays bounded whatever
/// the entry count.
fn lint_coverage(r: &mut VerifyReport, t: &Table, widths: &[u8], domain: usize) {
    let sound: Vec<&pegasus_switch::TableEntry> =
        t.entries.iter().filter(|e| e.keys.len() == t.keys.len()).collect();
    // (A domain of at most 2¹⁶ points has no column wider than 16 bits.)
    let mut columns: Vec<Vec<u64>> = widths.iter().map(|&b| vec![0; 1 << b]).collect();
    let (lead, last) = widths.split_at(widths.len() - 1);
    let row_len = 1usize << last[0];
    let mut covered = vec![0u64; domain.div_ceil(64)];
    for chunk in sound.chunks(64) {
        for (c, column) in columns.iter_mut().enumerate() {
            column.fill(0);
            for (bit, e) in chunk.iter().enumerate() {
                mark_matches(column, &e.keys[c], 1 << bit);
            }
        }
        let (lead_columns, last_column) = columns.split_at(lead.len());
        for row in 0..domain / row_len {
            let (mut rem, mut prefix) = (row, u64::MAX);
            for (column, &b) in lead_columns.iter().zip(lead).rev() {
                prefix &= column[rem & ((1 << b) - 1)];
                rem >>= b;
            }
            if prefix == 0 {
                continue;
            }
            #[cfg(test)]
            COVERAGE_WORD_TESTS.with(|n| n.set(n.get() + row_len));
            for (v, &word) in last_column[0].iter().enumerate() {
                let point = row * row_len + v;
                covered[point / 64] |= u64::from(word & prefix != 0) << (point % 64);
            }
        }
        if covered.iter().map(|w| w.count_ones() as usize).sum::<usize>() == domain {
            break;
        }
    }
    let gap = (0..domain).find(|&point| covered[point / 64] & (1 << (point % 64)) == 0);
    if let Some(point) = gap {
        let mut raws = vec![0u64; widths.len()];
        let mut rem = point as u64;
        for (j, &b) in widths.iter().enumerate().rev() {
            raws[j] = rem & mask_of(b);
            rem >>= b;
        }
        r.push(
            "V202",
            Severity::Warn,
            Some(t.name.as_str()),
            format!(
                "no default action and key point {raws:?} matches no entry — \
                 packets there pass through unmodified"
            ),
        );
    }
}

/// ORs `bit` into `column[v]` for every raw value `v` the part matches
/// (`column` spans the key's whole width).
fn mark_matches(column: &mut [u64], part: &KeyPart, bit: u64) {
    let top = column.len() as u64 - 1;
    match *part {
        KeyPart::Exact(v) if v <= top => column[v as usize] |= bit,
        KeyPart::Exact(_) => {}
        KeyPart::Range { lo, hi } if lo <= hi && lo <= top => {
            for word in &mut column[lo as usize..=hi.min(top) as usize] {
                *word |= bit;
            }
        }
        KeyPart::Range { .. } => {}
        KeyPart::Ternary(key) => {
            for (v, word) in column.iter_mut().enumerate() {
                if key.matches(v as u64) {
                    *word |= bit;
                }
            }
        }
    }
}

/// True when every column of `a` covers (is a superset of) the matching
/// column of `b` — conservative: only returns `true` when provable.
fn covers_all(
    a: &pegasus_switch::TableEntry,
    b: &pegasus_switch::TableEntry,
    widths: &[u8],
) -> bool {
    a.keys
        .iter()
        .zip(b.keys.iter())
        .zip(widths.iter())
        .all(|((pa, pb), &bits)| part_covers(pa, pb, bits))
}

fn part_covers(a: &KeyPart, b: &KeyPart, bits: u8) -> bool {
    let width_mask = mask_of(bits);
    match (a, b) {
        (KeyPart::Exact(x), KeyPart::Exact(y)) => x == y,
        (KeyPart::Ternary(t), KeyPart::Exact(y)) => t.matches(*y),
        (KeyPart::Range { lo, hi }, KeyPart::Exact(y)) => (lo..=hi).contains(&y),
        (KeyPart::Exact(x), KeyPart::Ternary(t)) => {
            t.mask & width_mask == width_mask && t.value == *x
        }
        (KeyPart::Exact(x), KeyPart::Range { lo, hi }) => lo == hi && lo == x,
        (KeyPart::Ternary(ta), KeyPart::Ternary(tb)) => {
            // a cares only where b also cares, and they agree there.
            ta.mask & tb.mask == ta.mask && tb.value & ta.mask == ta.value
        }
        (KeyPart::Range { lo, hi }, KeyPart::Ternary(t)) => {
            // b's smallest point is `value`, largest sets every wildcard
            // bit inside the field width.
            let min = t.value;
            let max = t.value | (!t.mask & width_mask);
            *lo <= min && max <= *hi
        }
        (KeyPart::Range { lo, hi }, KeyPart::Range { lo: lo2, hi: hi2 }) => lo <= lo2 && hi2 <= hi,
        (KeyPart::Ternary(t), KeyPart::Range { lo, hi }) => {
            // Only the singleton range is provable without enumeration.
            lo == hi && t.matches(*lo)
        }
    }
}

/// True when every column pair intersects (conservative: returns `true`
/// unless disjointness is provable, so only provable overlaps get past the
/// caller's extra filters).
fn overlaps_all(
    a: &pegasus_switch::TableEntry,
    b: &pegasus_switch::TableEntry,
    widths: &[u8],
) -> bool {
    a.keys
        .iter()
        .zip(b.keys.iter())
        .zip(widths.iter())
        .all(|((pa, pb), &bits)| part_overlaps(pa, pb, bits))
}

fn part_overlaps(a: &KeyPart, b: &KeyPart, bits: u8) -> bool {
    let width_mask = mask_of(bits);
    match (a, b) {
        (KeyPart::Exact(x), KeyPart::Exact(y)) => x == y,
        (KeyPart::Exact(x), KeyPart::Ternary(t)) | (KeyPart::Ternary(t), KeyPart::Exact(x)) => {
            t.matches(*x)
        }
        (KeyPart::Exact(x), KeyPart::Range { lo, hi })
        | (KeyPart::Range { lo, hi }, KeyPart::Exact(x)) => (lo..=hi).contains(&x),
        (KeyPart::Ternary(ta), KeyPart::Ternary(tb)) => {
            (ta.value ^ tb.value) & (ta.mask & tb.mask) == 0
        }
        (KeyPart::Range { lo, hi }, KeyPart::Range { lo: lo2, hi: hi2 }) => lo <= hi2 && lo2 <= hi,
        (KeyPart::Ternary(t), KeyPart::Range { lo, hi })
        | (KeyPart::Range { lo, hi }, KeyPart::Ternary(t)) => {
            // Provably disjoint only when the ternary set's hull misses
            // the range entirely.
            let min = t.value;
            let max = t.value | (!t.mask & width_mask);
            !(max < *lo || min > *hi)
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 1b + 2: flat-program structural checks and interval analysis.
// ---------------------------------------------------------------------------

fn verify_flat(r: &mut VerifyReport, flat: &FlatProgram, tables: &[Table], input_hi: i64) {
    let before = r.diagnostics.len();
    let (nfields, nregs) = (flat.scratch_len(), flat.registers().len());
    for (ti, ft) in flat.flat_tables().iter().enumerate() {
        let (name, rows) = match tables.get(ti) {
            Some(t) => (t.name.as_str(), index_rows(&t.entries, &ft.keys)),
            None => ("?", ft.entry_action.len()),
        };
        check_flat_table(r, ft, name, nfields, nregs, rows);
    }
    // The interval layer indexes by the structures the checks above just
    // validated; run it only on a structurally sound flat program.
    let structurally_sound = !r.diagnostics[before..].iter().any(|d| d.severity == Severity::Error);
    if structurally_sound {
        interval_analysis(r, flat, tables, input_hi);
    }
}

/// The structural checks of one flat table, whose bit-vector index (if it
/// has one) must hold `rows` rows — a count made from the table's entries,
/// never read back from the index.
fn check_flat_table(
    r: &mut VerifyReport,
    ft: &FlatTable,
    name: &str,
    nfields: usize,
    nregs: usize,
    rows: usize,
) {
    for &(f, _) in &ft.keys {
        if f >= nfields {
            r.push(
                "V001",
                Severity::Error,
                Some(name),
                format!("flat key scratch index {f} outside the {nfields}-field scratch"),
            );
        }
    }
    if ft.entry_action.len() != ft.entry_data.len() {
        r.push(
            "V003",
            Severity::Error,
            Some(name),
            format!(
                "flat entry arrays disagree: {} action(s), {} data slice(s)",
                ft.entry_action.len(),
                ft.entry_data.len()
            ),
        );
    }
    // Param slots each action's steps read: one past the last.
    let param_end = |action: &FlatAction| {
        let ends = action.steps().flat_map(|step| {
            let (srcs, len) = match step {
                Step::Run(run) => ([run.first.a, run.first.b], run.len),
                Step::Reg(op) => ([op.index, op.a], 1),
            };
            srcs.map(|s| if let Src::Param(p) = s { p + len } else { 0 })
        });
        ends.max().unwrap_or(0)
    };
    let param_ends: Vec<usize> = ft.actions.iter().map(param_end).collect();
    // (`what` is formatted only into a finding: this runs once per entry.)
    let check_ref =
        |r: &mut VerifyReport, what: fmt::Arguments, action: u32, off: u32, len: u32| {
            match param_ends.get(action as usize) {
                None => r.push(
                    "V003",
                    Severity::Error,
                    Some(name),
                    format!("{what} invokes flat action #{action}, table has {}", ft.actions.len()),
                ),
                Some(&end) if end > len as usize => r.push(
                    "V003",
                    Severity::Error,
                    Some(name),
                    format!(
                        "{what}: flat action #{action} reads param slot {}, entry carries {len}",
                        end - 1
                    ),
                ),
                Some(_) => {}
            }
            if off as usize + len as usize > ft.data.len() {
                r.push(
                    "V003",
                    Severity::Error,
                    Some(name),
                    format!(
                        "{what} data slice [{off}, +{len}) outside the {}-word pool",
                        ft.data.len()
                    ),
                );
            }
        };
    for (ei, (&action, &(off, len))) in ft.entry_action.iter().zip(ft.entry_data.iter()).enumerate()
    {
        check_ref(r, format_args!("flat entry #{ei}"), action, off, len);
    }
    if let Some((action, (off, len))) = ft.default_entry {
        check_ref(r, format_args!("flat default"), action, off, len);
    }

    match &ft.matcher {
        Matcher::Always => {}
        Matcher::Dense(lut) => {
            let entries = ft.entry_action.len() as u32;
            // (A branch-free maximum first: this scans up to 2¹⁶ slots per
            // table on every attach and swap. One witness per table keeps
            // reports readable.)
            if lut.iter().fold(0, |top, &v| top.max(v)) > entries {
                let (slot, v) = lut.iter().enumerate().find(|(_, &v)| v > entries).expect("max");
                r.push(
                    "V002",
                    Severity::Error,
                    Some(name),
                    format!(
                        "dense-LUT slot {slot} holds {v}, table has {entries} entry(ies) \
                         (slot encoding is entry index + 1)"
                    ),
                );
            }
        }
        Matcher::Indexed(ix) => {
            let entries = ft.entry_action.len();
            if let Some(&e) = ix.order.iter().find(|&&e| e as usize >= entries) {
                r.push(
                    "V002",
                    Severity::Error,
                    Some(name),
                    format!("index order names entry {e}, table has {entries} entry(ies)"),
                );
            }
            // The limbs must tile every key (and be named one by one when
            // a key is split), every raw limb value land on an interval
            // whose bitset row exists, and every bit of a row on an `order`
            // slot.
            let domains = limbs(&ft.keys).map(|limb| 1usize << limb.width);
            let shaped = ix.order.len() == rows
                && ix.words == rows.div_ceil(64)
                && ix.keys.iter().map(|k| k.interval_of.len()).eq(domains)
                && ix.limbs == split_limbs(&ft.keys)
                && ix.keys.iter().all(|k| {
                    let rows = k.bitsets.len() / ix.words.max(1);
                    // (A branch-free maximum: a limb has 2¹⁶ slots.)
                    let top = k.interval_of.iter().fold(0, |top, &iv| top.max(iv));
                    !k.interval_of.is_empty() && usize::from(top) < rows
                });
            if !shaped {
                r.push(
                    "V003",
                    Severity::Error,
                    Some(name),
                    format!("bit-vector index shape disagrees with {rows} row(s) × keys"),
                );
            }
        }
    }

    for (ai, action) in ft.actions.iter().enumerate() {
        // A register op reads and writes like a run of one.
        let touched = action.steps().map(|step| match step {
            Step::Run(run) => (Some(run.first.dst), [run.first.a, run.first.b], run.len),
            Step::Reg(op) => (op.dst.map(|(dst, _)| dst), [op.index, op.a], 1),
        });
        for (dst, srcs, len) in touched {
            if let Some(dst) = dst.filter(|dst| dst + len > nfields) {
                r.push(
                    "V001",
                    Severity::Error,
                    Some(name),
                    format!(
                        "flat action #{ai} writes scratch indices {dst}..{} (scratch has {nfields})",
                        dst + len
                    ),
                );
            }
            for s in srcs {
                if let Src::Field(f) = s {
                    if f + len > nfields {
                        r.push(
                            "V001",
                            Severity::Error,
                            Some(name),
                            format!(
                                "flat action #{ai} reads scratch indices {f}..{} \
                                 (scratch has {nfields})",
                                f + len
                            ),
                        );
                    }
                }
            }
        }
        for run in &action.runs {
            if let OpKind::Shl(amount) | OpKind::Shr(amount) = run.first.kind {
                if amount >= 64 {
                    r.push(
                        "V006",
                        Severity::Error,
                        Some(name),
                        format!("flat action #{ai} shifts by {amount} (must be < 64)"),
                    );
                }
            }
        }
        for (_, op) in &action.regs {
            if op.reg >= nregs {
                r.push(
                    "V009",
                    Severity::Error,
                    Some(name),
                    format!(
                        "flat action #{ai} touches register array #{}, program has {nregs}",
                        op.reg
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: interval abstract interpretation.
// ---------------------------------------------------------------------------

/// An inclusive `[lo, hi]` value interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    const fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// The no-information interval (distinct from a provable wrap).
    const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }
}

/// Abstract `truncate`: identity when the interval fits the field, else
/// the field's full representable range. The bool reports a *provable*
/// wrap (a finite interval that exceeds the width) — `TOP` widens
/// silently, because "unknown" is not "provably wrapping".
fn truncate_abs(iv: Interval, trunc: Trunc) -> (Interval, bool) {
    let (lo, hi) = trunc.range();
    let rep = Interval { lo, hi };
    if rep.lo <= iv.lo && iv.hi <= rep.hi {
        (iv, false)
    } else if iv == Interval::TOP {
        (rep, false)
    } else {
        (rep, true)
    }
}

fn clamp128(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

fn interval_analysis(r: &mut VerifyReport, flat: &FlatProgram, tables: &[Table], input_hi: i64) {
    let mut state: Vec<Interval> = vec![Interval::point(0); flat.scratch_len()];
    for &(f, trunc) in flat.inputs() {
        state[f] = truncate_abs(Interval { lo: 0, hi: input_hi }, trunc).0;
    }
    // Per-table join scratch: the join so far and the number of outcomes
    // writing each field, the fields with either, one outcome's writes.
    let (mut joined, mut writers) = (state.clone(), vec![0usize; state.len()]);
    let (mut touched, mut written) = (Vec::new(), Vec::new());

    for (ti, ft) in flat.flat_tables().iter().enumerate() {
        let name = tables.get(ti).map_or("?", |t| t.name.as_str());

        // Prove the packed dense-LUT key code in bounds from the current
        // key-field intervals (packing is monotone: each field's raw code
        // occupies its own bit slice).
        if let Matcher::Dense(lut) = &ft.matcher {
            let (mut lo, mut hi) = (0u128, 0u128);
            for &(f, bits) in &ft.keys {
                let mask = mask_of(bits);
                let iv = state[f];
                // A field interval inside [0, mask] passes through the raw
                // masking untouched; anything else can reach any code.
                let (rlo, rhi) = if iv.lo >= 0 && iv.hi as u128 <= mask as u128 {
                    (iv.lo as u64, iv.hi as u64)
                } else {
                    (0, mask)
                };
                lo = (lo << bits) | rlo as u128;
                hi = (hi << bits) | rhi as u128;
            }
            if hi >= lut.len() as u128 {
                r.push(
                    "V101",
                    Severity::Error,
                    Some(name),
                    format!(
                        "packed dense-LUT key proven only to [{lo}, {hi}], LUT has {} slot(s)",
                        lut.len()
                    ),
                );
            }
        }

        // Collect the table's possible outcomes and join them.
        let reachable: Vec<usize> = match &ft.matcher {
            Matcher::Always => Vec::new(),
            // The enumerated LUT knows exactly which entries are live.
            Matcher::Dense(lut) => {
                let mut seen = vec![false; ft.entry_action.len()];
                for &slot in lut {
                    if slot > 0 && (slot as usize - 1) < seen.len() {
                        seen[slot as usize - 1] = true;
                    }
                }
                seen.iter().enumerate().filter(|(_, &s)| s).map(|(e, _)| e).collect()
            }
            Matcher::Indexed(_) => (0..ft.entry_action.len()).collect(),
        };
        let can_miss = match &ft.matcher {
            Matcher::Always => true,
            Matcher::Dense(lut) => lut.contains(&0),
            Matcher::Indexed(_) => true, // an indexed key can always fall through
        };

        // Each outcome is the fields one (action, data) pair writes; the
        // table's effect on a field is the join over the outcomes that
        // write it — and of its incoming interval, when some outcome
        // leaves it alone. Linear in entries × action size, whatever the
        // scratch width: this runs on every attach and swap.
        let hit = reachable.into_iter().map(|e| (ft.entry_action[e], ft.entry_data[e]));
        // No default: a miss leaves the scratch untouched.
        let miss = can_miss.then_some(ft.default_entry);
        let mut outcomes = 0;
        for outcome in hit.map(Some).chain(miss) {
            outcomes += 1;
            let Some((action, (off, len))) = outcome else { continue };
            let params = &ft.data[off as usize..(off + len) as usize];
            let action = &ft.actions[action as usize];
            apply_action(r, &state, action, params, flat.registers(), name, &mut written);
            for &(f, iv) in &written {
                if writers[f] == 0 {
                    touched.push(f);
                    joined[f] = iv;
                } else {
                    joined[f] = joined[f].join(iv);
                }
                writers[f] += 1;
            }
        }
        for f in touched.drain(..) {
            state[f] = if writers[f] < outcomes { joined[f].join(state[f]) } else { joined[f] };
            writers[f] = 0;
        }
    }
}

/// Pushes a table-scoped warning unless the table already carries one of
/// this code (one witness per table keeps reports readable).
fn warn_once(
    r: &mut VerifyReport,
    table: &str,
    code: &'static str,
    message: impl FnOnce() -> String,
) {
    if !r.diagnostics.iter().any(|d| d.code == code && d.table.as_deref() == Some(table)) {
        r.push(code, Severity::Warn, Some(table), message());
    }
}

/// The abstract result of one ALU op, before truncation.
fn alu_interval(kind: OpKind, x: Interval, y: Interval) -> Interval {
    match kind {
        OpKind::Set => x,
        OpKind::Add => Interval {
            lo: clamp128(x.lo as i128 + y.lo as i128),
            hi: clamp128(x.hi as i128 + y.hi as i128),
        },
        OpKind::Sub => Interval {
            lo: clamp128(x.lo as i128 - y.hi as i128),
            hi: clamp128(x.hi as i128 - y.lo as i128),
        },
        OpKind::Shl(amount) => Interval {
            lo: clamp128((x.lo as i128) << amount),
            hi: clamp128((x.hi as i128) << amount),
        },
        OpKind::Shr(amount) => Interval { lo: x.lo >> amount, hi: x.hi >> amount },
        OpKind::Min => Interval { lo: x.lo.min(y.lo), hi: x.hi.min(y.hi) },
        OpKind::Max => Interval { lo: x.lo.max(y.lo), hi: x.hi.max(y.hi) },
        OpKind::And if x.lo >= 0 && y.lo >= 0 => Interval { lo: 0, hi: x.hi.min(y.hi) },
        OpKind::Or | OpKind::Xor if x.lo >= 0 && y.lo >= 0 => {
            // Results stay within the combined bit hull.
            let top_bits = 64 - (x.hi.max(y.hi) as u64).leading_zeros();
            let hi = if top_bits >= 63 { i64::MAX } else { (1i64 << top_bits) - 1 };
            let lo = if kind == OpKind::Or { x.lo.max(y.lo) } else { 0 };
            Interval { lo, hi }
        }
        OpKind::And | OpKind::Or | OpKind::Xor => Interval::TOP,
        OpKind::Popcnt => Interval { lo: 0, hi: 64 },
    }
}

/// Runs one action's steps over the abstract state — each run's ops in
/// index order and each register op in its place, as the executor does —
/// leaving the fields it writes, once each with their final interval, in
/// `written`. Reports provable wrap-arounds as `V102` and register indices
/// not proved inside their array as `V103` (each once per table). A
/// register read yields any value of the array's element width: what other
/// packets left in the slot is not tracked.
fn apply_action(
    r: &mut VerifyReport,
    state: &[Interval],
    action: &FlatAction,
    params: &[i64],
    registers: &[(u8, usize)],
    table: &str,
    written: &mut Vec<(usize, Interval)>,
) {
    written.clear();
    let read = |written: &[(usize, Interval)], src: Src| -> Interval {
        match src {
            Src::Field(f) => written.iter().find(|w| w.0 == f).map_or(state[f], |w| w.1),
            Src::Const(c) => Interval::point(c),
            Src::Param(i) => Interval::point(params[i]),
        }
    };
    // Abstract store: truncates `raw` to the field.
    type Written = Vec<(usize, Interval)>;
    let store = |r: &mut VerifyReport, written: &mut Written, dst, raw: Interval, trunc: Trunc| {
        let (iv, wrapped) = truncate_abs(raw, trunc);
        if wrapped {
            warn_once(r, table, "V102", || {
                format!(
                    "value range [{}, {}] wraps past scratch field #{dst}'s {}-bit width",
                    raw.lo,
                    raw.hi,
                    trunc.bits()
                )
            });
        }
        match written.iter_mut().find(|w| w.0 == dst) {
            Some(w) => w.1 = iv,
            None => written.push((dst, iv)),
        }
    };
    for step in action.steps() {
        match step {
            Step::Run(run) => {
                for op in (0..run.len).map(|i| run.first.step(i)) {
                    let raw = alu_interval(op.kind, read(written, op.a), read(written, op.b));
                    store(r, written, op.dst, raw, run.trunc);
                }
            }
            Step::Reg(op) => {
                let (bits, slots) = registers[op.reg];
                let idx = read(written, op.index);
                let stored = if bits < 63 {
                    Interval { lo: 0, hi: (1i64 << bits) - 1 }
                } else {
                    Interval::TOP
                };
                if let Some((dst, trunc)) = op.dst {
                    store(r, written, dst, stored, trunc);
                }
                if idx.lo < 0 || idx.hi as u64 >= slots as u64 {
                    warn_once(r, table, "V103", || {
                        format!(
                            "register #{} index proven only to [{}, {}], the array has {slots} \
                             slot(s) — out-of-range indices wrap onto other flows' slots",
                            op.reg, idx.lo, idx.hi
                        )
                    });
                }
            }
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Pipelines verified on this thread, stateless and per-flow (tests
    /// hold attach and swap of a resident artifact's copy to none).
    pub(crate) static VERIFIER_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Ordered entry pairs the `V201`/`V203` lint held against each other
    /// on this thread (tests pin the lint's cost as this count).
    static LINT_PAIRS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// (Key point, 64-entry word) tests the `V202` scan made on this thread.
    static COVERAGE_WORD_TESTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, CompileOptions, CompileTarget};
    use crate::fusion::fuse_basic;
    use crate::primitives::{MapFn, PrimitiveProgram};
    use pegasus_nn::Tensor;
    use pegasus_switch::{Action, AluOp, MatchKind, Operand, PhvLayout, SwitchConfig, TableEntry};
    use rand::Rng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn scorer() -> PrimitiveProgram {
        let mut p = PrimitiveProgram::new(4);
        let segs = p.partition_strided(p.input, 2, 2);
        let w0 = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0], &[2, 2]);
        let w1 = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0], &[2, 2]);
        let m0 = p.map(segs[0], MapFn::MatVec { weight: w0, bias: vec![0.0, 0.0] });
        let m1 = p.map(segs[1], MapFn::MatVec { weight: w1, bias: vec![0.0, 0.0] });
        let out = p.sum_reduce(&[m0, m1]);
        p.set_output(out);
        p
    }

    fn inputs(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..4).map(|_| rng.gen_range(0..256) as f32).collect()).collect()
    }

    fn compiled() -> CompiledPipeline {
        let mut prog = scorer();
        fuse_basic(&mut prog);
        compile(
            &prog,
            &inputs(1200, 21),
            &CompileOptions { clustering_depth: 6, ..Default::default() },
            CompileTarget::Classify,
            "verify",
        )
        .expect("compiles")
    }

    #[test]
    fn clean_pipeline_verifies_with_lut_proof() {
        let c = compiled();
        let r = verify_pipeline(&c, Some(&SwitchConfig::tofino2()));
        assert!(r.is_clean(), "{r}");
        // Dense LUTs exist and none of them produced a V101.
        assert!(!r.has_code("V101"), "{r}");
    }

    #[test]
    fn interval_analysis_proves_dense_bounds_and_flags_corruption() {
        let c = compiled();
        let flat = FlatProgram::from_pipeline(&c);
        let mut r = VerifyReport::default();
        verify_flat(&mut r, &flat, &c.program.tables, 255);
        assert!(!r.has_errors(), "{r}");
        assert!(flat.dense_tables() >= 2);
    }

    #[test]
    fn dangling_lut_slot_is_v002() {
        // Hand-build a flat table whose LUT points past its entries — the
        // corruption class that cannot be produced through the public
        // compile path (the builder enumerates consistently by
        // construction), exactly why the verifier checks it.
        let ft = FlatTable {
            keys: vec![(0, 2)],
            matcher: Matcher::Dense(vec![0, 9, 0, 0]),
            entry_action: vec![0],
            entry_data: vec![(0, 0)],
            data: vec![],
            default_entry: None,
            actions: vec![FlatAction::default()],
        };
        let mut r = VerifyReport::default();
        check_flat_table(&mut r, &ft, "t", 1, 0, 1);
        assert!(r.has_code("V002"), "{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn corrupt_index_and_overlong_run_are_flagged() {
        use crate::engine::flat::{BitIndex, KeyIndex};
        let flat = FlatProgram::from_pipeline(&compiled());
        let nfields = flat.scratch_len();
        // A real run stretched past the scratch, under an index whose order
        // names entry 7 of 1 and whose interval id 3 has no bitset row.
        let mut run = *flat
            .flat_tables()
            .iter()
            .flat_map(|t| t.actions.iter().flat_map(|a| &a.runs))
            .next()
            .expect("the scorer has actions");
        run.len = nfields + 1;
        let index = BitIndex {
            order: vec![7],
            words: 1,
            keys: vec![KeyIndex { interval_of: vec![0, 3], bitsets: vec![1] }],
            limbs: vec![],
        };
        let ft = FlatTable {
            keys: vec![(0, 1)],
            matcher: Matcher::Indexed(index),
            entry_action: vec![0],
            entry_data: vec![(0, 0)],
            data: vec![],
            default_entry: None,
            actions: vec![FlatAction { runs: vec![run], regs: vec![] }],
        };
        let mut r = VerifyReport::default();
        check_flat_table(&mut r, &ft, "t", nfields, 0, 1);
        let messages = |code: &str| -> Vec<&str> {
            r.diagnostics.iter().filter(|d| d.code == code).map(|d| d.message.as_str()).collect()
        };
        assert!(messages("V002").iter().any(|m| m.contains("names entry 7")), "{r}");
        assert!(messages("V003").iter().any(|m| m.contains("index shape")), "{r}");
        assert!(messages("V001").iter().any(|m| m.contains("writes scratch indices")), "{r}");
    }

    #[test]
    fn register_ops_are_held_to_their_arrays() {
        use crate::engine::flat::{RegKind, RegOp};
        use pegasus_switch::{RegId, RegisterArray};
        // A 16-slot array indexed by a field of `bits` bits, any value of
        // its width on input.
        let indexed_by = |bits: u8| {
            let mut layout = PhvLayout::new();
            let idx = layout.add_field("idx", bits);
            let old = layout.add_field("old", 8);
            let mut prog = SwitchProgram::new("regs", layout);
            prog.registers.push(RegisterArray::new("count", 8, 16));
            let mut t = pegasus_switch::Table::new("bump", vec![]);
            let a = t.add_action(Action::new("bump").with(AluOp::RegIncrSat {
                dst: old,
                reg: RegId(0),
                index: Operand::Field(idx),
                by: 1,
                max: 255,
            }));
            t.default_action = Some((a, vec![]));
            prog.tables.push(t);
            let flat = FlatProgram::from_program(
                &prog,
                &[idx],
                None,
                &[],
                crate::numformat::NumFormat::code8(),
            );
            let mut r = VerifyReport::default();
            verify_flat(&mut r, &flat, &prog.tables, i64::MAX);
            r
        };
        let exact = indexed_by(4);
        assert!(exact.diagnostics.is_empty(), "a 4-bit index is inside 16 slots: {exact}");
        let wide = indexed_by(8);
        assert!(wide.has_code("V103") && wide.is_clean(), "an 8-bit index wraps: {wide}");

        // A register op naming array #3 of a one-array program.
        let op = RegOp {
            kind: RegKind::Read,
            reg: 3,
            index: Src::Const(0),
            a: Src::Const(0),
            dst: None,
        };
        let ft = FlatTable {
            keys: vec![],
            matcher: Matcher::Always,
            entry_action: vec![],
            entry_data: vec![],
            data: vec![],
            default_entry: Some((0, (0, 0))),
            actions: vec![FlatAction { runs: vec![], regs: vec![(0, op)] }],
        };
        let mut r = VerifyReport::default();
        check_flat_table(&mut r, &ft, "t", 1, 1, 0);
        assert!(r.has_code("V009") && r.has_errors(), "{r}");
    }

    #[test]
    fn wraparound_is_flagged_as_v102() {
        // An 8-bit field incremented by 200 from the [0, 255] input range
        // provably wraps.
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let mut prog = SwitchProgram::new("wrap", layout);
        let mut t = pegasus_switch::Table::new("bump", vec![]);
        let a = t.add_action(Action::new("bump").with(AluOp::Add {
            dst: x,
            a: Operand::Field(x),
            b: Operand::Const(200),
        }));
        t.default_action = Some((a, vec![]));
        prog.tables.push(t);
        let p = CompiledPipeline {
            program: Arc::new(prog),
            input_fields: vec![x],
            score_fields: vec![x],
            score_format: crate::numformat::NumFormat::code8(),
            predicted_field: None,
            report: Default::default(),
        };
        let r = verify_pipeline(&p, None);
        assert!(r.has_code("V102"), "{r}");
        assert!(r.is_clean(), "warn must not reject: {r}");
    }

    #[test]
    fn shadowing_and_overlap_lints() {
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let y = layout.add_field("out", 8);
        let mut prog = SwitchProgram::new("lints", layout);
        let mut t = pegasus_switch::Table::new("ranges", vec![(x, MatchKind::Range)]);
        let a = t.add_action(Action::new("set").with(AluOp::Set { dst: y, a: Operand::Param(0) }));
        t.param_widths = vec![8];
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 0, hi: 100 }],
            priority: 5,
            action_idx: a,
            action_data: vec![1],
        });
        // Shadowed: lower priority, fully inside the first range.
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 10, hi: 20 }],
            priority: 1,
            action_idx: a,
            action_data: vec![2],
        });
        // Overlapping at equal priority with a different outcome.
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 50, hi: 200 }],
            priority: 5,
            action_idx: a,
            action_data: vec![3],
        });
        t.default_action = Some((a, vec![0]));
        prog.tables.push(t);
        let r = verify_program(&prog, None);
        assert!(r.has_code("V201"), "{r}");
        assert!(r.has_code("V203"), "{r}");
    }

    #[test]
    fn coverage_gap_without_default_is_v202() {
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 4);
        let y = layout.add_field("out", 8);
        let mut prog = SwitchProgram::new("gap", layout);
        let mut t = pegasus_switch::Table::new("partial", vec![(x, MatchKind::Range)]);
        let a = t.add_action(Action::new("set").with(AluOp::Set { dst: y, a: Operand::Const(1) }));
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Range { lo: 0, hi: 7 }],
            priority: 0,
            action_idx: a,
            action_data: vec![],
        });
        prog.tables.push(t);
        let r = verify_program(&prog, None);
        assert!(r.has_code("V202"), "{r}");
        assert!(r.is_clean(), "coverage gap is a warning: {r}");
    }

    #[test]
    fn part_covers_is_conservative_and_exact_on_small_fields() {
        // Exhaustive ground truth on a 6-bit field: whenever part_covers
        // says yes, every point matching b must match a.
        let bits = 6u8;
        let parts = |seed: u64| -> Vec<KeyPart> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            for _ in 0..40 {
                out.push(match rng.gen_range(0..3) {
                    0 => KeyPart::Exact(rng.gen_range(0..64)),
                    1 => {
                        let mask = rng.gen_range(0..64u64);
                        KeyPart::Ternary(TernaryKey { value: rng.gen_range(0..64u64) & mask, mask })
                    }
                    _ => {
                        let lo = rng.gen_range(0..64u64);
                        KeyPart::Range { lo, hi: rng.gen_range(lo..64) }
                    }
                });
            }
            out
        };
        for a in parts(1) {
            for b in parts(2) {
                let claimed = part_covers(&a, &b, bits);
                let truth = (0..64u64).all(|v| !b.matches(v) || a.matches(v));
                assert!(!claimed || truth, "covers false positive: {a:?} over {b:?}");
                let o_claimed = part_overlaps(&a, &b, bits);
                let o_truth = (0..64u64).any(|v| a.matches(v) && b.matches(v));
                // Overlap is conservative in the other direction: it may
                // claim overlap that does not exist, never miss one.
                assert!(o_claimed || !o_truth, "overlap false negative: {a:?} vs {b:?}");
            }
        }
    }

    /// The semantic lints as first written: every ordered entry pair for
    /// `V201`/`V203`, every entry re-matched at every key point for `V202`.
    fn reference_table_semantics(r: &mut VerifyReport, prog: &SwitchProgram, t: &Table) {
        let name = t.name.as_str();
        let sound = |e: &pegasus_switch::TableEntry| e.keys.len() == t.keys.len();
        let widths: Option<Vec<u8>> = t
            .keys
            .iter()
            .map(|(f, _)| (f.0 < prog.layout.len()).then(|| prog.layout.def(*f).bits))
            .collect();
        let Some(widths) = widths else { return };

        if t.is_exact() {
            let mut seen: std::collections::HashMap<Vec<u64>, usize> =
                std::collections::HashMap::new();
            for (ei, e) in t.entries.iter().enumerate() {
                if !sound(e) {
                    continue;
                }
                let key: Option<Vec<u64>> = e
                    .keys
                    .iter()
                    .map(|p| if let KeyPart::Exact(v) = p { Some(*v) } else { None })
                    .collect();
                let Some(key) = key else { continue };
                match seen.get(&key) {
                    Some(&first) => r.push(
                        "V201",
                        Severity::Error,
                        Some(name),
                        format!("entry #{ei} duplicates entry #{first}'s exact key — unreachable"),
                    ),
                    None => {
                        seen.insert(key, ei);
                    }
                }
            }
        } else if t.entries.len() <= SEMANTIC_LINT_MAX_ENTRIES {
            for j in 0..t.entries.len() {
                if !sound(&t.entries[j]) {
                    continue;
                }
                for i in 0..t.entries.len() {
                    if i == j || !sound(&t.entries[i]) {
                        continue;
                    }
                    let (a, b) = (&t.entries[i], &t.entries[j]);
                    let dominates = a.priority > b.priority || (a.priority == b.priority && i < j);
                    if dominates && covers_all(a, b, &widths) {
                        r.push(
                            "V201",
                            Severity::Error,
                            Some(name),
                            format!(
                                "entry #{j} is shadowed by entry #{i} \
                                 (priority {} vs {}) — unreachable",
                                a.priority, b.priority
                            ),
                        );
                        break;
                    }
                    if i < j
                        && a.priority == b.priority
                        && !covers_all(a, b, &widths)
                        && !covers_all(b, a, &widths)
                        && overlaps_all(a, b, &widths)
                        && (a.action_idx != b.action_idx || a.action_data != b.action_data)
                    {
                        r.push(
                            "V203",
                            Severity::Warn,
                            Some(name),
                            format!(
                                "entries #{i} and #{j} overlap at equal priority {} with \
                                 different outcomes — match order decides",
                                a.priority
                            ),
                        );
                    }
                }
            }
        }

        if t.default_action.is_none() && !t.keys.is_empty() && !t.entries.is_empty() {
            let domain = widths.iter().fold(1u64, |acc, &b| acc.saturating_mul(1u64 << b.min(63)));
            if domain <= COVERAGE_MAX_POINTS {
                let k = widths.len();
                let mut raws = vec![0u64; k];
                'points: for point in 0..domain {
                    let mut rem = point;
                    for (j, &b) in widths.iter().enumerate().rev() {
                        raws[j] = rem & mask_of(b);
                        rem >>= b;
                    }
                    let hit =
                        t.entries.iter().filter(|e| sound(e)).any(|e| {
                            e.keys.iter().zip(raws.iter()).all(|(p, &raw)| p.matches(raw))
                        });
                    if !hit {
                        r.push(
                            "V202",
                            Severity::Warn,
                            Some(name),
                            format!(
                                "no default action and key point {raws:?} matches no entry — \
                                 packets there pass through unmodified"
                            ),
                        );
                        break 'points;
                    }
                }
            }
        }
    }

    /// How a generated key column is filled.
    #[derive(Clone, Copy, Debug)]
    enum Column {
        /// Every part `Exact` (the lint buckets on it).
        AllExact,
        /// Ranges and ternaries only.
        NoExact,
        /// Mostly `Exact`, with the odd range or ternary.
        Mixed,
    }

    /// A seeded table over 1–4 keys of 1–16 bits, malformed parts and
    /// wrong-arity entries included, in a program whose layout holds the
    /// keys.
    fn random_table(rng: &mut rand::rngs::StdRng) -> (SwitchProgram, Vec<Column>) {
        let nkeys = rng.gen_range(1..=4usize);
        let mut layout = PhvLayout::new();
        let widths: Vec<u8> = (0..nkeys)
            .map(|_| {
                if rng.gen_range(0..2) == 0 {
                    rng.gen_range(1..=4)
                } else {
                    rng.gen_range(1..=16)
                }
            })
            .collect();
        let fields: Vec<FieldId> = widths
            .iter()
            .enumerate()
            .map(|(i, &b)| layout.add_field(&format!("k{i}"), b))
            .collect();
        let columns: Vec<Column> = (0..nkeys)
            .map(|_| [Column::AllExact, Column::NoExact, Column::Mixed][rng.gen_range(0..3)])
            .collect();
        let kinds = [MatchKind::Exact, MatchKind::Ternary, MatchKind::Range];
        let keys = fields.iter().map(|&f| (f, kinds[rng.gen_range(0..3)])).collect();
        let mut t = pegasus_switch::Table::new("random", keys);
        t.add_action(Action::new("a"));
        t.add_action(Action::new("b"));
        if rng.gen_range(0..2) == 0 {
            t.default_action = Some((0, vec![]));
        }
        // Small value spaces so that entries collide, plus the odd value
        // past the field's width.
        let value = |rng: &mut rand::rngs::StdRng, bits: u8| -> u64 {
            match rng.gen_range(0..12) {
                0 => mask_of(bits) + rng.gen_range(1..4),
                1..=3 => rng.gen_range(0..=mask_of(bits)),
                _ => rng.gen_range(0..=mask_of(bits).min(3)),
            }
        };
        let part = |rng: &mut rand::rngs::StdRng, column: Column, bits: u8| -> KeyPart {
            let exact = match column {
                Column::AllExact => true,
                Column::NoExact => false,
                Column::Mixed => rng.gen_range(0..4) != 0,
            };
            if exact {
                return KeyPart::Exact(value(rng, bits));
            }
            if rng.gen_range(0..2) == 0 {
                // Inverted now and then (V004).
                let (lo, hi) = (value(rng, bits), value(rng, bits));
                let inverted = rng.gen_range(0..8) == 0;
                if inverted == (lo <= hi) {
                    KeyPart::Range { lo: hi, hi: lo }
                } else {
                    KeyPart::Range { lo, hi }
                }
            } else {
                let mask = rng.gen_range(0..=mask_of(bits));
                // Don't-care bits set in the value now and then (V008).
                let stray = if rng.gen_range(0..8) == 0 { !mask & mask_of(bits + 1) } else { 0 };
                KeyPart::Ternary(TernaryKey { value: value(rng, bits) & mask | stray, mask })
            }
        };
        for _ in 0..rng.gen_range(0..=24) {
            let entry = if !t.entries.is_empty() && rng.gen_range(0..5) == 0 {
                // A duplicate, its outcome sometimes changed.
                let mut e = t.entries[rng.gen_range(0..t.entries.len())].clone();
                e.action_data = vec![rng.gen_range(0..2)];
                e
            } else {
                let mut keys: Vec<KeyPart> =
                    columns.iter().zip(&widths).map(|(&c, &b)| part(rng, c, b)).collect();
                match rng.gen_range(0..16) {
                    0 => {
                        keys.pop();
                    }
                    1 => keys.push(KeyPart::Exact(0)),
                    _ => {}
                }
                TableEntry {
                    keys,
                    priority: rng.gen_range(0..3),
                    action_idx: rng.gen_range(0..2),
                    action_data: vec![rng.gen_range(0..2)],
                }
            };
            t.entries.push(entry);
        }
        let mut prog = SwitchProgram::new("random", layout);
        prog.tables.push(t);
        (prog, columns)
    }

    #[test]
    fn semantic_lints_equal_the_all_pairs_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut findings = std::collections::BTreeMap::new();
        let mut shapes = std::collections::BTreeSet::new();
        for case in 0..600 {
            let (prog, columns) = random_table(&mut rng);
            let t = &prog.tables[0];
            let (mut got, mut want) = (VerifyReport::default(), VerifyReport::default());
            check_table_semantics(&mut got, &prog, t);
            reference_table_semantics(&mut want, &prog, t);
            assert_eq!(got.diagnostics, want.diagnostics, "case {case}: {columns:?} {t:?}");
            for d in &want.diagnostics {
                let kind = if d.message.contains("duplicates") { "V201 exact" } else { d.code };
                *findings.entry(kind).or_insert(0) += 1;
            }
            shapes.extend(columns.iter().map(|c| format!("{c:?}")));
        }
        // The cases reach every finding and every column shape.
        for code in ["V201", "V201 exact", "V202", "V203"] {
            assert!(findings.get(code).copied().unwrap_or(0) >= 10, "{code}: {findings:?}");
        }
        assert_eq!(shapes.len(), 3, "{shapes:?}");
    }

    /// An RNN-B step table: a 5-bit `Exact` state crossed with 7 × 2
    /// range cells of two 8-bit inputs, all at priority 0.
    fn rnn_step_table() -> SwitchProgram {
        let mut layout = PhvLayout::new();
        let state = layout.add_field("state", 5);
        let (x, h) = (layout.add_field("x", 8), layout.add_field("h", 8));
        let out = layout.add_field("out", 8);
        let keys = vec![(state, MatchKind::Exact), (x, MatchKind::Range), (h, MatchKind::Range)];
        let mut t = pegasus_switch::Table::new("rnn_step1", keys);
        let a =
            t.add_action(Action::new("set").with(AluOp::Set { dst: out, a: Operand::Param(0) }));
        t.param_widths = vec![8];
        for s in 0..32u64 {
            for cx in 0..7u64 {
                for ch in 0..2u64 {
                    let (xlo, xhi) = (cx * 37, if cx == 6 { 255 } else { cx * 37 + 36 });
                    t.add_entry(TableEntry {
                        keys: vec![
                            KeyPart::Exact(s),
                            KeyPart::Range { lo: xlo, hi: xhi },
                            KeyPart::Range { lo: ch * 128, hi: ch * 128 + 127 },
                        ],
                        priority: 0,
                        action_idx: a,
                        action_data: vec![(s + cx + ch) as i64],
                    });
                }
            }
        }
        let mut prog = SwitchProgram::new("rnn", layout);
        prog.tables.push(t);
        prog
    }

    #[test]
    fn lint_cost_is_pinned_as_a_count() {
        let pairs = || LINT_PAIRS.with(|n| n.get());
        let words = || COVERAGE_WORD_TESTS.with(|n| n.get());
        let prog = rnn_step_table();
        let t = &prog.tables[0];
        assert_eq!(t.entries.len(), 448);
        let (mut got, mut want) = (VerifyReport::default(), VerifyReport::default());
        let before = pairs();
        check_table_semantics(&mut got, &prog, t);
        // Each entry meets only its own state's 14 cells, not all 448.
        assert!(pairs() - before <= 448 * 14, "{} pairs", pairs() - before);
        reference_table_semantics(&mut want, &prog, t);
        assert_eq!(got.diagnostics, want.diagnostics);
        assert!(got.diagnostics.is_empty(), "{got}");

        // Coverage over a step-0 shape: 16 cells of two 8-bit inputs, no
        // default. One 64-entry word covers them, so each of the 2¹⁶ points
        // is tested once; a 105-entry table takes at most two words a point.
        let mut layout = PhvLayout::new();
        let (x, h) = (layout.add_field("x", 8), layout.add_field("h", 8));
        let mut t = pegasus_switch::Table::new(
            "rnn_step0",
            vec![(x, MatchKind::Range), (h, MatchKind::Range)],
        );
        t.add_action(Action::new("a"));
        let cell = |lo: u64, hi: u64| KeyPart::Range { lo, hi };
        for (i, j) in (0..4u64).flat_map(|i| (0..4u64).map(move |j| (i, j))) {
            t.entries.push(TableEntry {
                keys: vec![cell(i * 64, i * 64 + 63), cell(j * 64, j * 64 + 63)],
                priority: 0,
                action_idx: 0,
                action_data: vec![],
            });
        }
        let mut prog = SwitchProgram::new("rnn0", layout);
        prog.tables.push(t);
        let before = words();
        let mut r = VerifyReport::default();
        check_table_semantics(&mut r, &prog, &prog.tables[0]);
        assert_eq!(words() - before, 1 << 16);
        assert!(!r.has_code("V202"), "{r}");
        // 15 cells seven times over: the last cell is a gap.
        let t = &mut prog.tables[0];
        t.entries = (0..7).flat_map(|_| t.entries[..15].to_vec()).collect();
        let t = &prog.tables[0];
        let before = words();
        let (mut got, mut want) = (VerifyReport::default(), VerifyReport::default());
        check_table_semantics(&mut got, &prog, t);
        assert!(words() - before <= 2 << 16, "{} word tests", words() - before);
        reference_table_semantics(&mut want, &prog, t);
        assert_eq!(got.diagnostics, want.diagnostics);
        assert!(got.has_code("V202"), "{got}");
    }

    #[test]
    fn resource_overflow_is_v204() {
        let c = compiled();
        let tiny = SwitchConfig {
            stages: 1,
            sram_bits_per_stage: 64,
            tcam_bits_per_stage: 64,
            ..SwitchConfig::tiny_test()
        };
        let r = verify_pipeline(&c, Some(&tiny));
        assert!(r.has_code("V204"), "{r}");
        assert!(r.has_errors());
    }
}
