//! Switch programs: deployment (stage allocation + resource validation) and
//! packet processing.
//!
//! A [`SwitchProgram`] is the loadable artifact the Pegasus compiler emits —
//! the moral equivalent of a compiled P4 binary. [`SwitchProgram::deploy`]
//! performs what the Tofino compiler does: it assigns tables to pipeline
//! stages respecting data dependencies, checks every resource limit in
//! [`SwitchConfig`], and either produces a
//! runnable [`LoadedProgram`] or a precise [`DeployError`]. The paper's
//! Table 6 columns are exactly the fields of [`ResourceReport`].
//!
//! A program is description only — layout, tables, register
//! *declarations* — and deploying one copies none of it: the
//! [`LoadedProgram`] keeps the `Arc` it was deployed from, so the compiled
//! pipeline, the simulator and every shard share one copy of the tables.
//! Per-flow state is the caller's [`RegFile`] ([`RegFile::new`]).

use crate::config::SwitchConfig;
use crate::mat::{ExactIndex, Table, TableUsage};
use crate::phv::{FieldId, Phv, PhvLayout};
use crate::register::{RegFile, RegisterArray};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A deployable dataplane program.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchProgram {
    /// Program name (for reports).
    pub name: String,
    /// PHV field declarations.
    pub layout: PhvLayout,
    /// Stateful register arrays, declared (cells live in a [`RegFile`]).
    pub registers: Vec<RegisterArray>,
    /// Tables in logical (dependency) order.
    pub tables: Vec<Table>,
    /// Extra pipeline stages consumed outside the MAT model — e.g. N3IC's
    /// popcount chains, which the paper reports as 14 stages per popcnt
    /// (§2). Charged during stage allocation.
    pub extra_stages: usize,
    /// Stateful bits this program keeps per tracked flow (the Table 6
    /// "Stateful bits/flow" column). Declared by the compiler because only
    /// it knows which registers are per-flow vs global.
    pub stateful_bits_per_flow: u64,
    /// Fields whose values must survive to the end of the pipeline
    /// (program outputs read by the harness). PHV compaction never frees
    /// their containers.
    pub keep_alive: Vec<FieldId>,
}

impl SwitchProgram {
    /// Creates an empty program.
    pub fn new(name: &str, layout: PhvLayout) -> Self {
        SwitchProgram {
            name: name.to_string(),
            layout,
            registers: Vec::new(),
            tables: Vec::new(),
            extra_stages: 0,
            stateful_bits_per_flow: 0,
            keep_alive: Vec::new(),
        }
    }

    /// PHV container reuse by liveness analysis — what production P4
    /// compilers do to fit programs into the header vector.
    ///
    /// Two fields may share a container when their live ranges (table-index
    /// intervals between first and last reference) do not overlap and they
    /// agree on width and signedness. A field only *takes over* a freed
    /// container when its first reference is an unconditional write (the
    /// table's default action writes it), because conditionally-written
    /// fields rely on the PHV's zero initialization. Input and `keep_alive`
    /// fields keep their own containers alive across the whole pipeline.
    ///
    /// Returns the bits saved and the old-to-new field mapping (callers
    /// must remap any externally held [`FieldId`]s through it).
    pub fn compact_phv(&mut self, input_fields: &[FieldId]) -> (u64, PhvRemap) {
        let n = self.layout.len();
        // Dependency levelization: level[t] = 1 + max level of conflicting
        // predecessors. Liveness is measured in levels, and containers are
        // reused only across strictly separated levels, so the false
        // write-after-read dependencies introduced by reuse are always
        // satisfied by the original stage assignment — compaction cannot
        // inflate the stage count.
        let reads: Vec<Vec<FieldId>> = self.tables.iter().map(|t| t.reads()).collect();
        let writes: Vec<Vec<FieldId>> = self.tables.iter().map(|t| t.writes()).collect();
        let mut level = vec![0usize; self.tables.len()];
        for i in 0..self.tables.len() {
            for j in 0..i {
                let conflict = writes[j].iter().any(|f| reads[i].contains(f))
                    || reads[j].iter().any(|f| writes[i].contains(f))
                    || writes[j].iter().any(|f| writes[i].contains(f));
                if conflict {
                    level[i] = level[i].max(level[j] + 1);
                }
            }
        }
        let t_end = level.iter().copied().max().unwrap_or(0) + 1;
        // Live intervals (in dependency levels AND list positions) plus
        // write-kind per field. Reuse must respect both orders: the
        // simulator executes tables in list order, while stage allocation
        // follows dependency levels.
        let mut first: Vec<Option<(usize, usize)>> = vec![None; n]; // (level, list)
        let mut last: Vec<(usize, usize)> = vec![(0, 0); n];
        let mut first_is_uncond_write: Vec<bool> = vec![false; n];
        let touch = |f: usize,
                     lv: usize,
                     li: usize,
                     is_uncond_write: bool,
                     first: &mut Vec<Option<(usize, usize)>>,
                     last: &mut Vec<(usize, usize)>,
                     fiuw: &mut Vec<bool>| {
            if first[f].is_none() {
                first[f] = Some((lv, li));
                fiuw[f] = is_uncond_write;
            }
            last[f] = (last[f].0.max(lv), last[f].1.max(li));
        };
        for (ti, table) in self.tables.iter().enumerate() {
            let lv = level[ti];
            // Reads: match keys + every action's source fields.
            for (f, _) in &table.keys {
                touch(f.0, lv, ti, false, &mut first, &mut last, &mut first_is_uncond_write);
            }
            let default_idx = table.default_action.as_ref().map(|(i, _)| *i);
            for (ai, action) in table.actions.iter().enumerate() {
                let uncond = Some(ai) == default_idx;
                for op in &action.ops {
                    for f in op.src_fields() {
                        touch(
                            f.0,
                            lv,
                            ti,
                            false,
                            &mut first,
                            &mut last,
                            &mut first_is_uncond_write,
                        );
                    }
                    if let Some(f) = op.dst_field() {
                        // Writes count as both def and use boundary.
                        touch(
                            f.0,
                            lv,
                            ti,
                            uncond,
                            &mut first,
                            &mut last,
                            &mut first_is_uncond_write,
                        );
                    }
                }
            }
        }
        for f in input_fields {
            // Written by the parser before table 0; may be freed after
            // their last read but never take over another container.
            if first[f.0].is_none() {
                first[f.0] = Some((0, 0));
            }
            first[f.0] = Some((0, 0));
            first_is_uncond_write[f.0] = false;
        }
        for f in &self.keep_alive {
            if first[f.0].is_none() {
                first[f.0] = Some((0, 0));
            }
            last[f.0] = (t_end, self.tables.len());
            first_is_uncond_write[f.0] = false; // rely on zero init
        }

        // Greedy interval assignment: fields in first-reference order.
        let mut order: Vec<usize> = (0..n).filter(|&f| first[f].is_some()).collect();
        order.sort_by_key(|&f| first[f].unwrap());
        // Pools of freed containers keyed by (bits, signed):
        // (container_field, (last_level, last_list)).
        use std::collections::HashMap;
        type FreedPool = Vec<(usize, (usize, usize))>;
        let mut pools: HashMap<(u8, bool), FreedPool> = HashMap::new();
        let mut assignment: Vec<usize> = (0..n).collect();
        let mut is_container: Vec<bool> = vec![false; n];
        for &f in &order {
            let def = self.layout.def(FieldId(f));
            let key = (def.bits, def.signed);
            let (start_lv, start_li) = first[f].unwrap();
            let mut assigned = None;
            if first_is_uncond_write[f] {
                if let Some(pool) = pools.get_mut(&key) {
                    // Reusable when the container's last reference precedes
                    // this def in BOTH dependency level (stage safety) and
                    // list position (sequential-execution safety).
                    if let Some(pos) = pool
                        .iter()
                        .position(|&(_, (l_lv, l_li))| l_lv < start_lv && l_li < start_li)
                    {
                        let (container, _) = pool.swap_remove(pos);
                        assigned = Some(container);
                    }
                }
            }
            let container = assigned.unwrap_or(f);
            assignment[f] = container;
            is_container[container] = true;
            // The container frees after this field's last reference.
            pools.entry(key).or_default().push((container, last[f]));
        }

        // Rebuild the layout with only containers; remap ids.
        let mut new_layout = PhvLayout::new();
        let mut new_id: Vec<Option<FieldId>> = vec![None; n];
        for (fid, def) in self.layout.iter() {
            if is_container[fid.0] {
                let id = if def.signed {
                    new_layout.add_signed_field(&def.name, def.bits)
                } else {
                    new_layout.add_field(&def.name, def.bits)
                };
                new_id[fid.0] = Some(id);
            }
        }
        let remap = |f: FieldId| -> FieldId { new_id[assignment[f.0]].expect("container exists") };
        for table in &mut self.tables {
            for (f, _) in &mut table.keys {
                *f = remap(*f);
            }
            for action in &mut table.actions {
                for op in &mut action.ops {
                    op.remap_fields(&remap);
                }
            }
        }
        self.keep_alive = self.keep_alive.iter().map(|&f| remap(f)).collect();
        let saved = self.layout.total_bits().saturating_sub(new_layout.total_bits());
        self.layout = new_layout;
        let map: Vec<Option<FieldId>> = (0..n).map(|f| new_id[assignment[f]]).collect();
        (saved, PhvRemap { map })
    }
}

/// Old-to-new field mapping produced by [`SwitchProgram::compact_phv`].
#[derive(Clone, Debug)]
pub struct PhvRemap {
    map: Vec<Option<FieldId>>,
}

impl PhvRemap {
    /// The new id of a pre-compaction field (panics when the field was
    /// dead and dropped — externally held fields should be in `keep_alive`
    /// or the input list).
    pub fn get(&self, old: FieldId) -> FieldId {
        self.map[old.0].unwrap_or_else(|| panic!("field {old:?} was eliminated"))
    }
}

/// Why a program failed to deploy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeployError {
    /// PHV layout exceeds the header-vector capacity.
    PhvOverflow {
        /// Bits requested by the layout.
        used: u64,
        /// Bits available.
        capacity: u64,
    },
    /// A register array uses a width the hardware does not support.
    BadRegisterWidth {
        /// Offending array name.
        register: String,
        /// Its width.
        width: u8,
    },
    /// Register SRAM budget exhausted.
    RegisterOverflow {
        /// Bits requested.
        used: u64,
        /// Bits available.
        capacity: u64,
    },
    /// The dependency chain needs more stages than the pipeline has.
    OutOfStages {
        /// Stages required.
        needed: usize,
        /// Stages available.
        available: usize,
    },
    /// Aggregate SRAM demand exceeds pipeline capacity.
    SramOverflow {
        /// Bits requested.
        used: u64,
        /// Bits available.
        capacity: u64,
    },
    /// Aggregate TCAM demand exceeds pipeline capacity.
    TcamOverflow {
        /// Bits requested.
        used: u64,
        /// Bits available.
        capacity: u64,
    },
    /// One table's action data exceeds the per-stage action bus width.
    BusOverflow {
        /// Offending table name.
        table: String,
        /// Bits requested in one stage.
        used: u64,
        /// Bus width.
        capacity: u64,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::PhvOverflow { used, capacity } => {
                write!(f, "PHV overflow: {used} bits > {capacity} capacity")
            }
            DeployError::BadRegisterWidth { register, width } => {
                write!(f, "register {register}: unsupported width {width}")
            }
            DeployError::RegisterOverflow { used, capacity } => {
                write!(f, "register SRAM overflow: {used} > {capacity}")
            }
            DeployError::OutOfStages { needed, available } => {
                write!(f, "needs {needed} stages, pipeline has {available}")
            }
            DeployError::SramOverflow { used, capacity } => {
                write!(f, "SRAM overflow: {used} > {capacity}")
            }
            DeployError::TcamOverflow { used, capacity } => {
                write!(f, "TCAM overflow: {used} > {capacity}")
            }
            DeployError::BusOverflow { table, used, capacity } => {
                write!(f, "table {table}: action bus overflow {used} > {capacity}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Per-program resource utilization — the Table 6 row for one model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ResourceReport {
    /// Stateful register bits per tracked flow.
    pub stateful_bits_per_flow: u64,
    /// Fraction of pipeline SRAM consumed (0..1), tables + per-flow state
    /// excluded (flow state is reported separately like the paper does).
    pub sram_frac: f64,
    /// Fraction of pipeline TCAM consumed (0..1).
    pub tcam_frac: f64,
    /// Fraction of aggregate action-bus bits consumed (0..1).
    pub bus_frac: f64,
    /// Pipeline stages used.
    pub stages_used: usize,
    /// Total SRAM bits.
    pub sram_bits: u64,
    /// Total TCAM bits.
    pub tcam_bits: u64,
    /// Total action-bus bits across stages.
    pub bus_bits: u64,
    /// Total table entries.
    pub entries: u64,
}

/// A validated, runnable program instance.
///
/// This is the *program* half of the switch — tables, stage assignment,
/// resource accounting — and it is immutable: every packet entry point
/// takes `&self` plus the caller's [`RegFile`], the *state* half, exactly
/// as match-action entries and register SRAM are separate memories on the
/// hardware. One loaded program can therefore be shared (by reference or
/// `Arc`) between any number of register files, each owned by whoever
/// serves its flows; the tables are the deployer's `Arc`, not a copy.
pub struct LoadedProgram {
    program: Arc<SwitchProgram>,
    config: SwitchConfig,
    /// `stage_of[i]` = last stage occupied by table `i`.
    stage_of: Vec<usize>,
    stages_used: usize,
    usages: Vec<TableUsage>,
    /// Hash index per exact table, built on the simulator's first lookup
    /// (a program served through its flattened replica never pays for it).
    exact: OnceLock<Vec<Option<ExactIndex>>>,
}

impl fmt::Debug for LoadedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadedProgram")
            .field("name", &self.program.name)
            .field("tables", &self.program.tables.len())
            .field("stages_used", &self.stages_used)
            .finish()
    }
}

impl SwitchProgram {
    /// Statically validates the program's resource demand against a switch
    /// configuration **without** loading it: PHV capacity, register widths
    /// and SRAM budget, per-table action-bus fit, aggregate SRAM/TCAM, and
    /// stage allocation. This is exactly the admission check
    /// [`deploy`](SwitchProgram::deploy) performs, exposed non-consuming so
    /// static analysis (the `pegasus-core` verifier) can account resources
    /// without cloning the program or building runtime state.
    ///
    /// Returns the table stage assignment (`stage_of[i]` = last stage
    /// occupied by table `i`) and the total stage count on success.
    pub fn check_resources(
        &self,
        config: &SwitchConfig,
    ) -> Result<(Vec<usize>, usize), DeployError> {
        self.fit(config).map(|(stage_of, stages, _)| (stage_of, stages))
    }

    /// [`check_resources`](SwitchProgram::check_resources), also handing
    /// back the per-table usages it accounted (`deploy` keeps them).
    fn fit(
        &self,
        config: &SwitchConfig,
    ) -> Result<(Vec<usize>, usize, Vec<TableUsage>), DeployError> {
        // 1. PHV capacity.
        let phv_used = self.layout.total_bits();
        if phv_used > config.phv_bits {
            return Err(DeployError::PhvOverflow { used: phv_used, capacity: config.phv_bits });
        }
        // 2. Registers.
        for r in &self.registers {
            if !config.supports_register_width(r.width_bits) {
                return Err(DeployError::BadRegisterWidth {
                    register: r.name.clone(),
                    width: r.width_bits,
                });
            }
        }
        let reg_bits: u64 = self.registers.iter().map(|r| r.total_bits()).sum();
        if reg_bits > config.register_bits_total {
            return Err(DeployError::RegisterOverflow {
                used: reg_bits,
                capacity: config.register_bits_total,
            });
        }
        // 3. Per-table usage, bus check, aggregate SRAM/TCAM.
        let usages: Vec<TableUsage> = self.tables.iter().map(|t| t.usage(&self.layout)).collect();
        for (t, u) in self.tables.iter().zip(usages.iter()) {
            if u.bus_bits > config.action_bus_bits_per_stage {
                return Err(DeployError::BusOverflow {
                    table: t.name.clone(),
                    used: u.bus_bits,
                    capacity: config.action_bus_bits_per_stage,
                });
            }
        }
        let sram_total: u64 = usages.iter().map(|u| u.sram_bits).sum();
        let tcam_total: u64 = usages.iter().map(|u| u.tcam_bits).sum();
        if sram_total > config.total_sram_bits() {
            return Err(DeployError::SramOverflow {
                used: sram_total,
                capacity: config.total_sram_bits(),
            });
        }
        if tcam_total > config.total_tcam_bits() {
            return Err(DeployError::TcamOverflow {
                used: tcam_total,
                capacity: config.total_tcam_bits(),
            });
        }
        // 4. Stage allocation.
        let (stage_of, stages_used) = allocate_stages(&self.tables, &usages, config)?;
        let total_stages = stages_used + self.extra_stages;
        if total_stages > config.stages {
            return Err(DeployError::OutOfStages {
                needed: total_stages,
                available: config.stages,
            });
        }
        Ok((stage_of, total_stages, usages))
    }

    /// Validates the program against a switch configuration and loads it.
    /// The loaded program keeps `self` — nothing is copied.
    pub fn deploy(self: Arc<Self>, config: &SwitchConfig) -> Result<LoadedProgram, DeployError> {
        let (stage_of, total_stages, usages) = self.fit(config)?;
        Ok(LoadedProgram {
            program: self,
            config: config.clone(),
            stage_of,
            stages_used: total_stages,
            usages,
            exact: OnceLock::new(),
        })
    }
}

/// Greedy in-order stage allocator.
///
/// Each table starts no earlier than one stage past every earlier table it
/// conflicts with (read-after-write, write-after-read or write-after-write
/// on any PHV field). Large tables spill across consecutive stages when one
/// stage's remaining SRAM/TCAM cannot hold them; their action data bus cost
/// is charged to their final stage.
fn allocate_stages(
    tables: &[Table],
    usages: &[TableUsage],
    config: &SwitchConfig,
) -> Result<(Vec<usize>, usize), DeployError> {
    let n = tables.len();
    let mut stage_of = vec![0usize; n];
    // Free resources per stage (grown lazily; validated against the limit
    // at the end so we can report how many stages were *needed*).
    let mut free_sram: Vec<u64> = Vec::new();
    let mut free_tcam: Vec<u64> = Vec::new();
    let mut free_bus: Vec<u64> = Vec::new();
    let ensure_stage =
        |s: usize, free_sram: &mut Vec<u64>, free_tcam: &mut Vec<u64>, free_bus: &mut Vec<u64>| {
            while free_sram.len() <= s {
                free_sram.push(config.sram_bits_per_stage);
                free_tcam.push(config.tcam_bits_per_stage);
                free_bus.push(config.action_bus_bits_per_stage);
            }
        };

    // Each table's read and write sets as rows of field bitsets, so a
    // conflict test is a few word ANDs.
    let reads: Vec<Vec<FieldId>> = tables.iter().map(|t| t.reads()).collect();
    let writes: Vec<Vec<FieldId>> = tables.iter().map(|t| t.writes()).collect();
    let fields = reads.iter().chain(&writes).flatten().map(|f| f.0 + 1).max().unwrap_or(0);
    let words = fields.div_ceil(64).max(1);
    let rows = |sets: &[Vec<FieldId>]| {
        let mut rows = vec![0u64; sets.len() * words];
        for (set, row) in sets.iter().zip(rows.chunks_exact_mut(words)) {
            for f in set {
                row[f.0 / 64] |= 1 << (f.0 % 64);
            }
        }
        rows
    };
    let (read_bits, write_bits) = (rows(&reads), rows(&writes));
    let reads: Vec<&[u64]> = read_bits.chunks_exact(words).collect();
    let writes: Vec<&[u64]> = write_bits.chunks_exact(words).collect();

    for i in 0..n {
        // Earliest stage after all conflicting predecessors.
        let mut earliest = 0usize;
        let (reads_i, writes_i) = (reads[i], writes[i]);
        for j in 0..i {
            let (reads_j, writes_j) = (reads[j], writes[j]);
            // Read-after-write, write-after-read or write-after-write.
            let conflict = (0..words).any(|w| {
                (writes_j[w] & (reads_i[w] | writes_i[w])) | (reads_j[w] & writes_i[w]) != 0
            });
            if conflict {
                earliest = earliest.max(stage_of[j] + 1);
            }
        }
        // Allocate SRAM/TCAM from `earliest` onward, spilling forward.
        let mut s = earliest;
        let (mut need_sram, mut need_tcam) = (usages[i].sram_bits, usages[i].tcam_bits);
        loop {
            ensure_stage(s, &mut free_sram, &mut free_tcam, &mut free_bus);
            let take_sram = need_sram.min(free_sram[s]);
            let take_tcam = need_tcam.min(free_tcam[s]);
            free_sram[s] -= take_sram;
            free_tcam[s] -= take_tcam;
            need_sram -= take_sram;
            need_tcam -= take_tcam;
            if need_sram == 0 && need_tcam == 0 {
                // Bus must fit in the final stage; spill once more if not.
                if usages[i].bus_bits <= free_bus[s] {
                    free_bus[s] -= usages[i].bus_bits;
                    break;
                }
            }
            s += 1;
            if s > 4 * config.stages {
                // Pathological demand; bail out with a stage-count error.
                return Err(DeployError::OutOfStages { needed: s, available: config.stages });
            }
        }
        stage_of[i] = s;
    }
    let stages_used = stage_of.iter().map(|&s| s + 1).max().unwrap_or(0);
    Ok((stage_of, stages_used))
}

impl LoadedProgram {
    /// The underlying program — the `Arc` it was deployed from.
    pub fn program(&self) -> &Arc<SwitchProgram> {
        &self.program
    }

    /// The switch configuration this program was validated against.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Last stage occupied by each table.
    pub fn stage_assignment(&self) -> &[usize] {
        &self.stage_of
    }

    /// Processes one packet: sets the given input fields on a fresh PHV,
    /// runs every table in order against `regs` — which must have this
    /// program's register shape (`RegFile::new(&program.registers)`) — and
    /// returns the final PHV.
    pub fn process(&self, inputs: &[(FieldId, i64)], regs: &mut RegFile) -> Phv {
        let mut phv = self.program.layout.instantiate();
        for &(f, v) in inputs {
            phv.set(f, v);
        }
        let tables = &self.program.tables;
        let exact = self.exact.get_or_init(|| tables.iter().map(Table::exact_index).collect());
        for (t, index) in tables.iter().zip(exact) {
            if let Some((action, data)) = t.lookup_with(&phv, index.as_ref()) {
                action.execute(&mut phv, data, regs);
            }
        }
        phv
    }

    /// The Table 6 resource row for this program.
    pub fn resource_report(&self) -> ResourceReport {
        let sram_bits: u64 = self.usages.iter().map(|u| u.sram_bits).sum();
        let tcam_bits: u64 = self.usages.iter().map(|u| u.tcam_bits).sum();
        let bus_bits: u64 = self.usages.iter().map(|u| u.bus_bits).sum();
        let entries: u64 = self.program.tables.iter().map(|t| t.entries.len() as u64).sum();
        ResourceReport {
            stateful_bits_per_flow: self.program.stateful_bits_per_flow,
            sram_frac: sram_bits as f64 / self.config.total_sram_bits() as f64,
            tcam_frac: tcam_bits as f64 / self.config.total_tcam_bits() as f64,
            bus_frac: bus_bits as f64 / self.config.total_bus_bits() as f64,
            stages_used: self.stages_used,
            sram_bits,
            tcam_bits,
            bus_bits,
            entries,
        }
    }
}

// --- serde (control-daemon artifact format) ----------------------------
//
// A decoded program's register declarations are bounded before anything
// can be sized from them (`RegisterArray::check_decoded`).

serde::impl_serde_struct!(SwitchProgram {
    name,
    layout,
    registers,
    tables,
    extra_stages,
    stateful_bits_per_flow,
    keep_alive,
} where |p: &SwitchProgram| RegisterArray::check_decoded(&p.registers));

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand, RegId};
    use crate::mat::{KeyPart, MatchKind, Table, TableEntry};
    use crate::ternary::TernaryKey;

    /// A small but representative program: every operand kind, a register
    /// RMW, exact + ternary + range keys, a default action.
    fn sample_program() -> SwitchProgram {
        let mut layout = PhvLayout::new();
        let len = layout.add_field("pkt_len", 16);
        let acc = layout.add_signed_field("acc", 32);
        let mut prog = SwitchProgram::new("sample", layout);
        prog.registers.push(RegisterArray::new("win", 16, 8));
        prog.extra_stages = 1;
        prog.stateful_bits_per_flow = 44;
        prog.keep_alive.push(acc);

        let mut t = Table::new("t0", vec![(len, MatchKind::Exact), (acc, MatchKind::Ternary)]);
        let mut a = Action::new("score");
        a.ops.push(AluOp::Add { dst: acc, a: Operand::Field(len), b: Operand::Param(0) });
        a.ops.push(AluOp::RegShiftInsert {
            dst: acc,
            reg: RegId(0),
            index: Operand::Const(3),
            a: Operand::Field(len),
            shift: 4,
            mask: 0xffff,
        });
        let idx = t.add_action(a);
        t.param_widths.push(16);
        t.default_action = Some((idx, vec![7]));
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Exact(9), KeyPart::Ternary(TernaryKey::exact(1, 8))],
            priority: 2,
            action_idx: idx,
            action_data: vec![-5],
        });
        prog.tables.push(t);
        prog
    }

    #[test]
    fn switch_program_round_trips() {
        let prog = sample_program();
        let bytes = serde::to_bytes(&prog);
        let back: SwitchProgram = serde::from_bytes(&bytes).expect("program decodes");
        assert_eq!(back, prog);
        assert_eq!((back.extra_stages, back.stateful_bits_per_flow), (1, 44));
    }

    #[test]
    fn hostile_register_declarations_fail_at_decode() {
        // Declarations are all a file carries, so nothing but this gate
        // stands between a declared size and an allocation.
        let mut prog = sample_program();
        prog.registers[0].size = 1 << 40;
        assert_eq!(
            serde::from_bytes::<SwitchProgram>(&serde::to_bytes(&prog)).unwrap_err(),
            serde::DecodeError::OutOfRange { what: "declared register bits", value: 16 << 40 }
        );
        prog.registers[0] = RegisterArray { name: "r4".into(), width_bits: 4, size: 8 };
        assert_eq!(
            serde::from_bytes::<SwitchProgram>(&serde::to_bytes(&prog)).unwrap_err(),
            serde::DecodeError::OutOfRange { what: "register width", value: 4 }
        );
    }

    #[test]
    fn truncated_program_is_a_typed_error() {
        let bytes = serde::to_bytes(&sample_program());
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                serde::from_bytes::<SwitchProgram>(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Operand};
    use crate::mat::{KeyPart, MatchKind, TableEntry};
    use crate::ternary::{mask_of, TernaryKey};

    /// A two-table program: t0 maps x -> tmp (exact), t1 adds tmp to acc.
    fn chain_program() -> (SwitchProgram, FieldId, FieldId) {
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let tmp = layout.add_signed_field("tmp", 16);
        let acc = layout.add_signed_field("acc", 16);

        let mut t0 = Table::new("map_x", vec![(x, MatchKind::Exact)]);
        let a0 =
            t0.add_action(Action::new("set").with(AluOp::Set { dst: tmp, a: Operand::Param(0) }));
        t0.param_widths = vec![16];
        for v in 0..10u64 {
            t0.add_entry(TableEntry {
                keys: vec![KeyPart::Exact(v)],
                priority: 0,
                action_idx: a0,
                action_data: vec![(v * v) as i64],
            });
        }

        let mut t1 = Table::new("accumulate", vec![]);
        let a1 = t1.add_action(Action::new("add").with(AluOp::Add {
            dst: acc,
            a: Operand::Field(acc),
            b: Operand::Field(tmp),
        }));
        t1.default_action = Some((a1, vec![]));

        let mut p = SwitchProgram::new("chain", layout);
        p.tables.push(t0);
        p.tables.push(t1);
        (p, x, acc)
    }

    #[test]
    fn deploy_and_process() {
        let (p, x, acc) = chain_program();
        let loaded = Arc::new(p).deploy(&SwitchConfig::tofino2()).expect("deploys");
        let phv = loaded.process(&[(x, 7)], &mut RegFile::default());
        assert_eq!(phv.get(acc), 49);
    }

    #[test]
    fn dependent_tables_get_distinct_stages() {
        let (p, _, _) = chain_program();
        let loaded = Arc::new(p).deploy(&SwitchConfig::tofino2()).unwrap();
        let stages = loaded.stage_assignment();
        // t1 reads tmp written by t0 -> strictly later stage.
        assert!(stages[1] > stages[0], "{stages:?}");
    }

    #[test]
    fn phv_overflow_rejected() {
        let mut layout = PhvLayout::new();
        for i in 0..100 {
            layout.add_field(&format!("f{i}"), 64);
        }
        let p = SwitchProgram::new("fat", layout);
        let err = Arc::new(p).deploy(&SwitchConfig::tofino2()).unwrap_err();
        assert!(matches!(err, DeployError::PhvOverflow { .. }));
    }

    #[test]
    fn bad_register_width_rejected() {
        let layout = PhvLayout::new();
        let mut p = SwitchProgram::new("regs", layout);
        p.registers.push(RegisterArray::new("r4", 4, 16));
        let err = Arc::new(p).deploy(&SwitchConfig::tofino2()).unwrap_err();
        assert_eq!(err, DeployError::BadRegisterWidth { register: "r4".to_string(), width: 4 });
    }

    #[test]
    fn register_budget_enforced() {
        let layout = PhvLayout::new();
        let mut p = SwitchProgram::new("regs", layout);
        p.registers.push(RegisterArray::new("big", 32, 10_000_000));
        let err = Arc::new(p).deploy(&SwitchConfig::tiny_test()).unwrap_err();
        assert!(matches!(err, DeployError::RegisterOverflow { .. }));
    }

    #[test]
    fn bus_overflow_rejected() {
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let dsts: Vec<FieldId> = (0..40).map(|i| layout.add_field(&format!("d{i}"), 8)).collect();
        let mut t = Table::new("wide", vec![(x, MatchKind::Exact)]);
        let mut act = Action::new("fanout");
        for (i, d) in dsts.iter().enumerate() {
            act.ops.push(AluOp::Set { dst: *d, a: Operand::Param(i) });
        }
        let ai = t.add_action(act);
        t.param_widths = vec![8; 40]; // 320 bits > tiny_test's 256-bit bus
        t.add_entry(TableEntry {
            keys: vec![KeyPart::Exact(0)],
            priority: 0,
            action_idx: ai,
            action_data: vec![0; 40],
        });
        let mut p = SwitchProgram::new("wide", layout);
        p.tables.push(t);
        let err = Arc::new(p).deploy(&SwitchConfig::tiny_test()).unwrap_err();
        assert!(matches!(err, DeployError::BusOverflow { .. }), "{err:?}");
    }

    #[test]
    fn extra_stages_count_against_pipeline() {
        let (mut p, _, _) = chain_program();
        p.extra_stages = 19; // chain already needs 2 -> 21 > 20
        let err = Arc::new(p).deploy(&SwitchConfig::tofino2()).unwrap_err();
        assert!(matches!(err, DeployError::OutOfStages { .. }));
    }

    #[test]
    fn resource_report_sums_tables() {
        let (p, _, _) = chain_program();
        let loaded = Arc::new(p).deploy(&SwitchConfig::tofino2()).unwrap();
        let r = loaded.resource_report();
        assert_eq!(r.entries, 10);
        assert!(r.sram_frac > 0.0 && r.sram_frac < 1.0);
        assert_eq!(r.tcam_bits, 0);
        assert!(r.stages_used >= 2);
    }

    #[test]
    fn large_table_spills_across_stages() {
        // One table bigger than a tiny stage's SRAM must span stages.
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 16);
        let out = layout.add_field("out", 16);
        let mut t = Table::new("big", vec![(x, MatchKind::Exact)]);
        let a =
            t.add_action(Action::new("set").with(AluOp::Set { dst: out, a: Operand::Param(0) }));
        t.param_widths = vec![16];
        // 3000 entries * (16 + 8 + 16) bits = 120_000 bits > 64k per stage.
        for v in 0..3000u64 {
            t.add_entry(TableEntry {
                keys: vec![KeyPart::Exact(v)],
                priority: 0,
                action_idx: a,
                action_data: vec![v as i64],
            });
        }
        let mut p = SwitchProgram::new("big", layout);
        p.tables.push(t);
        let loaded = Arc::new(p).deploy(&SwitchConfig::tiny_test()).expect("spills but fits");
        assert!(loaded.stage_assignment()[0] >= 1, "should occupy later stage");
    }

    /// `Table::usage` as it was, over the allocating range expansion.
    fn usage_reference(t: &Table, layout: &PhvLayout) -> TableUsage {
        let key_bits: u64 = t.keys.iter().map(|(f, _)| layout.def(*f).bits as u64).sum();
        let data_bits: u64 = t.param_widths.iter().map(|&w| w as u64).sum();
        const ACTION_ID_BITS: u64 = 8;
        if t.is_exact() {
            let sram = t.entries.len() as u64 * (key_bits + ACTION_ID_BITS + data_bits);
            TableUsage { sram_bits: sram, tcam_bits: 0, bus_bits: data_bits }
        } else {
            let mut rules: u64 = 0;
            for e in &t.entries {
                let mut per_entry: u64 = 1;
                for (part, (f, _)) in e.keys.iter().zip(t.keys.iter()) {
                    per_entry = per_entry
                        .saturating_mul(part.tcam_expansion_reference(layout.def(*f).bits));
                }
                rules = rules.saturating_add(per_entry);
            }
            let tcam = rules.saturating_mul(2 * key_bits);
            let sram = t.entries.len() as u64 * (ACTION_ID_BITS + data_bits);
            TableUsage { sram_bits: sram, tcam_bits: tcam, bus_bits: data_bits }
        }
    }

    /// `allocate_stages` as it was: conflicts found by nested `contains`.
    fn allocate_stages_reference(
        tables: &[Table],
        usages: &[TableUsage],
        config: &SwitchConfig,
    ) -> Result<(Vec<usize>, usize), DeployError> {
        let n = tables.len();
        let mut stage_of = vec![0usize; n];
        let mut free_sram: Vec<u64> = Vec::new();
        let mut free_tcam: Vec<u64> = Vec::new();
        let mut free_bus: Vec<u64> = Vec::new();
        let ensure_stage = |s: usize,
                            free_sram: &mut Vec<u64>,
                            free_tcam: &mut Vec<u64>,
                            free_bus: &mut Vec<u64>| {
            while free_sram.len() <= s {
                free_sram.push(config.sram_bits_per_stage);
                free_tcam.push(config.tcam_bits_per_stage);
                free_bus.push(config.action_bus_bits_per_stage);
            }
        };

        let reads: Vec<Vec<FieldId>> = tables.iter().map(|t| t.reads()).collect();
        let writes: Vec<Vec<FieldId>> = tables.iter().map(|t| t.writes()).collect();

        for i in 0..n {
            let mut earliest = 0usize;
            for j in 0..i {
                let conflict = writes[j].iter().any(|f| reads[i].contains(f))
                    || reads[j].iter().any(|f| writes[i].contains(f))
                    || writes[j].iter().any(|f| writes[i].contains(f));
                if conflict {
                    earliest = earliest.max(stage_of[j] + 1);
                }
            }
            let mut s = earliest;
            let (mut need_sram, mut need_tcam) = (usages[i].sram_bits, usages[i].tcam_bits);
            loop {
                ensure_stage(s, &mut free_sram, &mut free_tcam, &mut free_bus);
                let take_sram = need_sram.min(free_sram[s]);
                let take_tcam = need_tcam.min(free_tcam[s]);
                free_sram[s] -= take_sram;
                free_tcam[s] -= take_tcam;
                need_sram -= take_sram;
                need_tcam -= take_tcam;
                if need_sram == 0 && need_tcam == 0 {
                    // Bus must fit in the final stage; spill once more if not.
                    if usages[i].bus_bits <= free_bus[s] {
                        free_bus[s] -= usages[i].bus_bits;
                        break;
                    }
                }
                s += 1;
                if s > 4 * config.stages {
                    return Err(DeployError::OutOfStages { needed: s, available: config.stages });
                }
            }
            stage_of[i] = s;
        }
        let stages_used = stage_of.iter().map(|&s| s + 1).max().unwrap_or(0);
        Ok((stage_of, stages_used))
    }

    /// `check_resources` as it was, over the two references above.
    fn check_resources_reference(
        p: &SwitchProgram,
        config: &SwitchConfig,
    ) -> Result<(Vec<usize>, usize), DeployError> {
        let phv_used = p.layout.total_bits();
        if phv_used > config.phv_bits {
            return Err(DeployError::PhvOverflow { used: phv_used, capacity: config.phv_bits });
        }
        for r in &p.registers {
            if !config.supports_register_width(r.width_bits) {
                return Err(DeployError::BadRegisterWidth {
                    register: r.name.clone(),
                    width: r.width_bits,
                });
            }
        }
        let reg_bits: u64 = p.registers.iter().map(|r| r.total_bits()).sum();
        if reg_bits > config.register_bits_total {
            return Err(DeployError::RegisterOverflow {
                used: reg_bits,
                capacity: config.register_bits_total,
            });
        }
        let usages: Vec<TableUsage> =
            p.tables.iter().map(|t| usage_reference(t, &p.layout)).collect();
        for (t, u) in p.tables.iter().zip(usages.iter()) {
            if u.bus_bits > config.action_bus_bits_per_stage {
                return Err(DeployError::BusOverflow {
                    table: t.name.clone(),
                    used: u.bus_bits,
                    capacity: config.action_bus_bits_per_stage,
                });
            }
        }
        let sram_total: u64 = usages.iter().map(|u| u.sram_bits).sum();
        let tcam_total: u64 = usages.iter().map(|u| u.tcam_bits).sum();
        if sram_total > config.total_sram_bits() {
            return Err(DeployError::SramOverflow {
                used: sram_total,
                capacity: config.total_sram_bits(),
            });
        }
        if tcam_total > config.total_tcam_bits() {
            return Err(DeployError::TcamOverflow {
                used: tcam_total,
                capacity: config.total_tcam_bits(),
            });
        }
        let (stage_of, stages_used) = allocate_stages_reference(&p.tables, &usages, config)?;
        let total_stages = stages_used + p.extra_stages;
        if total_stages > config.stages {
            return Err(DeployError::OutOfStages {
                needed: total_stages,
                available: config.stages,
            });
        }
        Ok((stage_of, total_stages))
    }

    /// A seeded, structurally sound program: up to 150 fields (so field
    /// bitsets span several words), up to 12 tables of mixed key kinds
    /// whose actions read and write random fields, entries inside their
    /// fields' widths.
    fn random_program(seed: u64) -> SwitchProgram {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % n.max(1)
        };
        let mut layout = PhvLayout::new();
        let nfields = 1 + next(150) as usize;
        let fields: Vec<FieldId> =
            (0..nfields).map(|i| layout.add_field(&format!("f{i}"), 1 + next(32) as u8)).collect();
        let bits: Vec<u8> = fields.iter().map(|&f| layout.def(f).bits).collect();
        let mut p = SwitchProgram::new("random", layout);
        p.extra_stages = next(3) as usize;
        for ti in 0..1 + next(12) {
            let keys: Vec<(FieldId, MatchKind)> = (0..next(4))
                .map(|_| {
                    let kind =
                        [MatchKind::Exact, MatchKind::Ternary, MatchKind::Range][next(3) as usize];
                    (fields[next(nfields as u64) as usize], kind)
                })
                .collect();
            let mut t = Table::new(&format!("t{ti}"), keys.clone());
            t.param_widths = (0..next(5)).map(|_| 1 + next(32) as u8).collect();
            for _ in 0..1 + next(3) {
                let mut a = Action::new("a");
                for _ in 0..1 + next(4) {
                    let mut operand = || match next(3) {
                        0 => Operand::Field(fields[next(nfields as u64) as usize]),
                        1 => Operand::Const(next(100) as i64),
                        _ => Operand::Param(0),
                    };
                    let (x, y) = (operand(), operand());
                    let dst = fields[next(nfields as u64) as usize];
                    a.ops.push(if next(2) == 0 {
                        AluOp::Set { dst, a: x }
                    } else {
                        AluOp::Add { dst, a: x, b: y }
                    });
                }
                t.add_action(a);
            }
            for _ in 0..next(40) {
                let parts = keys
                    .iter()
                    .map(|&(f, kind)| {
                        let mask = mask_of(bits[f.0]);
                        let (x, y) = (next(1 << 32) & mask, next(1 << 32) & mask);
                        match kind {
                            MatchKind::Exact => KeyPart::Exact(x),
                            MatchKind::Ternary => {
                                KeyPart::Ternary(TernaryKey { value: x & y, mask: y })
                            }
                            MatchKind::Range => KeyPart::Range { lo: x.min(y), hi: x.max(y) },
                        }
                    })
                    .collect();
                t.entries.push(TableEntry {
                    keys: parts,
                    priority: 0,
                    action_idx: 0,
                    action_data: vec![],
                });
            }
            p.tables.push(t);
        }
        p
    }

    #[test]
    fn resource_accounting_matches_the_reference() {
        let mut outcomes = std::collections::BTreeMap::new();
        for seed in 0..400 {
            let p = random_program(seed);
            let usages: Vec<TableUsage> = p.tables.iter().map(|t| t.usage(&p.layout)).collect();
            let reference: Vec<TableUsage> =
                p.tables.iter().map(|t| usage_reference(t, &p.layout)).collect();
            assert_eq!(usages, reference, "seed {seed}");
            let tiny = |stages: usize, shift: u32| SwitchConfig {
                stages,
                sram_bits_per_stage: 64 << shift,
                tcam_bits_per_stage: 64 << shift,
                action_bus_bits_per_stage: 32 << shift,
                phv_bits: 256 << shift,
                ..SwitchConfig::tiny_test()
            };
            let narrow_bus =
                SwitchConfig { action_bus_bits_per_stage: 48, ..SwitchConfig::tofino2() };
            let configs = [
                SwitchConfig::tofino2(),
                SwitchConfig::tiny_test(),
                tiny(2, 4),
                tiny(8, 8),
                narrow_bus,
            ];
            for cfg in &configs {
                assert_eq!(
                    allocate_stages(&p.tables, &usages, cfg),
                    allocate_stages_reference(&p.tables, &usages, cfg),
                    "seed {seed} on {}",
                    cfg.name
                );
                let want = check_resources_reference(&p, cfg);
                assert_eq!(p.check_resources(cfg), want, "seed {seed} on {}", cfg.name);
                let fit = p.fit(cfg).map(|(stage_of, stages, used)| {
                    assert_eq!(used, usages, "deploy keeps the accounted usages");
                    (stage_of, stages)
                });
                assert_eq!(fit, want);
                let outcome = match want {
                    Ok(_) => "fits".to_string(),
                    Err(e) => format!("{e:?}").split([' ', '{']).next().unwrap_or("").to_string(),
                };
                *outcomes.entry(outcome).or_insert(0) += 1;
            }
        }
        // The seeds reach a fit and every failure the allocation shapes.
        for kind in
            ["fits", "PhvOverflow", "OutOfStages", "SramOverflow", "TcamOverflow", "BusOverflow"]
        {
            assert!(outcomes.contains_key(kind), "no seed reached {kind}: {outcomes:?}");
        }
    }

    #[test]
    fn one_program_serves_independent_register_files() {
        // A stateful program: counter register incremented per packet.
        let mut layout = PhvLayout::new();
        let x = layout.add_field("x", 8);
        let old = layout.add_field("old", 16);
        let mut t = Table::new("count", vec![]);
        let a = t.add_action(Action::new("incr").with(AluOp::RegIncrSat {
            dst: old,
            reg: crate::action::RegId(0),
            index: Operand::Field(x),
            by: 1,
            max: 1000,
        }));
        t.default_action = Some((a, vec![]));
        let mut p = SwitchProgram::new("stateful", layout);
        p.registers.push(RegisterArray::new("cnt", 16, 16));
        p.tables.push(t);

        // The program is shared; each caller's state is its own file.
        let p = Arc::new(p);
        let loaded = Arc::clone(&p).deploy(&SwitchConfig::tofino2()).unwrap();
        assert!(Arc::ptr_eq(&p, loaded.program()), "deploy keeps the caller's tables");
        let (mut busy, mut idle) = (RegFile::new(&p.registers), RegFile::new(&p.registers));
        for i in 0..20 {
            let phv = loaded.process(&[(x, i % 4)], &mut busy);
            assert_eq!(phv.get(old), i / 4, "packet {i} reads its slot's previous count");
        }
        assert_eq!(loaded.process(&[(x, 0)], &mut idle).get(old), 0, "untouched file stays zero");
        assert_eq!(loaded.process(&[(x, 0)], &mut busy).get(old), 5);
    }
}
