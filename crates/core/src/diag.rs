//! Structured diagnostics shared by every static checker in the
//! workspace: the legality/validation shims in this crate and the
//! independent `essent-verify` subsystem (netlist lints, schedule
//! verifier, bytecode verifier).
//!
//! Every finding carries a **stable code** ([`DiagCode`], rendered like
//! `V0102-trigger-missing`), a severity, a human-readable message, and
//! the offending signal/partition when known, so tooling can match on
//! codes instead of scraping strings. The full code table lives in
//! [`codes`] and is documented in the README.

use std::fmt;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; never fails a check.
    Info,
    /// Suspicious but not soundness-breaking (lints).
    Warning,
    /// An invariant violation: the artifact must not be executed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A stable diagnostic code: a short machine id (`"V0102"`) plus a
/// kebab-case slug (`"trigger-missing"`). Codes are append-only — once
/// shipped, an id keeps its meaning forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DiagCode {
    pub id: &'static str,
    pub slug: &'static str,
}

impl DiagCode {
    /// Defines a code. Use the constants in [`codes`] rather than
    /// minting ad-hoc codes.
    pub const fn new(id: &'static str, slug: &'static str) -> DiagCode {
        DiagCode { id, slug }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.id, self.slug)
    }
}

/// The stable code table. Families: `L____` netlist lints, `V____`
/// schedule (plan) invariants, `B____` compiled bytecode invariants,
/// `F____` cost-table invariants, `R____` footprint / race-freedom
/// invariants, `S____` dependence / dataflow-schedule invariants,
/// `M____` testbench memory references, `J____` native-code emission
/// invariants, `X____` wake-table and batched-lane invariants (`P____`
/// is retired).
pub mod codes {
    use super::DiagCode;

    // --- L: netlist lints -------------------------------------------------
    /// The combinational graph contains a cycle (named minimally).
    pub const COMB_LOOP: DiagCode = DiagCode::new("L0001", "comb-loop");
    /// A register has no reset path: its power-on value is undefined.
    pub const UNRESET_REGISTER: DiagCode = DiagCode::new("L0002", "unreset-register");
    /// A copy/connect narrows a signal, dropping high bits.
    pub const WIDTH_TRUNCATION: DiagCode = DiagCode::new("L0003", "width-truncation");
    /// A signal is unreachable from every sink (dead code).
    pub const DEAD_SIGNAL: DiagCode = DiagCode::new("L0004", "dead-signal");
    /// A memory write port field has inconsistent width.
    pub const MEM_FIELD_WIDTH: DiagCode = DiagCode::new("L0005", "mem-field-width");
    /// Dataflow analysis proves a signal's upper bits never carry
    /// information (always zero / sign copies): the declared width is
    /// wider than the values that flow through it.
    pub const DEAD_UPPER_BITS: DiagCode = DiagCode::new("L0006", "dead-upper-bits");
    /// A comparison whose outcome is decided at compile time by the
    /// operands' known bits/ranges (always true or always false).
    pub const CONST_COMPARISON: DiagCode = DiagCode::new("L0007", "const-comparison");
    /// A register whose value provably never leaves its reset value.
    pub const CONST_REGISTER: DiagCode = DiagCode::new("L0008", "const-register");
    /// A mux whose selector is pinned: one way can never be taken.
    pub const UNREACHABLE_MUX_WAY: DiagCode = DiagCode::new("L0009", "unreachable-mux-way");

    // --- V: schedule / plan invariants ------------------------------------
    /// A computed signal is in no scheduled partition.
    pub const COVER_MISSING: DiagCode = DiagCode::new("V0101", "cover-missing");
    /// A cross-partition edge has no registered wake-up trigger.
    pub const TRIGGER_MISSING: DiagCode = DiagCode::new("V0102", "trigger-missing");
    /// The partition graph (with ordering edges) has a cycle.
    pub const PARTITION_CYCLE: DiagCode = DiagCode::new("V0103", "partition-cycle");
    /// Evaluation order violates dependency order (across partitions or
    /// within a partition's member list).
    pub const TOPO_ORDER: DiagCode = DiagCode::new("V0104", "topo-order");
    /// A node/signal is covered by more than one partition.
    pub const DOUBLE_COVER: DiagCode = DiagCode::new("V0105", "double-cover");
    /// An elided state update could be observed by a later-scheduled
    /// reader within the same cycle.
    pub const UNSAFE_ELISION: DiagCode = DiagCode::new("V0106", "unsafe-elision");
    /// An external input's wake list misses a reader partition.
    pub const INPUT_WAKE_MISSING: DiagCode = DiagCode::new("V0107", "input-wake-missing");
    /// A register/memory change wake list misses a reader partition.
    pub const STATE_WAKE_MISSING: DiagCode = DiagCode::new("V0108", "state-wake-missing");
    /// `sched_of_signal` disagrees with the member lists.
    pub const MEMBER_MISPLACED: DiagCode = DiagCode::new("V0109", "member-misplaced");
    /// A trigger consumer index is outside the schedule.
    pub const CONSUMER_RANGE: DiagCode = DiagCode::new("V0110", "consumer-range");
    /// The node→partition assignment references a dead partition.
    pub const DEAD_PARTITION: DiagCode = DiagCode::new("V0111", "dead-partition");

    // --- B: compiled bytecode invariants ----------------------------------
    /// An `ArgRef` reads outside the arena or its signal's slot.
    pub const ARG_OUT_OF_BOUNDS: DiagCode = DiagCode::new("B0201", "arg-out-of-bounds");
    /// A `DstRef` writes outside the arena or its signal's slot.
    pub const DST_OUT_OF_BOUNDS: DiagCode = DiagCode::new("B0202", "dst-out-of-bounds");
    /// A step's width/signedness disagrees with the netlist signal.
    pub const WIDTH_MISMATCH: DiagCode = DiagCode::new("B0203", "width-mismatch");
    /// A step reads a computed value before the step defining it.
    pub const DEF_BEFORE_USE: DiagCode = DiagCode::new("B0204", "def-before-use");
    /// A `MemRead` step names a memory/port that does not exist.
    pub const MEM_INDEX: DiagCode = DiagCode::new("B0205", "mem-index");
    /// A computed signal was never compiled to a step.
    pub const STEP_MISSING: DiagCode = DiagCode::new("B0206", "step-missing");
    /// A computed signal was compiled more than once.
    pub const STEP_DUPLICATE: DiagCode = DiagCode::new("B0207", "step-duplicate");
    /// Two signals' arena slots overlap.
    pub const LAYOUT_OVERLAP: DiagCode = DiagCode::new("B0208", "layout-overlap");
    /// A step's operand count/order disagrees with its defining op.
    pub const ARG_ARITY: DiagCode = DiagCode::new("B0209", "arg-arity");
    /// A word-specialized (tier-1) instruction decodes differently from
    /// the block item or register commit it lowers — wrong opcode,
    /// operand offset, sign-extension shift, mask, or immediate — or the
    /// program ends before the block's commits do.
    pub const TIER_DECODE: DiagCode = DiagCode::new("B0210", "tier-decode");
    /// A fused trigger write or register commit disagrees with the
    /// plan's trigger map: missing or spurious fusion, a consumer list
    /// mismatch, or a commit that is neither an instruction nor listed
    /// unabsorbed (or is both).
    pub const TIER_FUSE: DiagCode = DiagCode::new("B0211", "tier-fuse");
    /// Tier-1 control flow is malformed: a jump is backward or out of
    /// bounds, or a conditional-mux diamond has the wrong shape.
    pub const TIER_FLOW: DiagCode = DiagCode::new("B0212", "tier-flow");

    // --- P: profiler wiring invariants ------------------------------------
    // P0301 (profile-unit-count), P0302 (profile-misattribution), P0303
    // (profile-slot-alias) and P0304 (profile-slot-range) audited the
    // profiler's slot table. The profiler now indexes its counters by the
    // plan's own numbering, so there is no table to audit and the layer
    // went with it; the numbers are not reused.

    // --- F: cost-model invariants -----------------------------------------
    // F0401 (activity-side-condition) replayed the profile-guided
    // repartitioning's merge log and went with it; F0402 (bin-cover)
    // audited the barrier-per-level LPT schedule and went with it. The
    // numbers are not reused.
    /// The per-partition cost table is malformed: wrong cardinality or a
    /// non-positive entry (a zero cost makes the partition free to the
    /// dataflow worker assignment and invisible to JIT selection).
    pub const COST_RANGE: DiagCode = DiagCode::new("F0403", "cost-range");

    // --- R: footprint / race-freedom invariants ----------------------------
    /// The read/write footprint derived from a partition's generic
    /// `Block` bytecode disagrees with the footprint independently
    /// re-derived from its lowered `Tier1Program` instruction stream.
    pub const FOOTPRINT_TIER_MISMATCH: DiagCode = DiagCode::new("R0501", "footprint-tier-mismatch");
    /// Two partitions of the plan write the same arena word: no schedule
    /// can make that word's value well defined (and under the parallel
    /// engine it is a write/write data race).
    pub const FOOTPRINT_WRITE_WRITE: DiagCode = DiagCode::new("R0502", "footprint-write-write");
    // R0503 (footprint-write-read) was a property of the barrier-per-level
    // schedule and went with it: a write one partition makes and another
    // reads must be ordered by a wait edge, which S0601 demands. The
    // number is not reused.
    /// A partition's derived write set escapes its declared arena range
    /// (the slots of its member signals plus the out-slots of registers
    /// it legally commits), or falls outside the arena entirely.
    pub const FOOTPRINT_ESCAPE: DiagCode = DiagCode::new("R0504", "footprint-escape");

    // --- S: dependence / dataflow-schedule invariants -----------------------
    /// A true cross-partition dependence (word-level footprint overlap
    /// or a trigger-flag wake) has no covering wait edge in the
    /// synthesized dataflow schedule: the two partitions could run
    /// unordered in the same cycle.
    pub const DEP_EDGE_UNCOVERED: DiagCode = DiagCode::new("S0601", "dep-edge-uncovered");
    /// A partition marked exempt from the serial-phase barrier actually
    /// overlaps the serial phase's footprint (registers committed,
    /// memory banks written, stop/printf inputs read) — the claimed
    /// cycle-boundary overlap would race the serial phase.
    pub const FABRICATED_OVERLAP: DiagCode = DiagCode::new("S0602", "fabricated-overlap");
    /// The dataflow schedule's same-cycle wait graph (wait edges plus
    /// per-worker list order) contains a cycle: the runtime would
    /// deadlock.
    pub const SCHEDULE_CYCLE: DiagCode = DiagCode::new("S0603", "schedule-cycle");
    /// An exempt partition can start cycle `k+1` before a partition it
    /// conflicts with has finished cycle `k`: a required cross-cycle
    /// wait (`waits_prev`) is missing.
    pub const MISSING_CROSS_CYCLE_COVER: DiagCode =
        DiagCode::new("S0604", "missing-cross-cycle-cover");
    /// The worker lists are not an exact, schedule-order-ascending cover
    /// of the partitions, or the schedule's index maps / wait targets
    /// are inconsistent with them.
    pub const WORKER_COVER: DiagCode = DiagCode::new("S0605", "worker-cover");

    // --- M: testbench memory-reference errors -------------------------------
    /// A testbench back-door memory access named a memory that does not
    /// exist in the netlist.
    pub const MEM_REF_UNKNOWN: DiagCode = DiagCode::new("M0001", "unknown-mem-ref");
    /// A testbench back-door memory access addressed at or beyond the
    /// memory's depth.
    pub const MEM_REF_RANGE: DiagCode = DiagCode::new("M0002", "mem-addr-range");

    // --- J: tier-2 JIT emission invariants ----------------------------------
    /// The emitted native stream fails to decode under the emitter's
    /// closed encoding subset, or its prologue/epilogue is malformed.
    pub const JIT_DECODE: DiagCode = DiagCode::new("J0701", "jit-decode");
    /// A decoded arena load/store offset disagrees with the `Inst1`
    /// source's operand/destination slots (the in-arena footprint).
    pub const JIT_OPERAND: DiagCode = DiagCode::new("J0702", "jit-operand");
    /// Compiled control flow is malformed: a branch is backward, lands
    /// outside the stream, or a mux diamond / guard has the wrong shape.
    pub const JIT_FLOW: DiagCode = DiagCode::new("J0703", "jit-flow");
    /// A fused flag-sink site disagrees with the program's consumer
    /// table: a wake store is missing, spurious, or hits the wrong flag.
    pub const JIT_FUSE: DiagCode = DiagCode::new("J0704", "jit-fuse");

    // --- X: wake-table and batched-lane invariants ---------------------------
    /// A watched range is misplaced: an unfused output of the front end's
    /// wake table lies outside its partition's derived write footprint,
    /// or the batch engine's stride geometry is inconsistent (lane count
    /// out of mask range, stride ≠ lanes, arena/scratch sized off the
    /// layout).
    pub const BATCH_STRIDE: DiagCode = DiagCode::new("X0801", "batch-stride");
    /// The wake routing the engines run from (wake-table outputs ∪ fused
    /// instruction ranges; `Commit` instructions ∪ state-table entries;
    /// input wakes) disagrees with the plan's consumer sets — a change
    /// would wake the wrong partitions.
    pub const WAKE_ROUTE: DiagCode = DiagCode::new("X0802", "wake-route");
    /// The lane compaction permutation is not a bijection or its two
    /// directions disagree — a logical lane has been lost or duplicated
    /// by a remap.
    pub const BATCH_LANE_PERM: DiagCode = DiagCode::new("X0803", "batch-lane-perm");
    /// A lane's memory bank shapes disagree with the netlist's memory
    /// declarations.
    pub const BATCH_BANK_SHAPE: DiagCode = DiagCode::new("X0804", "batch-bank-shape");
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: DiagCode,
    pub severity: Severity,
    pub message: String,
    /// Name of the offending signal, when one is identifiable.
    pub signal: Option<String>,
    /// Scheduled partition index involved, when one is identifiable.
    pub partition: Option<usize>,
}

impl Diagnostic {
    /// An error-severity finding.
    pub fn error(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            signal: None,
            partition: None,
        }
    }

    /// A warning-severity finding.
    pub fn warning(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// An info-severity finding.
    pub fn info(code: DiagCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Info,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches the offending signal name.
    pub fn with_signal(mut self, name: impl Into<String>) -> Diagnostic {
        self.signal = Some(name.into());
        self
    }

    /// Attaches the offending partition index.
    pub fn with_partition(mut self, partition: usize) -> Diagnostic {
        self.partition = Some(partition);
        self
    }
}

/// Lifts the interpreter's structured memory-reference error (defined in
/// `essent-netlist`, which sits below this crate and cannot name
/// [`Diagnostic`]) into a coded finding, so testbench harnesses surface
/// bad back-door accesses with the same machinery as the verifier.
impl From<essent_netlist::interp::MemRefError> for Diagnostic {
    fn from(e: essent_netlist::interp::MemRefError) -> Diagnostic {
        use essent_netlist::interp::MemRefError;
        match &e {
            MemRefError::NoSuchMem { mem } => {
                Diagnostic::error(codes::MEM_REF_UNKNOWN, e.to_string()).with_signal(mem.clone())
            }
            MemRefError::AddrOutOfRange { mem, .. } => {
                Diagnostic::error(codes::MEM_REF_RANGE, e.to_string()).with_signal(mem.clone())
            }
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)?;
        if let Some(s) = &self.signal {
            write!(f, " (signal `{s}`)")?;
        }
        if let Some(p) = self.partition {
            write!(f, " (partition {p})")?;
        }
        Ok(())
    }
}

/// An ordered collection of findings from one checker run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every finding of another report.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of findings (all severities).
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// `true` when no error-severity finding is present (warnings and
    /// infos do not fail a check).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` when some finding carries `code`.
    pub fn contains(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct codes present, in first-seen order.
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut out: Vec<DiagCode> = Vec::new();
        for d in &self.diagnostics {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        writeln!(
            f,
            "{} finding(s): {} error(s), {} warning(s)",
            self.len(),
            self.error_count(),
            warnings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_render_stably() {
        assert_eq!(codes::TRIGGER_MISSING.to_string(), "V0102-trigger-missing");
        assert_eq!(codes::COMB_LOOP.to_string(), "L0001-comb-loop");
        assert_eq!(
            codes::ARG_OUT_OF_BOUNDS.to_string(),
            "B0201-arg-out-of-bounds"
        );
    }

    #[test]
    fn mem_ref_errors_lift_to_diagnostics() {
        use essent_netlist::interp::MemRefError;
        let d: Diagnostic = MemRefError::NoSuchMem { mem: "imem".into() }.into();
        assert_eq!(d.code, codes::MEM_REF_UNKNOWN);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.signal.as_deref(), Some("imem"));
        let d: Diagnostic = MemRefError::AddrOutOfRange {
            mem: "m".into(),
            addr: 9,
            depth: 2,
        }
        .into();
        assert_eq!(d.code, codes::MEM_REF_RANGE);
        assert!(d.message.contains('9') && d.message.contains("depth 2"));
    }

    #[test]
    fn report_severity_accounting() {
        let mut r = Report::new();
        assert!(r.is_clean() && r.is_empty());
        r.push(Diagnostic::warning(codes::DEAD_SIGNAL, "unused").with_signal("x"));
        assert!(r.is_clean(), "warnings alone stay clean");
        r.push(
            Diagnostic::error(codes::TRIGGER_MISSING, "missing wake")
                .with_partition(3)
                .with_signal("y"),
        );
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert!(r.contains(codes::TRIGGER_MISSING));
        assert!(!r.contains(codes::COMB_LOOP));
        assert_eq!(r.codes().len(), 2);
        let rendered = r.to_string();
        assert!(rendered.contains("partition 3") && rendered.contains("`y`"));
    }
}
