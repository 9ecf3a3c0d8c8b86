//! Functional execution and dynamic instruction traces.
//!
//! This crate turns a [`fetchvp_isa::Program`] into the *dynamic instruction
//! stream* that every analysis and machine model in the workspace consumes.
//! It plays the role that the Sun *Shade* tracer plays in the paper's
//! trace-driven methodology (§3): a purely functional,
//! implementation-independent executor that records, for each retired
//! instruction, its PC, its operands, the value it produced and its
//! control-flow outcome. The captured stream is stored columnar
//! ([`TraceColumns`]) so the §3 ideal machine, the §5 realistic machines and
//! the §3.3 DID analysis can iterate it zero-copy through [`TraceView`] /
//! [`Slot`] accessors.
//!
//! The main entry points are:
//!
//! * [`Executor`] — a stepping functional simulator (architectural registers
//!   plus a sparse word-addressed memory).
//! * [`Trace`] / [`trace_program`] — capture the dynamic stream into memory
//!   for repeated consumption by different machine configurations.
//! * [`TraceStats`] — instruction-mix and control-flow statistics used when
//!   validating that the synthetic workloads resemble their SPECint95
//!   counterparts.
//! * [`BasicBlocks`] — static basic-block discovery used by the trace cache.
//! * [`io`] — the tagged instruction encoding inside the `.fvps` trace
//!   files of `fetchvp-tracestore` (the Shade-style workflow: capture
//!   once, simulate many times).
//!
//! # Example
//!
//! ```
//! use fetchvp_isa::{AluOp, Cond, ProgramBuilder, Reg};
//! use fetchvp_trace::trace_program;
//!
//! # fn main() -> Result<(), fetchvp_isa::ProgramError> {
//! let mut b = ProgramBuilder::new("sum");
//! b.load_imm(Reg::R1, 0);
//! b.load_imm(Reg::R2, 3);
//! let head = b.bind_label("head");
//! b.alu_imm(AluOp::Sub, Reg::R2, Reg::R2, 1);
//! b.alu(AluOp::Add, Reg::R1, Reg::R1, Reg::R2);
//! b.branch(Cond::Ne, Reg::R2, Reg::R0, head);
//! b.halt();
//! let trace = trace_program(&b.build()?, 1_000);
//! assert_eq!(trace.len(), 2 + 3 * 3); // prologue + three iterations
//! # Ok(())
//! # }
//! ```

// Public API of the hot path: every item must explain itself.
#![deny(missing_docs)]

pub mod bb;
pub mod columns;
pub mod exec;
pub mod io;
pub mod memory;
pub mod record;
pub mod stats;

pub use bb::{BasicBlocks, BlockId};
pub use columns::{PreparedInstr, Slot, TraceColumns, TraceView, NO_REG};
pub use exec::{ExecOutcome, Executor};
pub use memory::SparseMemory;
pub use record::DynInstr;
pub use stats::{StatsAccum, TraceStats};

use fetchvp_isa::Program;

/// A captured dynamic instruction stream.
///
/// A `Trace` stores the retired instructions of one program execution in
/// columnar ([`TraceColumns`]) form. The instruction at index `i` has
/// sequence number `i`. Hot paths iterate zero-copy through
/// [`Trace::view`]/[`Slot`]; cold paths can materialize [`DynInstr`]
/// records with [`Trace::get`] or [`Trace::iter`].
///
/// # Example
///
/// ```
/// use fetchvp_isa::{ProgramBuilder, Reg};
/// use fetchvp_trace::trace_program;
///
/// # fn main() -> Result<(), fetchvp_isa::ProgramError> {
/// let mut b = ProgramBuilder::new("p");
/// b.load_imm(Reg::R1, 7);
/// b.halt();
/// let trace = trace_program(&b.build()?, 10);
/// assert_eq!(trace.name(), "p");
/// assert_eq!(trace.view().slot(0).result(), 7); // zero-copy
/// assert_eq!(trace.get(0).result, 7); // materialized
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    columns: TraceColumns,
    outcome: ExecOutcome,
}

impl Trace {
    /// Builds a trace from records. Records must be in retirement order;
    /// the record at index `i` must have `seq == i`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if record sequence numbers are not dense.
    pub fn from_records(
        name: impl Into<String>,
        records: Vec<DynInstr>,
        outcome: ExecOutcome,
    ) -> Trace {
        debug_assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));
        Trace { name: name.into(), columns: TraceColumns::from_records(&records), outcome }
    }

    /// Builds a trace directly from a column store.
    pub fn from_columns(
        name: impl Into<String>,
        columns: TraceColumns,
        outcome: ExecOutcome,
    ) -> Trace {
        Trace { name: name.into(), columns, outcome }
    }

    /// The traced program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of dynamic instructions.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the trace contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The underlying column store.
    pub fn columns(&self) -> &TraceColumns {
        &self.columns
    }

    /// A zero-copy view over the trace — the machine models' iteration
    /// surface.
    #[inline]
    pub fn view(&self) -> TraceView<'_> {
        self.columns.view()
    }

    /// The zero-copy accessor for instruction `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[inline]
    pub fn slot(&self, index: usize) -> Slot<'_> {
        self.columns.slot(index)
    }

    /// Materializes the record at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> DynInstr {
        self.columns.to_record(index)
    }

    /// How execution ended.
    pub fn outcome(&self) -> ExecOutcome {
        self.outcome
    }

    /// Iterates over the trace, materializing each record by value.
    ///
    /// Cold-path convenience; hot paths should iterate
    /// [`Trace::view`] slots instead.
    pub fn iter(&self) -> TraceRecords<'_> {
        TraceRecords { view: self.view(), range: 0..self.len() }
    }

    /// Computes summary statistics over the trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_view(self.view())
    }

    /// Splits the trace at `index` into a prefix and a re-sequenced suffix
    /// — the train/evaluate workflow of profiling studies.
    ///
    /// Dynamic instruction distances within each half are preserved (both
    /// halves are re-numbered densely from zero).
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds the trace length.
    pub fn split_at(&self, index: usize) -> (Trace, Trace) {
        assert!(index <= self.len(), "split index {index} beyond {} records", self.len());
        (
            Trace::from_columns(
                self.name.clone(),
                self.columns.slice(0..index),
                ExecOutcome::LimitReached,
            ),
            Trace::from_columns(
                self.name.clone(),
                self.columns.slice(index..self.len()),
                self.outcome,
            ),
        )
    }
}

/// A materializing iterator over a trace's records (see [`Trace::iter`]).
#[derive(Debug, Clone)]
pub struct TraceRecords<'a> {
    view: TraceView<'a>,
    range: std::ops::Range<usize>,
}

impl Iterator for TraceRecords<'_> {
    type Item = DynInstr;

    fn next(&mut self) -> Option<DynInstr> {
        self.range.next().map(|i| self.view.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for TraceRecords<'_> {}

impl DoubleEndedIterator for TraceRecords<'_> {
    fn next_back(&mut self) -> Option<DynInstr> {
        self.range.next_back().map(|i| self.view.get(i))
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = DynInstr;
    type IntoIter = TraceRecords<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Executes `program` for at most `max_instrs` dynamic instructions and
/// captures the resulting trace.
///
/// Records stream straight into columnar storage; no intermediate record
/// vector is built. This is the convenience path used by experiments; use
/// [`Executor`] directly for streaming consumption.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn trace_program(program: &Program, max_instrs: u64) -> Trace {
    let mut exec = Executor::new(program);
    let mut columns = TraceColumns::new();
    // Static facts (flags, register bytes, intern index) depend only on the
    // PC; prepare each static instruction on first retirement and reuse the
    // result for every later dynamic instance.
    let mut prepared: Vec<Option<columns::PreparedInstr>> = vec![None; program.len()];
    while (columns.len() as u64) < max_instrs {
        match exec.step() {
            Some(rec) => {
                let slot = &mut prepared[rec.pc as usize];
                let p = match *slot {
                    Some(p) => p,
                    None => *slot.insert(columns.prepare(rec.instr)),
                };
                columns.push_prepared(p, rec.pc, rec.next_pc, rec.result, rec.mem_addr, rec.taken);
            }
            None => break,
        }
    }
    let outcome = if exec.halted() { ExecOutcome::Halted } else { ExecOutcome::LimitReached };
    Trace::from_columns(program.name(), columns, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchvp_isa::{ProgramBuilder, Reg};

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        b.load_imm(Reg::R1, 1);
        b.load_imm(Reg::R2, 2);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn trace_program_reaches_halt() {
        let t = trace_program(&tiny(), 100);
        assert_eq!(t.len(), 2);
        assert_eq!(t.outcome(), ExecOutcome::Halted);
    }

    #[test]
    fn trace_program_respects_limit() {
        let t = trace_program(&tiny(), 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.outcome(), ExecOutcome::LimitReached);
    }

    #[test]
    fn records_have_dense_sequence_numbers() {
        let t = trace_program(&tiny(), 100);
        for (i, r) in t.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn into_iterator_yields_all_records() {
        let t = trace_program(&tiny(), 100);
        assert_eq!((&t).into_iter().count(), t.len());
    }

    #[test]
    fn split_at_re_sequences_the_suffix() {
        let t = trace_program(&tiny(), 100);
        let (a, b) = t.split_at(1);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0).seq, 0);
        assert_eq!(b.get(0).pc, t.get(1).pc);
        assert_eq!(b.outcome(), t.outcome());
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn split_past_the_end_panics() {
        trace_program(&tiny(), 100).split_at(99);
    }
}
