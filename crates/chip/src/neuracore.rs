//! NeuraCore: the multiplication engine (Figure 6).
//!
//! A NeuraCore is a simple in-order core with several independent pipelines.
//! Each pipeline walks the Figure-6 sequence for one `MMH` instruction:
//! decode, register allocation, operand fetch from HBM (through the tile's
//! memory controller), partial-product computation, and finally dispatch of
//! one `HACC` instruction per partial product toward the NeuraMems.
//!
//! The core interacts with the rest of the chip through explicit hand-offs:
//! [`NeuraCore::tick`] returns the memory requests it wants to issue and the
//! `HACC` instructions it produced this cycle; the accelerator forwards the
//! former to the memory controller and the latter onto the NoC, and calls
//! [`NeuraCore::memory_response`] when data returns.

use crate::compiler::Program;
use crate::config::NeuraCoreConfig;
use crate::isa::{HaccInstruction, MmhInstruction};
use neura_mem::MemoryRequest;
use neura_sim::{Cycle, Histogram};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Statistics exported by a NeuraCore.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NeuraCoreStats {
    /// MMH instructions accepted from the dispatcher.
    pub mmh_accepted: u64,
    /// MMH instructions fully executed.
    pub mmh_completed: u64,
    /// HACC instructions generated.
    pub haccs_generated: u64,
    /// Memory read requests issued.
    pub memory_requests: u64,
    /// Cycles in which at least one pipeline was waiting on memory.
    pub stall_cycles: u64,
    /// Cycles in which at least one pipeline did useful work.
    pub busy_cycles: u64,
    /// Cycles in which the whole core was idle.
    pub idle_cycles: u64,
    /// Cycles in which HACC output was blocked by NoC back-pressure.
    pub output_blocked_cycles: u64,
}

impl NeuraCoreStats {
    /// Cycles per completed MMH instruction.
    pub fn cpi(&self) -> f64 {
        if self.mmh_completed == 0 {
            0.0
        } else {
            (self.busy_cycles + self.stall_cycles + self.idle_cycles) as f64
                / self.mmh_completed as f64
        }
    }
}

/// A memory request produced by a pipeline, tagged with its origin so the
/// accelerator can route the response back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreMemoryRequest {
    /// Index of the pipeline that issued the request.
    pub pipeline: usize,
    /// The request itself.
    pub request: MemoryRequest,
}

/// How a core spent one tick — exactly one of the three, with the same
/// precedence the cycle counters use (`busy` wins over `stalled` wins
/// over `idle`). The profiler reads this off [`CoreTickOutput`] so stall
/// attribution never needs to diff the stats block mid-run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// At least one pipeline decoded or computed this cycle.
    Busy,
    /// Every active pipeline was waiting on outstanding memory responses.
    Stalled,
    /// No pipeline had work.
    #[default]
    Idle,
}

/// Output of one [`NeuraCore::tick`] call.
#[derive(Debug, Default)]
pub struct CoreTickOutput {
    /// Memory read requests to forward to the tile's memory controller.
    pub memory_requests: Vec<CoreMemoryRequest>,
    /// HACC instructions produced this cycle (already stamped with `generated_at`).
    pub haccs: Vec<HaccInstruction>,
    /// How the core spent the tick (mirrors the busy/stall/idle counters).
    pub outcome: TickOutcome,
    /// MMH instructions retired this tick (pipelines that finished Compute).
    pub mmh_retired: u32,
}

#[derive(Debug)]
enum PipelineState {
    Idle,
    Decode { instr: MmhInstruction, remaining: u64, started: u64 },
    WaitMem { instr: MmhInstruction, outstanding: usize, started: u64 },
    Compute { instr: MmhInstruction, produced: usize, started: u64 },
}

#[derive(Debug)]
struct Pipeline {
    state: PipelineState,
}

/// The NeuraCore multiplication engine.
#[derive(Debug)]
pub struct NeuraCore {
    id: usize,
    tile: usize,
    config: NeuraCoreConfig,
    instx: VecDeque<MmhInstruction>,
    pipelines: Vec<Pipeline>,
    /// Generated HACCs awaiting injection into the NoC (bounded by ports × 8).
    outbox: VecDeque<HaccInstruction>,
    stats: NeuraCoreStats,
    cpi_histogram: Histogram,
    next_pipeline: usize,
}

impl NeuraCore {
    /// Creates a NeuraCore belonging to tile `tile`.
    pub fn new(id: usize, tile: usize, config: NeuraCoreConfig) -> Self {
        let pipelines =
            (0..config.pipelines).map(|_| Pipeline { state: PipelineState::Idle }).collect();
        NeuraCore {
            id,
            tile,
            config,
            instx: VecDeque::new(),
            pipelines,
            outbox: VecDeque::new(),
            stats: NeuraCoreStats::default(),
            cpi_histogram: Histogram::new(25, 20),
            next_pipeline: 0,
        }
    }

    /// Unit identifier (index within the chip).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tile this core belongs to (selects the memory channel).
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// Prepares the core for a new program by clearing residual state.
    pub fn prepare(&mut self) {
        self.instx.clear();
        self.outbox.clear();
        for p in &mut self.pipelines {
            p.state = PipelineState::Idle;
        }
    }

    /// True when the instruction buffer can accept another MMH instruction.
    pub fn can_accept(&self) -> bool {
        self.instx.len() < self.config.instruction_buffer
    }

    /// Number of instructions waiting plus executing (dispatcher load metric).
    pub fn load(&self) -> usize {
        self.instx.len()
            + self.pipelines.iter().filter(|p| !matches!(p.state, PipelineState::Idle)).count()
    }

    /// Accepts an MMH instruction from the dispatcher.
    ///
    /// Returns `false` when the instruction buffer is full.
    pub fn accept(&mut self, instr: MmhInstruction) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.instx.push_back(instr);
        self.stats.mmh_accepted += 1;
        true
    }

    /// Notifies the core that one of pipeline `pipeline`'s memory requests
    /// completed.
    pub fn memory_response(&mut self, pipeline: usize) {
        if let Some(p) = self.pipelines.get_mut(pipeline) {
            if let PipelineState::WaitMem { outstanding, .. } = &mut p.state {
                *outstanding = outstanding.saturating_sub(1);
            }
        }
    }

    /// Core statistics.
    pub fn stats(&self) -> &NeuraCoreStats {
        &self.stats
    }

    /// Per-instruction cycle-count histogram (Figure 14).
    pub fn cpi_histogram(&self) -> &Histogram {
        &self.cpi_histogram
    }

    /// True when no instruction is buffered, executing, or waiting for output.
    pub fn is_idle(&self) -> bool {
        self.instx.is_empty()
            && self.outbox.is_empty()
            && self.pipelines.iter().all(|p| matches!(p.state, PipelineState::Idle))
    }

    /// Advances the core one cycle.
    ///
    /// `output_credit` bounds how many HACCs may be handed to the NoC this
    /// cycle (router injection back-pressure). Operands are read from
    /// `program`, the program the executing instructions belong to.
    pub fn tick(&mut self, now: Cycle, output_credit: usize, program: &Program) -> CoreTickOutput {
        let mut output = CoreTickOutput::default();
        let cycle = now.as_u64();
        let mut any_busy = false;
        let mut any_stalled = false;

        // Shared multiplier budget across pipelines for this cycle.
        let mut multiplier_budget = self.config.multipliers;
        // Outbox cap: allow a few cycles worth of buffering before blocking.
        let outbox_cap = self.config.ports * 8;

        let pipeline_count = self.pipelines.len();
        for offset in 0..pipeline_count {
            // Round-robin start index so pipeline 0 is not structurally favoured.
            let idx = (self.next_pipeline + offset) % pipeline_count;
            let pipeline = &mut self.pipelines[idx];
            match &mut pipeline.state {
                PipelineState::Idle => {
                    if let Some(instr) = self.instx.pop_front() {
                        pipeline.state =
                            PipelineState::Decode { instr, remaining: 1, started: cycle };
                        any_busy = true;
                    }
                }
                PipelineState::Decode { instr, remaining, started } => {
                    any_busy = true;
                    if *remaining > 0 {
                        *remaining -= 1;
                    } else {
                        // Issue the operand fetches: A data, B column indices,
                        // B data and the rolling counters (Algorithm 1).
                        let base = instr.base_addr as u64;
                        let requests = [
                            (instr.a_data_addr as u64, instr.work.a_len * 8),
                            (instr.b_col_ind_addr as u64, instr.work.b_len * 4),
                            (instr.b_data_addr as u64, instr.work.b_len * 8),
                            (instr.roll_counter_addr as u64, instr.hacc_count() * 4),
                        ];
                        for (addr, bytes) in requests {
                            output.memory_requests.push(CoreMemoryRequest {
                                pipeline: idx,
                                request: MemoryRequest::read(base + addr, bytes.max(4)),
                            });
                        }
                        self.stats.memory_requests += 4;
                        pipeline.state = PipelineState::WaitMem {
                            instr: *instr,
                            outstanding: 4,
                            started: *started,
                        };
                    }
                }
                PipelineState::WaitMem { instr, outstanding, started } => {
                    if *outstanding == 0 {
                        pipeline.state = PipelineState::Compute {
                            instr: *instr,
                            produced: 0,
                            started: *started,
                        };
                        any_busy = true;
                    } else {
                        any_stalled = true;
                    }
                }
                PipelineState::Compute { instr, produced, started } => {
                    any_busy = true;
                    let total = instr.hacc_count();
                    let ops = program.operands(&instr.work);
                    while *produced < total
                        && multiplier_budget > 0
                        && self.outbox.len() < outbox_cap
                    {
                        let b_len = ops.b_cols.len();
                        let a_idx = *produced / b_len;
                        let b_idx = *produced % b_len;
                        let tag = program.tag_of(ops.a_rows[a_idx], ops.b_cols[b_idx]);
                        let value = ops.a_values[a_idx] * ops.b_values[b_idx];
                        let counter = ops.counters[*produced];
                        let mut hacc = HaccInstruction::new(tag, value, counter);
                        hacc.generated_at = cycle;
                        self.outbox.push_back(hacc);
                        self.stats.haccs_generated += 1;
                        *produced += 1;
                        multiplier_budget -= 1;
                    }
                    if *produced >= total {
                        self.stats.mmh_completed += 1;
                        output.mmh_retired += 1;
                        self.cpi_histogram.record(cycle.saturating_sub(*started) + 1);
                        pipeline.state = PipelineState::Idle;
                    } else if self.outbox.len() >= outbox_cap {
                        self.stats.output_blocked_cycles += 1;
                    }
                }
            }
        }
        self.next_pipeline = (self.next_pipeline + 1) % pipeline_count.max(1);

        // Drain the outbox up to the NoC injection credit.
        let to_send = output_credit.min(self.outbox.len());
        for _ in 0..to_send {
            output.haccs.push(self.outbox.pop_front().expect("outbox length checked"));
        }

        if any_busy {
            self.stats.busy_cycles += 1;
            output.outcome = TickOutcome::Busy;
        } else if any_stalled {
            self.stats.stall_cycles += 1;
            output.outcome = TickOutcome::Stalled;
        } else {
            self.stats.idle_cycles += 1;
            output.outcome = TickOutcome::Idle;
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_spgemm;
    use neura_sparse::{CscMatrix, CsrMatrix};

    fn core_config() -> NeuraCoreConfig {
        NeuraCoreConfig {
            pipeline_registers: 8,
            pipelines: 2,
            multipliers: 4,
            address_generators: 2,
            ports: 4,
            instruction_buffer: 4,
        }
    }

    /// A one-instruction `MMH<tile>` program: the stored elements `rows` of
    /// column 0 of `A` (all 2.0) times row 0 of `B` at `cols` (all 3.0), with
    /// `out_cols` output columns. Every partial product has fan-in 1.
    fn program(tile: u8, rows: &[usize], cols: &[usize], out_cols: usize) -> Program {
        let a_rows = rows.iter().max().map_or(1, |&r| r + 1);
        let a = CscMatrix::from_raw_parts(
            a_rows,
            1,
            vec![0, rows.len()],
            rows.to_vec(),
            vec![2.0; rows.len()],
        )
        .unwrap();
        let b = CsrMatrix::from_raw_parts(
            1,
            out_cols,
            vec![0, cols.len()],
            cols.to_vec(),
            vec![3.0; cols.len()],
        )
        .unwrap();
        let program = compile_spgemm(&a, &b, tile);
        assert_eq!(program.instruction_count(), 1);
        program
    }

    fn mmh(program: &Program) -> MmhInstruction {
        program.instructions[0]
    }

    /// Drives the core until idle, acknowledging all memory requests after
    /// `mem_latency` cycles.  Returns all generated HACCs.
    fn run_to_completion(
        core: &mut NeuraCore,
        program: &Program,
        mem_latency: u64,
        max_cycles: u64,
    ) -> Vec<HaccInstruction> {
        let mut haccs = Vec::new();
        let mut pending: Vec<(u64, usize)> = Vec::new(); // (ready_cycle, pipeline)
        for c in 0..max_cycles {
            let out = core.tick(Cycle(c), 16, program);
            for req in out.memory_requests {
                pending.push((c + mem_latency, req.pipeline));
            }
            let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= c);
            pending = rest;
            for (_, pipeline) in ready {
                core.memory_response(pipeline);
            }
            haccs.extend(out.haccs);
            if core.is_idle() && pending.is_empty() {
                break;
            }
        }
        haccs
    }

    #[test]
    fn executes_a_single_mmh_and_produces_all_haccs() {
        let p = program(4, &[0, 1, 2, 3], &[0, 1, 2, 3], 16);
        let mut core = NeuraCore::new(0, 0, core_config());
        core.prepare();
        assert!(core.accept(mmh(&p)));
        let haccs = run_to_completion(&mut core, &p, 10, 500);
        assert_eq!(haccs.len(), 16);
        assert!(core.is_idle());
        assert_eq!(core.stats().mmh_completed, 1);
        assert_eq!(core.stats().haccs_generated, 16);
        // All partial products are 2.0 * 3.0.
        assert!(haccs.iter().all(|h| (h.data - 6.0).abs() < 1e-12));
        // Tags use row * out_cols + col.
        assert!(haccs.iter().any(|h| h.tag == 3 * 16 + 2));
    }

    #[test]
    fn instruction_buffer_enforces_capacity() {
        let p = program(1, &[0], &[0], 4);
        let mut core = NeuraCore::new(0, 0, core_config());
        core.prepare();
        for _ in 0..4 {
            assert!(core.accept(mmh(&p)));
        }
        assert!(!core.accept(mmh(&p)));
        assert_eq!(core.stats().mmh_accepted, 4);
    }

    #[test]
    fn memory_latency_creates_stall_cycles() {
        let p = program(4, &[0, 1], &[0, 1], 8);
        let mut fast = NeuraCore::new(0, 0, core_config());
        fast.prepare();
        fast.accept(mmh(&p));
        run_to_completion(&mut fast, &p, 2, 500);

        let mut slow = NeuraCore::new(1, 0, core_config());
        slow.prepare();
        slow.accept(mmh(&p));
        run_to_completion(&mut slow, &p, 100, 1_000);

        assert!(slow.stats().stall_cycles > fast.stats().stall_cycles);
    }

    #[test]
    fn cpi_histogram_records_completed_instructions() {
        let p = program(2, &[0, 1], &[0, 1, 2], 8);
        let mut core = NeuraCore::new(0, 0, core_config());
        core.prepare();
        for _ in 0..3 {
            core.accept(mmh(&p));
        }
        run_to_completion(&mut core, &p, 20, 2_000);
        assert_eq!(core.cpi_histogram().count(), 3);
        assert!(core.cpi_histogram().mean() > 20.0);
        assert!(core.stats().cpi() > 0.0);
    }

    #[test]
    fn output_credit_limits_hacc_injection_per_cycle() {
        let p = program(4, &[0, 1, 2, 3], &[0, 1, 2, 3], 8);
        let mut core = NeuraCore::new(0, 0, core_config());
        core.prepare();
        core.accept(mmh(&p));
        // Run with zero output credit: HACCs accumulate internally, none escape.
        let mut produced = 0;
        let mut pending: Vec<(u64, usize)> = Vec::new();
        for c in 0..200u64 {
            let out = core.tick(Cycle(c), 0, &p);
            for req in out.memory_requests {
                pending.push((c + 5, req.pipeline));
            }
            let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= c);
            pending = rest;
            for (_, pipeline) in ready {
                core.memory_response(pipeline);
            }
            produced += out.haccs.len();
        }
        assert_eq!(produced, 0);
        assert!(!core.is_idle(), "HACCs are stuck in the outbox");
        // Granting credit drains them.
        let mut drained = 0;
        for c in 200..400u64 {
            drained += core.tick(Cycle(c), 4, &p).haccs.len();
        }
        assert_eq!(drained, 16);
    }

    #[test]
    fn load_counts_buffered_and_executing_instructions() {
        let p = program(1, &[0], &[0], 8);
        let mut core = NeuraCore::new(0, 0, core_config());
        core.prepare();
        assert_eq!(core.load(), 0);
        core.accept(mmh(&p));
        core.accept(mmh(&p));
        assert_eq!(core.load(), 2);
    }

    #[test]
    fn four_memory_requests_per_mmh() {
        let p = program(4, &[0, 1, 2, 3], &[0, 1], 8);
        let mut core = NeuraCore::new(0, 0, core_config());
        core.prepare();
        core.accept(mmh(&p));
        let mut requests = 0;
        let mut pending: Vec<(u64, usize)> = Vec::new();
        for c in 0..50u64 {
            let out = core.tick(Cycle(c), 16, &p);
            requests += out.memory_requests.len();
            for req in out.memory_requests {
                pending.push((c + 1, req.pipeline));
            }
            let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= c);
            pending = rest;
            for (_, pipeline) in ready {
                core.memory_response(pipeline);
            }
        }
        assert_eq!(requests, 4);
        assert_eq!(core.stats().memory_requests, 4);
    }
}
