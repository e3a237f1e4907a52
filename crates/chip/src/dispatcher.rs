//! The Dispatcher: push-based distribution of `MMH` instructions to NeuraCores.
//!
//! The paper contrasts NeuraChip's *push-based* multiplication mapping (the
//! Dispatcher assigns `MMH4` instructions to NeuraCores, preserving input
//! temporal locality in the register files) with FlowGNN's pull-based
//! scheme.  The dispatcher walks the compiled program in order and hands
//! each instruction to a core chosen by the configured policy, subject to
//! instruction-buffer back-pressure.

use crate::compiler::Program;
use crate::isa::MmhInstruction;
use serde::{Deserialize, Serialize};

/// Core-selection policy of the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Strict round robin over the cores.
    RoundRobin,
    /// Send to the core with the smallest current load (dynamic allocation,
    /// "depending on its utilization" — the paper's default).
    LeastLoaded,
}

/// Statistics of the dispatch process.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DispatcherStats {
    /// Instructions dispatched.
    pub dispatched: u64,
    /// Cycles in which dispatch was blocked because every candidate core was full.
    pub blocked_cycles: u64,
    /// Row boundaries crossed (DRHM reseed events).
    pub rows_completed: u64,
}

/// The dispatcher walks a [`Program`] and feeds NeuraCores. It borrows the
/// program and hands out `Copy` instructions, so nothing is cloned.
#[derive(Debug)]
pub struct Dispatcher<'p> {
    program: &'p Program,
    next_instruction: usize,
    next_boundary: usize,
    policy: DispatchPolicy,
    dispatch_width: usize,
    round_robin_cursor: usize,
    per_core_dispatched: Vec<u64>,
    stats: DispatcherStats,
}

impl<'p> Dispatcher<'p> {
    /// Creates a dispatcher over a compiled program for `cores` NeuraCores.
    pub fn new(
        program: &'p Program,
        cores: usize,
        policy: DispatchPolicy,
        dispatch_width: usize,
    ) -> Self {
        Dispatcher {
            program,
            next_instruction: 0,
            next_boundary: 0,
            policy,
            dispatch_width: dispatch_width.max(1),
            round_robin_cursor: 0,
            per_core_dispatched: vec![0; cores.max(1)],
            stats: DispatcherStats::default(),
        }
    }

    /// Number of instructions not yet dispatched.
    pub fn remaining(&self) -> usize {
        self.program.instructions.len() - self.next_instruction
    }

    /// True when every instruction has been dispatched.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Dispatch statistics.
    pub fn stats(&self) -> &DispatcherStats {
        &self.stats
    }

    /// Number of instructions sent to each core (Figure 12's x-axis data).
    pub fn per_core_histogram(&self) -> &[u64] {
        &self.per_core_dispatched
    }

    /// Attempts to dispatch up to `dispatch_width` instructions this cycle.
    ///
    /// `core_can_accept` and `core_load` describe the current state of every
    /// core; `assign` is called for each successful dispatch with
    /// `(core index, instruction)`.  Returns the number of row boundaries
    /// crossed during this call so the accelerator can reseed the DRHM
    /// mapping and issue hash-pad barriers.
    pub fn dispatch_cycle(
        &mut self,
        core_can_accept: &[bool],
        core_load: &[usize],
        mut assign: impl FnMut(usize, MmhInstruction) -> bool,
    ) -> u64 {
        let cores = self.per_core_dispatched.len();
        debug_assert_eq!(core_can_accept.len(), cores);
        debug_assert_eq!(core_load.len(), cores);
        let mut rows_crossed = 0u64;
        let mut dispatched_this_cycle = 0usize;
        let mut blocked = false;
        // Working copies so decisions made earlier in this same cycle are
        // visible to later ones (otherwise every instruction of the cycle
        // would pile onto the single least-loaded core).
        let mut acceptable = core_can_accept.to_vec();
        let mut effective_load = core_load.to_vec();

        while dispatched_this_cycle < self.dispatch_width && !self.is_done() {
            let target = match self.policy {
                DispatchPolicy::RoundRobin => {
                    let mut chosen = None;
                    for offset in 0..cores {
                        let candidate = (self.round_robin_cursor + offset) % cores;
                        if acceptable[candidate] {
                            chosen = Some(candidate);
                            break;
                        }
                    }
                    chosen
                }
                DispatchPolicy::LeastLoaded => acceptable
                    .iter()
                    .enumerate()
                    .filter(|(_, &ok)| ok)
                    .min_by_key(|&(idx, _)| (effective_load[idx], idx))
                    .map(|(idx, _)| idx),
            };
            let Some(core) = target else {
                blocked = true;
                break;
            };
            let instr = self.program.instructions[self.next_instruction];
            if !assign(core, instr) {
                // This core's instruction buffer is full; try the others.
                acceptable[core] = false;
                blocked = true;
                continue;
            }
            effective_load[core] += 1;
            self.round_robin_cursor = (core + 1) % cores;
            self.per_core_dispatched[core] += 1;
            self.next_instruction += 1;
            self.stats.dispatched += 1;
            dispatched_this_cycle += 1;

            // Row boundaries crossed by this dispatch.
            let boundaries = &self.program.row_boundaries;
            while self.next_boundary < boundaries.len()
                && boundaries[self.next_boundary] <= self.next_instruction
            {
                self.next_boundary += 1;
                self.stats.rows_completed += 1;
                rows_crossed += 1;
            }
        }
        if blocked {
            self.stats.blocked_cycles += 1;
        }
        rows_crossed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_spgemm;
    use neura_sparse::gen::GraphGenerator;

    fn program() -> Program {
        let a = GraphGenerator::erdos_renyi(40, 0.1, 5).generate().to_csr();
        compile_spgemm(&a.to_csc(), &a, 4)
    }

    #[test]
    fn dispatches_every_instruction_exactly_once() {
        let p = program();
        let mut d = Dispatcher::new(&p, 4, DispatchPolicy::RoundRobin, 2);
        let mut received = 0usize;
        let can_accept = vec![true; 4];
        let load = vec![0usize; 4];
        while !d.is_done() {
            d.dispatch_cycle(&can_accept, &load, |_, _| {
                received += 1;
                true
            });
        }
        assert_eq!(received, p.instruction_count());
        assert_eq!(d.stats().dispatched, p.instruction_count() as u64);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn round_robin_spreads_work_evenly() {
        let p = program();
        let mut d = Dispatcher::new(&p, 8, DispatchPolicy::RoundRobin, 1);
        let can_accept = vec![true; 8];
        let load = vec![0usize; 8];
        while !d.is_done() {
            d.dispatch_cycle(&can_accept, &load, |_, _| true);
        }
        let hist = d.per_core_histogram();
        let max = *hist.iter().max().unwrap();
        let min = *hist.iter().min().unwrap();
        assert!(max - min <= 1, "round robin must be balanced, got {hist:?}");
    }

    #[test]
    fn least_loaded_prefers_empty_cores() {
        let p = program();
        let mut d = Dispatcher::new(&p, 4, DispatchPolicy::LeastLoaded, 1);
        let can_accept = vec![true; 4];
        // Core 2 is markedly less loaded than the others.
        let load = vec![10usize, 10, 0, 10];
        let mut first_target = None;
        d.dispatch_cycle(&can_accept, &load, |core, _| {
            first_target.get_or_insert(core);
            true
        });
        assert_eq!(first_target, Some(2));
    }

    #[test]
    fn full_cores_block_dispatch() {
        let p = program();
        let mut d = Dispatcher::new(&p, 2, DispatchPolicy::RoundRobin, 4);
        let can_accept = vec![false; 2];
        let load = vec![0usize; 2];
        let before = d.remaining();
        d.dispatch_cycle(&can_accept, &load, |_, _| true);
        assert_eq!(d.remaining(), before);
        assert_eq!(d.stats().blocked_cycles, 1);
    }

    #[test]
    fn row_boundaries_are_reported() {
        let p = program();
        let expected_rows = p.row_boundaries.len() as u64;
        let mut d = Dispatcher::new(&p, 4, DispatchPolicy::LeastLoaded, 8);
        let can_accept = vec![true; 4];
        let load = vec![0usize; 4];
        let mut total_rows = 0u64;
        while !d.is_done() {
            total_rows += d.dispatch_cycle(&can_accept, &load, |_, _| true);
        }
        assert_eq!(total_rows, expected_rows);
        assert_eq!(d.stats().rows_completed, expected_rows);
    }

    #[test]
    fn dispatch_width_limits_instructions_per_cycle() {
        let p = program();
        let mut d = Dispatcher::new(&p, 4, DispatchPolicy::RoundRobin, 3);
        let can_accept = vec![true; 4];
        let load = vec![0usize; 4];
        let mut count = 0;
        d.dispatch_cycle(&can_accept, &load, |_, _| {
            count += 1;
            true
        });
        assert_eq!(count, 3.min(p.instruction_count()));
    }
}
