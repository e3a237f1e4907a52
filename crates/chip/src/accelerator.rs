//! The full NeuraChip assembly and its cycle-level execution loop.
//!
//! An [`Accelerator`] instantiates the configured number of NeuraCores and
//! NeuraMems, interleaves them on a 2D-torus NoC, connects one memory
//! controller per tile to an HBM channel, and executes compiled programs by
//! walking the eight-step dataflow of Figure 5:
//!
//! 1. the Dispatcher issues `MMH` instructions to NeuraCores,
//! 2. NeuraCores issue operand reads to their tile's memory controller,
//! 3. the controller coalesces requests and fetches from DRAM,
//! 4. operand data streams back to the cores,
//! 5. cores compute partial products and emit `HACC` instructions,
//! 6. routers carry the `HACC`s to NeuraMems selected by the compute mapping,
//! 7. NeuraMems hash-accumulate the partial products,
//! 8. completed hash-lines are evicted and written back to HBM.

use crate::compiler::{self, Program};
use crate::config::{ChipConfig, EvictionPolicy};
use crate::dispatcher::{DispatchPolicy, Dispatcher};
use crate::isa::HaccInstruction;
use crate::mapping::ComputeMapping;
use crate::neuracore::{CoreMemoryRequest, NeuraCore};
use crate::neuramem::NeuraMem;
use crate::profile::Profiler;
use neura_mem::{MemoryController, MemoryRequest, RequestId};
use neura_noc::{Packet, TorusNetwork, TorusTopology};
use neura_sim::{Cycle, Histogram};
use neura_sparse::{CooMatrix, CsrMatrix, DenseMatrix, SparseError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Errors produced while running a workload on the accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipError {
    /// The simulation hit its cycle budget before the machine drained.
    Incomplete {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Partial products still unaccounted for.
        outstanding_haccs: u64,
    },
    /// The workload matrices had incompatible shapes.
    Shape(SparseError),
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::Incomplete { cycles, outstanding_haccs } => write!(
                f,
                "simulation did not drain within {cycles} cycles ({outstanding_haccs} partial products outstanding)"
            ),
            ChipError::Shape(e) => write!(f, "workload shape error: {e}"),
        }
    }
}

impl std::error::Error for ChipError {}

impl From<SparseError> for ChipError {
    fn from(value: SparseError) -> Self {
        ChipError::Shape(value)
    }
}

/// Aggregate execution statistics of one program run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// `MMH` instructions executed.
    pub mmh_instructions: u64,
    /// `HACC` instructions (partial products) processed.
    pub hacc_instructions: u64,
    /// Sum of per-core busy cycles.
    pub core_busy_cycles: u64,
    /// Sum of per-core stall (memory wait) cycles.
    pub core_stall_cycles: u64,
    /// Sum of per-core idle cycles.
    pub core_idle_cycles: u64,
    /// Average cycles per `MMH` instruction.
    pub cpi: f64,
    /// `MMH` instructions retired per cycle across the whole chip.
    pub ipc: f64,
    /// Histogram of per-`MMH` execution cycles (Figure 14).
    pub mmh_cpi_histogram: Histogram,
    /// Histogram of `HACC` generation-to-accumulation latency (Figure 15).
    pub hacc_latency_histogram: Histogram,
    /// Partial products generated per NeuraCore (Figure 12 x-axis).
    pub core_work_histogram: Vec<u64>,
    /// Partial products accumulated per NeuraMem (Figure 12 y-axis).
    pub mem_work_histogram: Vec<u64>,
    /// Mean number of in-flight HBM transactions per cycle (memory pressure).
    pub avg_in_flight_mem: f64,
    /// Peak number of in-flight HBM transactions.
    pub peak_in_flight_mem: usize,
    /// Bytes read from HBM.
    pub dram_bytes_read: u64,
    /// Bytes written to HBM.
    pub dram_bytes_written: u64,
    /// Mean HBM request latency.
    pub mean_dram_latency: f64,
    /// NoC packets delivered.
    pub noc_packets: u64,
    /// Mean NoC packet latency.
    pub noc_mean_latency: f64,
    /// Mean NoC hop count of delivered packets.
    pub noc_mean_hops: f64,
    /// Peak HashPad occupancy across all NeuraMems.
    pub peak_hashpad_occupancy: usize,
    /// Cycles lost to a full HashPad.
    pub hashpad_full_stalls: u64,
    /// Hash collisions observed.
    pub hash_collisions: u64,
    /// Hash-line evictions (output elements produced).
    pub evictions: u64,
    /// Wall-clock execution time implied by the cycle count and frequency.
    pub execution_seconds: f64,
    /// Achieved throughput in GOP/s (2 ops per partial product).
    pub gops: f64,
    /// Fraction of cycles in which the average core was busy.
    pub core_utilization: f64,
}

impl ExecutionReport {
    /// Speedup of this run relative to another (ratio of execution times).
    pub fn speedup_over(&self, other: &ExecutionReport) -> f64 {
        if self.execution_seconds == 0.0 {
            0.0
        } else {
            other.execution_seconds / self.execution_seconds
        }
    }
}

/// Result of running an SpGEMM workload: the product matrix plus statistics.
#[derive(Debug, Clone)]
pub struct SpgemmRun {
    /// The numerically accumulated product matrix.
    pub product: CsrMatrix,
    /// Execution statistics.
    pub report: ExecutionReport,
}

/// Result of running a GCN aggregation (sparse × dense) workload.
#[derive(Debug, Clone)]
pub struct AggregationRun {
    /// The aggregated (dense) feature matrix.
    pub aggregated: DenseMatrix,
    /// Execution statistics.
    pub report: ExecutionReport,
}

/// The NeuraChip accelerator model.
#[derive(Debug)]
pub struct Accelerator {
    config: ChipConfig,
    max_cycles_override: Option<u64>,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    pub fn new(config: ChipConfig) -> Self {
        Accelerator { config, max_cycles_override: None }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Overrides the simulation cycle budget (mainly for tests).
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles_override = Some(max_cycles);
        self
    }

    /// Runs the SpGEMM `C = A × B` and returns the product with statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Shape`] when the shapes are incompatible and
    /// [`ChipError::Incomplete`] if the simulation fails to drain.
    pub fn run_spgemm(&mut self, a: &CsrMatrix, b: &CsrMatrix) -> Result<SpgemmRun, ChipError> {
        self.run_spgemm_profiled(a, b, None)
    }

    /// [`Self::run_spgemm`] with an optional [`Profiler`] attached.
    ///
    /// With `Some(profiler)` the run loop feeds the profiler once per
    /// cycle (windowed busy/stall/idle attribution, stall taxonomy, hop
    /// and DRAM-latency distributions); call
    /// [`Profiler::into_profile`] afterwards. With `None` this is
    /// exactly [`Self::run_spgemm`]: nothing is constructed and the
    /// simulation is byte-identical.
    ///
    /// # Errors
    ///
    /// As [`Self::run_spgemm`]. On error the profiler is left
    /// unfinalized (there is no complete run to profile).
    pub fn run_spgemm_profiled(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        profiler: Option<&mut Profiler>,
    ) -> Result<SpgemmRun, ChipError> {
        if a.cols() != b.rows() {
            return Err(ChipError::Shape(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            }));
        }
        let program = compiler::compile_spgemm(&a.to_csc(), b, self.config.mmh_tile);
        let (outputs, report) = self.run_program_profiled(&program, profiler)?;
        let mut coo = CooMatrix::new(a.rows(), b.cols());
        for (&tag, &value) in &outputs {
            let (r, c) = program.coords_of(tag);
            coo.push(r, c, value).expect("tag coordinates are in bounds");
        }
        Ok(SpgemmRun { product: coo.to_csr(), report })
    }

    /// Runs the GCN aggregation `A × X` with dense features `X`.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Shape`] when the shapes are incompatible and
    /// [`ChipError::Incomplete`] if the simulation fails to drain.
    pub fn run_aggregation(
        &mut self,
        a: &CsrMatrix,
        features: &DenseMatrix,
    ) -> Result<AggregationRun, ChipError> {
        if a.cols() != features.rows() {
            return Err(ChipError::Shape(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (features.rows(), features.cols()),
            }));
        }
        let program = compiler::compile_aggregation(&a.to_csc(), features, self.config.mmh_tile);
        let (outputs, report) = self.run_program(&program)?;
        let mut aggregated = DenseMatrix::zeros(a.rows(), features.cols());
        for (&tag, &value) in &outputs {
            let (r, c) = program.coords_of(tag);
            *aggregated.get_mut(r, c) = value;
        }
        Ok(AggregationRun { aggregated, report })
    }

    /// Executes a compiled [`Program`] cycle by cycle.
    ///
    /// Returns the accumulated output elements (tag → value) together with
    /// the execution report.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Incomplete`] if the machine fails to drain within
    /// the cycle budget.
    pub fn run_program(
        &mut self,
        program: &Program,
    ) -> Result<(HashMap<u64, f64>, ExecutionReport), ChipError> {
        self.run_program_profiled(program, None)
    }

    /// [`Self::run_program`] with an optional [`Profiler`] attached (see
    /// [`Self::run_spgemm_profiled`] for the contract).
    ///
    /// # Errors
    ///
    /// As [`Self::run_program`].
    pub fn run_program_profiled(
        &mut self,
        program: &Program,
        mut profiler: Option<&mut Profiler>,
    ) -> Result<(HashMap<u64, f64>, ExecutionReport), ChipError> {
        let cfg = &self.config;
        let total_cores = cfg.total_cores();
        let total_mems = cfg.total_mems();

        // --- build the machine ---------------------------------------------
        let mut cores: Vec<NeuraCore> =
            (0..total_cores).map(|i| NeuraCore::new(i, i / cfg.cores_per_tile, cfg.core)).collect();
        for core in &mut cores {
            core.prepare();
        }
        let mut mems: Vec<NeuraMem> =
            (0..total_mems).map(|i| NeuraMem::new(i, cfg.mem, cfg.eviction)).collect();
        let mut controllers: Vec<MemoryController> = (0..cfg.tiles)
            .map(|t| MemoryController::new(t, cfg.hbm, cfg.mem_queue_capacity))
            .collect();
        let topology = TorusTopology::for_nodes(total_cores + total_mems);
        let mut noc = TorusNetwork::new(topology, cfg.router_buffer)
            .with_links_per_cycle(cfg.core.ports.max(2));
        let mut mapping: Box<dyn ComputeMapping> = cfg.mapping.build(total_mems, cfg.seed);
        let mut dispatcher =
            Dispatcher::new(program, total_cores, DispatchPolicy::LeastLoaded, total_cores.max(4));

        // NoC node ids: cores first, then mems.
        let core_node = |core: usize| core;
        let mem_node = |mem: usize| total_cores + mem;
        let mem_tile = |mem: usize| mem / cfg.mems_per_tile;

        // --- bookkeeping -----------------------------------------------------
        let mut outputs: HashMap<u64, f64> = HashMap::with_capacity(program.output_nnz);
        let mut packet_payloads: HashMap<u64, HaccInstruction> = HashMap::new();
        let mut next_packet_id = 0u64;
        let mut read_owner: HashMap<(usize, RequestId), (usize, usize)> = HashMap::new();
        let mut retry_mem_requests: Vec<(usize, usize, CoreMemoryRequest)> = Vec::new(); // (tile, core, req)
        let mut retry_injections: Vec<(usize, Packet)> = Vec::new(); // (src core, packet)
        let mut retry_accepts: Vec<(usize, HaccInstruction)> = Vec::new(); // (mem, hacc)
        let mut retry_writebacks: Vec<(usize, MemoryRequest)> = Vec::new(); // (tile, req)
        let mut completed_responses: Vec<neura_mem::MemoryResponse> = Vec::new();

        let mut in_flight_samples = 0u128;
        let mut peak_in_flight = 0usize;

        let max_cycles = self
            .max_cycles_override
            .unwrap_or_else(|| 200_000 + program.total_partial_products * 200);

        let mut cycle = 0u64;
        let mut drained = false;
        while cycle < max_cycles {
            let now = Cycle(cycle);
            // When profiling, snapshot the counters whose per-cycle deltas
            // feed the stall taxonomy; `None` takes none of these branches.
            let baselines = profiler.as_deref_mut().map(|prof| {
                prof.begin_cycle(cycle);
                let mems_totals = mems
                    .iter()
                    .map(|m| (m.stats().pad_full_stalls, m.stats().haccs_processed))
                    .fold((0u64, 0u64), |acc, (pads, haccs)| (acc.0 + pads, acc.1 + haccs));
                (dispatcher.stats().dispatched, noc.stats().injection_rejected, mems_totals)
            });

            // (1) Dispatch MMH instructions.
            let can_accept: Vec<bool> = cores.iter().map(NeuraCore::can_accept).collect();
            let load: Vec<usize> = cores.iter().map(NeuraCore::load).collect();
            let _rows_crossed = dispatcher.dispatch_cycle(&can_accept, &load, |core_idx, instr| {
                cores[core_idx].accept(instr)
            });
            if let Some(prof) = profiler.as_deref_mut() {
                let (dispatched_before, _, _) = baselines.expect("snapshot taken when profiling");
                if !dispatcher.is_done() && dispatcher.stats().dispatched == dispatched_before {
                    prof.note_dispatch_starved();
                }
            }

            // Barrier-eviction baseline: completed hash-lines are only
            // released under capacity pressure (the "emergency barrier"),
            // otherwise they stay resident until the end of the program.
            if cfg.eviction == EvictionPolicy::Barrier {
                for mem in &mut mems {
                    if mem.occupancy() * 10 >= cfg.mem.hashlines * 9 {
                        mem.barrier(now);
                    }
                }
            }

            // Retry previously rejected memory requests before new ones.
            retry_mem_requests.retain(|&(tile, core_idx, req)| {
                match controllers[tile].submit(req.request, now) {
                    Some(id) => {
                        read_owner.insert((tile, id), (core_idx, req.pipeline));
                        false
                    }
                    None => true,
                }
            });

            // (2, 5) Tick the cores: collect memory requests and HACCs.
            for (core_idx, core) in cores.iter_mut().enumerate() {
                let credit = if retry_injections.len() > 256 { 0 } else { cfg.core.ports };
                let out = core.tick(now, credit, program);
                if let Some(prof) = profiler.as_deref_mut() {
                    prof.record_core_tick(out.outcome, out.mmh_retired);
                }
                let tile = core.tile();
                for req in out.memory_requests {
                    match controllers[tile].submit(req.request, now) {
                        Some(id) => {
                            read_owner.insert((tile, id), (core_idx, req.pipeline));
                        }
                        None => retry_mem_requests.push((tile, core_idx, req)),
                    }
                }
                for hacc in out.haccs {
                    let row = hacc.tag / program.output_shape.1.max(1) as u64;
                    let mem_idx = mapping.map(hacc.tag, row);
                    let packet_id = next_packet_id;
                    next_packet_id += 1;
                    packet_payloads.insert(packet_id, hacc);
                    let packet = Packet::new(
                        packet_id,
                        core_node(core_idx),
                        mem_node(mem_idx),
                        HaccInstruction::BYTES,
                    );
                    if let Err(p) = noc.inject(packet, now) {
                        retry_injections.push((core_idx, p));
                    }
                }
            }

            // Retry NoC injections that were previously refused.
            let mut still_waiting = Vec::new();
            for (core_idx, packet) in retry_injections.drain(..) {
                match noc.inject(packet, now) {
                    Ok(()) => {}
                    Err(p) => still_waiting.push((core_idx, p)),
                }
            }
            retry_injections = still_waiting;
            if let Some(prof) = profiler.as_deref_mut() {
                let (_, rejected_before, _) = baselines.expect("snapshot taken when profiling");
                if noc.stats().injection_rejected > rejected_before {
                    prof.note_noc_backpressure();
                }
            }

            // (6) Advance the NoC.
            noc.tick(now);
            if let Some(prof) = profiler.as_deref_mut() {
                prof.record_noc_in_flight(noc.in_flight() as u64);
            }

            // (7) Deliver HACCs to NeuraMems and tick them.
            let mut still_pending_accepts = Vec::new();
            for (mem_idx, hacc) in retry_accepts.drain(..) {
                if !mems[mem_idx].accept(hacc) {
                    still_pending_accepts.push((mem_idx, hacc));
                }
            }
            retry_accepts = still_pending_accepts;

            for (mem_idx, mem) in mems.iter_mut().enumerate() {
                for packet in noc.drain_delivered(mem_node(mem_idx)) {
                    if let Some(prof) = profiler.as_deref_mut() {
                        prof.record_hops(packet.hops);
                    }
                    let hacc = packet_payloads
                        .remove(&packet.id)
                        .expect("every delivered packet has a registered payload");
                    if !mem.accept(hacc) {
                        retry_accepts.push((mem_idx, hacc));
                    }
                }
                mem.tick(now);
                // (8) Collect evictions and write them back.
                for evicted in mem.drain_evicted() {
                    outputs.insert(evicted.tag, evicted.value);
                    let addr = compiler::layout::OUTPUT_BASE + evicted.tag * 8;
                    let request = MemoryRequest::write(addr, 8);
                    let tile = mem_tile(mem_idx);
                    if controllers[tile].submit(request, now).is_none() {
                        retry_writebacks.push((tile, request));
                    }
                }
            }

            // Retry write-backs rejected earlier.
            retry_writebacks
                .retain(|(tile, request)| controllers[*tile].submit(*request, now).is_none());

            if let Some(prof) = profiler.as_deref_mut() {
                let (_, _, (pads_before, haccs_before)) =
                    baselines.expect("snapshot taken when profiling");
                let mut pads = 0u64;
                let mut haccs = 0u64;
                let mut occupancy = 0u64;
                for mem in &mems {
                    pads += mem.stats().pad_full_stalls;
                    haccs += mem.stats().haccs_processed;
                    occupancy += mem.occupancy() as u64;
                }
                prof.record_mems(occupancy, pads - pads_before, haccs - haccs_before);
            }

            // (3, 4) Tick the memory controllers and deliver read responses.
            completed_responses.clear();
            let mut in_flight_now = 0usize;
            for (tile, controller) in controllers.iter_mut().enumerate() {
                let mut done = Vec::new();
                controller.tick(now, &mut done);
                in_flight_now += controller.in_flight();
                if let Some(prof) = profiler.as_deref_mut() {
                    let (reads, writes) = controller.queue_depths();
                    prof.record_channel(tile, (reads + writes) as u64);
                    for response in &done {
                        prof.record_dram_response(response.latency());
                    }
                }
                for response in done {
                    if response.request.is_read() {
                        if let Some((core_idx, pipeline)) = read_owner.remove(&(tile, response.id))
                        {
                            cores[core_idx].memory_response(pipeline);
                        }
                    }
                    completed_responses.push(response);
                }
            }
            in_flight_samples += in_flight_now as u128;
            peak_in_flight = peak_in_flight.max(in_flight_now);
            if let Some(prof) = profiler.as_deref_mut() {
                prof.record_hbm_in_flight(in_flight_now as u64);
                prof.end_cycle();
            }

            // Termination check.
            let machine_idle = dispatcher.is_done()
                && cores.iter().all(NeuraCore::is_idle)
                && noc.in_flight() == 0
                && retry_injections.is_empty()
                && retry_accepts.is_empty()
                && retry_mem_requests.is_empty()
                && mems.iter().all(|m| m.backlog() == 0)
                && controllers.iter().all(|c| c.pending() == 0);
            if machine_idle {
                // Barrier-mode residue (and any malformed counters) flushes here.
                // The flushed lines still owe their write-back traffic, which is
                // drained in the epilogue below so that deferring evictions
                // (HACC-BE) cannot dodge the output-write cost.
                let mut flush_writes: Vec<(usize, MemoryRequest)> = Vec::new();
                for (mem_idx, mem) in mems.iter_mut().enumerate() {
                    mem.barrier(now);
                    mem.flush(now);
                    for evicted in mem.drain_evicted() {
                        outputs.insert(evicted.tag, evicted.value);
                        let addr = compiler::layout::OUTPUT_BASE + evicted.tag * 8;
                        flush_writes.push((mem_tile(mem_idx), MemoryRequest::write(addr, 8)));
                    }
                }
                retry_writebacks.extend(flush_writes);
                // Epilogue: keep ticking the memory system until every
                // outstanding write-back has been committed to DRAM.
                while (!retry_writebacks.is_empty() || controllers.iter().any(|c| c.pending() > 0))
                    && cycle < max_cycles
                {
                    let now = Cycle(cycle);
                    retry_writebacks.retain(|(tile, request)| {
                        controllers[*tile].submit(*request, now).is_none()
                    });
                    for controller in controllers.iter_mut() {
                        let mut done = Vec::new();
                        controller.tick(now, &mut done);
                        if let Some(prof) = profiler.as_deref_mut() {
                            // Epilogue write-backs count toward the aggregate
                            // DRAM-latency distribution (no window is open).
                            for response in &done {
                                prof.record_dram_response(response.latency());
                            }
                        }
                    }
                    cycle += 1;
                }
                drained = true;
                cycle += 1;
                break;
            }
            cycle += 1;
        }

        if !drained {
            return Err(ChipError::Incomplete {
                cycles: cycle,
                outstanding_haccs: program
                    .total_partial_products
                    .saturating_sub(mems.iter().map(|m| m.stats().haccs_processed).sum::<u64>()),
            });
        }

        // --- assemble the report --------------------------------------------
        let total_cycles = cycle;
        if let Some(prof) = profiler {
            prof.finalize(total_cycles, total_cores as u64, total_mems as u64, cfg.tiles as u64);
        }
        let mut mmh_cpi_histogram = Histogram::new(25, 20);
        let mut hacc_latency_histogram = Histogram::new(50, 20);
        let mut core_busy = 0u64;
        let mut core_stall = 0u64;
        let mut core_idle = 0u64;
        let mut core_work = Vec::with_capacity(total_cores);
        for core in &cores {
            let stats = core.stats();
            core_busy += stats.busy_cycles;
            core_stall += stats.stall_cycles;
            core_idle += stats.idle_cycles;
            core_work.push(stats.haccs_generated);
            mmh_cpi_histogram.merge(core.cpi_histogram());
        }
        let mut mem_work = Vec::with_capacity(total_mems);
        let mut peak_pad = 0usize;
        let mut pad_stalls = 0u64;
        let mut collisions = 0u64;
        let mut evictions = 0u64;
        for mem in &mems {
            let stats = mem.stats();
            mem_work.push(stats.haccs_processed);
            peak_pad = peak_pad.max(stats.peak_occupancy);
            pad_stalls += stats.pad_full_stalls;
            collisions += stats.collisions;
            evictions += stats.evictions;
            hacc_latency_histogram.merge(mem.hacc_latency_histogram());
        }
        let mmh_instructions: u64 = cores.iter().map(|c| c.stats().mmh_completed).sum();
        let hacc_instructions: u64 = mems.iter().map(|m| m.stats().haccs_processed).sum();
        let dram_bytes_read: u64 = controllers.iter().map(|c| c.stats().bytes_read).sum();
        let dram_bytes_written: u64 = controllers.iter().map(|c| c.stats().bytes_written).sum();
        let mean_dram_latency = {
            let completed: u64 = controllers.iter().map(|c| c.stats().completed).sum();
            let latency: u64 = controllers.iter().map(|c| c.stats().total_latency).sum();
            if completed == 0 {
                0.0
            } else {
                latency as f64 / completed as f64
            }
        };
        let execution_seconds = total_cycles as f64 / (self.config.frequency_ghz * 1e9);
        let gops = if execution_seconds > 0.0 {
            2.0 * program.total_partial_products as f64 / execution_seconds / 1e9
        } else {
            0.0
        };
        let report = ExecutionReport {
            total_cycles,
            mmh_instructions,
            hacc_instructions,
            core_busy_cycles: core_busy,
            core_stall_cycles: core_stall,
            core_idle_cycles: core_idle,
            cpi: mmh_cpi_histogram.mean(),
            ipc: if total_cycles == 0 {
                0.0
            } else {
                mmh_instructions as f64 / total_cycles as f64
            },
            mmh_cpi_histogram,
            hacc_latency_histogram,
            core_work_histogram: core_work,
            mem_work_histogram: mem_work,
            avg_in_flight_mem: if total_cycles == 0 {
                0.0
            } else {
                in_flight_samples as f64 / total_cycles as f64
            },
            peak_in_flight_mem: peak_in_flight,
            dram_bytes_read,
            dram_bytes_written,
            mean_dram_latency,
            noc_packets: noc.stats().delivered,
            noc_mean_latency: noc.stats().mean_latency(),
            noc_mean_hops: noc.stats().mean_hops(),
            peak_hashpad_occupancy: peak_pad,
            hashpad_full_stalls: pad_stalls,
            hash_collisions: collisions,
            evictions,
            execution_seconds,
            gops,
            core_utilization: if total_cycles == 0 {
                0.0
            } else {
                core_busy as f64 / (total_cycles as f64 * total_cores as f64)
            },
        };
        Ok((outputs, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileSize;
    use crate::mapping::MappingKind;
    use neura_sparse::gen::{feature_matrix, GraphGenerator};
    use neura_sparse::spgemm;

    fn small_graph(nodes: usize, seed: u64) -> CsrMatrix {
        GraphGenerator::power_law(nodes, nodes * 6, 2.1, seed).generate().to_csr()
    }

    #[test]
    fn spgemm_result_matches_reference() {
        let a = small_graph(48, 1);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = chip.run_spgemm(&a, &a).expect("simulation drains");
        let reference = spgemm::gustavson(&a, &a);
        assert_eq!(run.product.nnz(), reference.nnz());
        let diff = run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap();
        assert!(diff < 1e-9, "accelerator output diverged by {diff}");
        assert_eq!(run.report.evictions as usize, reference.nnz());
        assert!(run.report.total_cycles > 0);
        assert!(run.report.gops > 0.0);
    }

    #[test]
    fn aggregation_matches_reference_spmm() {
        let a = small_graph(40, 2);
        let x = feature_matrix(a.cols(), 4, 7);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = chip.run_aggregation(&a, &x).expect("simulation drains");
        let reference = neura_sparse::spmm::spmm(&a, &x).unwrap();
        assert!(run.aggregated.max_abs_diff(&reference).unwrap() < 1e-9);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = CsrMatrix::identity(4);
        let b = CsrMatrix::identity(5);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        assert!(matches!(chip.run_spgemm(&a, &b), Err(ChipError::Shape(_))));
    }

    #[test]
    fn larger_tiles_run_faster_on_the_same_workload() {
        let a = small_graph(64, 3);
        let mut t4 = Accelerator::new(ChipConfig::tile_4());
        let mut t16 = Accelerator::new(ChipConfig::tile_16());
        let run4 = t4.run_spgemm(&a, &a).unwrap();
        let run16 = t16.run_spgemm(&a, &a).unwrap();
        assert!(
            run16.report.total_cycles < run4.report.total_cycles,
            "Tile-16 ({}) should beat Tile-4 ({})",
            run16.report.total_cycles,
            run4.report.total_cycles
        );
    }

    #[test]
    fn all_mappings_produce_correct_results() {
        let a = small_graph(40, 4);
        let reference = spgemm::gustavson(&a, &a);
        for kind in MappingKind::ALL {
            let mut chip = Accelerator::new(ChipConfig::tile_4().with_mapping(kind));
            let run = chip.run_spgemm(&a, &a).expect("simulation drains");
            let diff = run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap();
            assert!(diff < 1e-9, "{} mapping diverged by {diff}", kind.name());
        }
    }

    #[test]
    fn drhm_balances_mem_work_better_than_ring() {
        use neura_sparse::stats::imbalance;
        // Load balance is a statistical property of the workload draw, so
        // compare the mappings on their mean peak/mean ratio across several
        // graphs rather than on a single (lucky or unlucky) seed.
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let mean_imbalance = |kind: MappingKind| {
            let total: f64 = seeds
                .iter()
                .map(|&seed| {
                    let a = small_graph(96, seed);
                    let mut chip = Accelerator::new(ChipConfig::tile_16().with_mapping(kind));
                    let run = chip.run_spgemm(&a, &a).unwrap();
                    imbalance(&run.report.mem_work_histogram).0
                })
                .sum();
            total / seeds.len() as f64
        };
        let ring = mean_imbalance(MappingKind::Ring);
        let drhm = mean_imbalance(MappingKind::Drhm);
        assert!(
            drhm <= ring * 1.05,
            "DRHM mean peak/mean {drhm} should not exceed ring hashing {ring}"
        );
    }

    #[test]
    fn barrier_eviction_uses_more_hashpad_than_rolling() {
        let a = small_graph(64, 6);
        let run_with = |policy| {
            let mut chip = Accelerator::new(ChipConfig::tile_4().with_eviction(policy));
            chip.run_spgemm(&a, &a).unwrap().report
        };
        let rolling = run_with(EvictionPolicy::Rolling);
        let barrier = run_with(EvictionPolicy::Barrier);
        assert!(
            barrier.peak_hashpad_occupancy > rolling.peak_hashpad_occupancy,
            "barrier {} vs rolling {}",
            barrier.peak_hashpad_occupancy,
            rolling.peak_hashpad_occupancy
        );
        // Both still produce every output element.
        assert_eq!(barrier.evictions, rolling.evictions);
    }

    #[test]
    fn report_counts_are_internally_consistent() {
        let a = small_graph(48, 7);
        let (_, stats) = spgemm::multiply_counting(&a, &a);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = chip.run_spgemm(&a, &a).unwrap();
        assert_eq!(run.report.hacc_instructions, stats.multiplications);
        assert_eq!(run.report.core_work_histogram.iter().sum::<u64>(), stats.multiplications);
        assert_eq!(run.report.mem_work_histogram.iter().sum::<u64>(), stats.multiplications);
        assert!(run.report.dram_bytes_read > 0);
        assert!(run.report.dram_bytes_written >= run.report.evictions * 8);
        assert!(run.report.core_utilization > 0.0 && run.report.core_utilization <= 1.0);
    }

    #[test]
    fn retried_reads_reach_pipelines_beyond_256() {
        // One core with 300 pipelines and MMH1 instructions: the graph's
        // instructions fill pipelines past 255, and a one-slot memory queue
        // refuses most operand reads, so their responses must find the
        // right pipeline through the retry path.
        let a = small_graph(80, 1);
        let mut config = ChipConfig::tile_4().with_mem_queue_capacity(1);
        config.tiles = 1;
        config.core.pipelines = 300;
        config.mmh_tile = 1;
        let run = Accelerator::new(config).run_spgemm(&a, &a).expect("simulation drains");
        let reference = spgemm::gustavson(&a, &a);
        assert_eq!(run.product.nnz(), reference.nnz());
        let diff = run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap();
        assert!(diff < 1e-9, "accelerator output diverged by {diff}");
    }

    #[test]
    fn incomplete_simulation_is_detected() {
        let a = small_graph(48, 8);
        let mut chip = Accelerator::new(ChipConfig::tile_4()).with_max_cycles(5);
        assert!(matches!(chip.run_spgemm(&a, &a), Err(ChipError::Incomplete { .. })));
    }

    #[test]
    fn config_accessor_reflects_tile_size() {
        let chip = Accelerator::new(ChipConfig::tile_64());
        assert_eq!(chip.config().tile_size, TileSize::Tile64);
    }
}
