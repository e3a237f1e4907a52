//! The chip workloads: SpGEMM `A × A` on the cycle-level NeuraChip model.
//!
//! `chip-t64-sparse` and `chip-t4-bloat` run a list of matrices one after
//! the other on one configuration; `design-sweep` runs one matrix across a
//! grid of configurations on `neura_lab::Runner`. Every product is checked
//! against the reference `gustavson` kernel after the timed phase.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use neura_chip::accelerator::{Accelerator, ChipError, SpgemmRun};
use neura_chip::analytic::{AnalyticModel, WorkloadFeatures};
use neura_chip::compiler::compile_spgemm;
use neura_chip::config::{ChipConfig, EvictionPolicy, HbmPreset, TileSize};
use neura_chip::mapping::MappingKind;
use neura_chip::profile::{Profile, Profiler, StallCause, DEFAULT_WINDOW_CYCLES};
use neura_lab::{Artifact, RunRecord, Runner};
use neura_sparse::spgemm::gustavson;
use neura_sparse::{CsrMatrix, DatasetCatalog};

use crate::spans::Spans;
use crate::{mix_seed, repeated_setup, Measured, SETUP_REPEATS};

/// Low-bloat, wide graphs: on Tile-64 most cores sit idle and the
/// community graphs build deep HBM backlogs.
const T64_SPARSE: [&str; 5] = ["roadNet-CA", "mario002", "patents_main", "m133-b3", "amazon0312"];

/// High-bloat banded analogs: on Tile-4 no core idles and per-instruction
/// work dominates host time.
const T4_BLOAT: [&str; 6] =
    ["poisson3Da", "filter3D", "cop20k_A", "offshore", "2cubes_sphere", "cage12"];

/// Node count of the `chip-t4-bloat` analogs. The figure-fidelity analogs
/// of these datasets clamp to 256 nodes, which proved too small to time
/// steadily.
const T4_BLOAT_NODES: usize = 1_000;

/// The `design-sweep` matrix and its node count.
const SWEEP_DATASET: &str = "wiki-Vote";
const SWEEP_NODES: usize = 320;

/// Worker threads of the sweep runner: the benchmark host's core count.
const SWEEP_THREADS: usize = 2;

/// Generates a dataset analog with about `nodes` vertices from `seed`.
pub fn analog(name: &str, nodes: usize, seed: u64) -> CsrMatrix {
    let dataset = DatasetCatalog::by_name(name).expect("workload datasets are in the catalog");
    dataset.generate_scaled((dataset.nodes / nodes.max(1)).max(1), seed).to_csr()
}

/// Node count of a dataset at figure-binary fidelity: the same band as
/// `neura_bench::sim_matrix_at_fidelity` (SIM_SCALE 512 down-scaling,
/// clamped to 256..=2000 nodes), with the benchmark's own seed.
pub fn figure_nodes(name: &str) -> usize {
    let dataset = DatasetCatalog::by_name(name).expect("workload datasets are in the catalog");
    (dataset.nodes / 512).clamp(256, 2_000)
}

/// Whether `product` equals `reference`: same nnz and every entry within
/// 1e-9 (missing entries read as 0), the check of `tests/end_to_end.rs`.
fn matches_reference(product: &CsrMatrix, reference: &CsrMatrix) -> bool {
    if product.nnz() != reference.nnz() || product.rows() != reference.rows() {
        return false;
    }
    (0..reference.rows()).all(|r| {
        let mut row: HashMap<usize, f64> = HashMap::new();
        let (cols, vals) = reference.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            *row.entry(c).or_default() += v;
        }
        let (cols, vals) = product.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            *row.entry(c).or_default() -= v;
        }
        row.values().all(|d| d.abs() < 1e-9)
    })
}

/// One chip run and what is needed to check and summarise it.
struct ChipRun {
    label: String,
    config: ChipConfig,
    features: WorkloadFeatures,
    outcome: Result<SpgemmRun, ChipError>,
    profile: Option<Profile>,
}

/// Runs `a × a` once, with the chip profiler attached when tracing.
fn run_once(
    config: &ChipConfig,
    a: &CsrMatrix,
    profiled: bool,
) -> (Result<SpgemmRun, ChipError>, Option<Profile>) {
    let mut chip = Accelerator::new(config.clone());
    if profiled {
        let mut profiler = Profiler::new(DEFAULT_WINDOW_CYCLES);
        let outcome = chip.run_spgemm_profiled(a, a, Some(&mut profiler));
        let profile = outcome.is_ok().then(|| profiler.into_profile());
        (outcome, profile)
    } else {
        (chip.run_spgemm(a, a), None)
    }
}

/// Setup shared by every chip workload: generates the inputs and warms the
/// compiler up on each of them, once per entry of `mmh_tiles`. Every chip
/// run compiles its input again inside `run_spgemm`, so passing one entry
/// per run makes the warm-up the same compile work as the timed phase.
fn prepare(
    inputs: &[(&'static str, usize)],
    seed: u64,
    mmh_tiles: &[u8],
    spans: &mut Spans,
) -> Vec<(&'static str, CsrMatrix, WorkloadFeatures)> {
    let matrices: Vec<(&'static str, CsrMatrix)> = spans.time("sparse.generate", || {
        inputs
            .iter()
            .enumerate()
            .map(|(i, &(name, nodes))| (name, analog(name, nodes, mix_seed(seed, i as u64))))
            .collect()
    });
    matrices
        .into_iter()
        .map(|(name, a)| {
            for &mmh_tile in mmh_tiles {
                spans.time("chip.compile", || black_box(compile_spgemm(&a.to_csc(), &a, mmh_tile)));
            }
            let features = WorkloadFeatures::from_square(&a);
            (name, a, features)
        })
        .collect()
}

/// `chip-t64-sparse`: figure-fidelity sparse graphs on Tile-64.
pub fn t64_sparse(seed: u64, spans: &mut Spans) -> Measured {
    let inputs: Vec<(&'static str, usize)> =
        T64_SPARSE.iter().map(|&name| (name, figure_nodes(name))).collect();
    single_config(ChipConfig::tile_64(), &inputs, seed, spans)
}

/// `chip-t4-bloat`: ~1k-node banded analogs on Tile-4.
pub fn t4_bloat(seed: u64, spans: &mut Spans) -> Measured {
    let inputs: Vec<(&'static str, usize)> =
        T4_BLOAT.iter().map(|&name| (name, T4_BLOAT_NODES)).collect();
    single_config(ChipConfig::tile_4(), &inputs, seed, spans)
}

fn single_config(
    config: ChipConfig,
    inputs: &[(&'static str, usize)],
    seed: u64,
    spans: &mut Spans,
) -> Measured {
    let (setup_s, prepared) =
        repeated_setup(spans, |spans| prepare(inputs, seed, &[config.mmh_tile], spans));

    let timed_started = Instant::now();
    let timed = spans.begin("timed");
    let profiled = spans.enabled();
    let outcomes: Vec<_> = prepared
        .iter()
        .map(|(_, a, _)| spans.time("chip.run_spgemm", || run_once(&config, a, profiled)))
        .collect();
    spans.end(timed);
    let wall_s = timed_started.elapsed().as_secs_f64();

    let runs: Vec<ChipRun> = prepared
        .iter()
        .zip(outcomes)
        .map(|((name, _, features), (outcome, profile))| ChipRun {
            label: name.to_string(),
            config: config.clone(),
            features: *features,
            outcome,
            profile,
        })
        .collect();
    let check = spans.begin("check");
    let correct: Vec<bool> = runs
        .iter()
        .zip(&prepared)
        .map(|(run, (_, a, _))| {
            let reference = spans.time("sparse.reference", || gustavson(a, a));
            run.outcome.as_ref().is_ok_and(|r| matches_reference(&r.product, &reference))
        })
        .collect();
    spans.end(check);
    summarize(&runs, &correct, setup_s, wall_s, spans)
}

fn eviction_name(policy: EvictionPolicy) -> &'static str {
    match policy {
        EvictionPolicy::Rolling => "rolling",
        EvictionPolicy::Barrier => "barrier",
    }
}

/// `design-sweep`: one matrix across every mapping, both eviction
/// policies, Tile-4 and Tile-16, and every HBM preset.
pub fn design_sweep(seed: u64, spans: &mut Spans) -> Measured {
    let mut cells = Vec::new();
    for mapping in MappingKind::ALL {
        for eviction in [EvictionPolicy::Rolling, EvictionPolicy::Barrier] {
            for tile in [TileSize::Tile4, TileSize::Tile16] {
                for hbm in HbmPreset::ALL {
                    cells.push(
                        ChipConfig::for_tile_size(tile)
                            .with_mapping(mapping)
                            .with_eviction(eviction)
                            .with_hbm_preset(hbm),
                    );
                }
            }
        }
    }
    let mmh_tiles: Vec<u8> = cells.iter().map(|config| config.mmh_tile).collect();
    let (setup_s, (_, a, features)) = repeated_setup(spans, |spans| {
        prepare(&[(SWEEP_DATASET, SWEEP_NODES)], seed, &mmh_tiles, spans).pop().expect("one input")
    });

    let timed_started = Instant::now();
    let timed = spans.begin("timed");
    let profiled = spans.enabled();
    let results = spans.time("lab.runner", || {
        Runner::new(SWEEP_THREADS).run(&cells, |_, config| {
            let task_started = Instant::now();
            let (outcome, profile) = run_once(config, &a, profiled);
            (outcome, profile, task_started, Instant::now(), std::thread::current().id())
        })
    });
    let runner_ended = Instant::now();
    let mut threads = Vec::new();
    let mut last_end: Vec<Instant> = Vec::new();
    let mut runs = Vec::with_capacity(cells.len());
    for (config, (outcome, profile, task_started, task_ended, thread)) in cells.iter().zip(results)
    {
        let worker = threads.iter().position(|&t| t == thread).unwrap_or_else(|| {
            threads.push(thread);
            last_end.push(task_ended);
            threads.len() - 1
        });
        last_end[worker] = last_end[worker].max(task_ended);
        spans.record("lab.task", task_started, task_ended, worker + 1);
        let label = format!(
            "{}/{}/{}/{}",
            config.tile_size.label(),
            config.mapping.name(),
            eviction_name(config.eviction),
            HbmPreset::of(&config.hbm).map_or("custom", |p| p.name())
        );
        runs.push(ChipRun { label, config: config.clone(), features, outcome, profile });
    }
    let artifact_bytes = spans.time("lab.emit", || {
        let mut artifact = Artifact::new("perfbench", 1);
        for run in &runs {
            if let Ok(ok) = &run.outcome {
                artifact.push(
                    RunRecord::new(format!("sweep/{}", run.label)).with_execution(&ok.report),
                );
            }
        }
        artifact.to_bytes().len()
    });
    spans.end(timed);
    let wall_s = timed_started.elapsed().as_secs_f64();

    let check = spans.begin("check");
    let reference = spans.time("sparse.reference", || gustavson(&a, &a));
    let correct: Vec<bool> = runs
        .iter()
        .map(|run| run.outcome.as_ref().is_ok_and(|r| matches_reference(&r.product, &reference)))
        .collect();
    spans.end(check);
    let mut measured = summarize(&runs, &correct, setup_s, wall_s, spans);
    if spans.enabled() {
        let runner_s = spans.total_s("lab.runner");
        let task_s = spans.total_s("lab.task");
        let first_idle = last_end.iter().min().copied().unwrap_or(runner_ended);
        measured.layers.extend([
            ("lab.task_s", task_s),
            ("lab.worker_idle_frac", 1.0 - task_s / (SWEEP_THREADS as f64 * runner_s)),
            ("lab.tail_s", runner_ended.duration_since(first_idle).as_secs_f64()),
            ("lab.emit_s", spans.total_s("lab.emit")),
            ("lab.artifact_bytes", artifact_bytes as f64),
        ]);
    }
    measured
}

/// Folds chip runs into the end-to-end metrics, the exact simulated counts
/// and (when tracing) the per-layer metrics.
fn summarize(
    runs: &[ChipRun],
    correct: &[bool],
    setup_s: f64,
    wall_s: f64,
    spans: &Spans,
) -> Measured {
    let mut m = Measured {
        setup_s,
        wall_s,
        attempted: runs.len() as u64,
        failed: correct.iter().filter(|&&ok| !ok).count() as u64,
        ..Measured::default()
    };
    let ok: Vec<(&ChipRun, &SpgemmRun)> =
        runs.iter().filter_map(|run| run.outcome.as_ref().ok().map(|r| (run, r))).collect();
    let sum = |f: &dyn Fn(&SpgemmRun) -> u64| ok.iter().map(|(_, r)| f(r)).sum::<u64>();
    let max = |f: &dyn Fn(&SpgemmRun) -> u64| ok.iter().map(|(_, r)| f(r)).max().unwrap_or(0);

    let cycles = sum(&|r| r.report.total_cycles);
    let mmh = sum(&|r| r.report.mmh_instructions);
    let hacc = sum(&|r| r.report.hacc_instructions);
    let busy = sum(&|r| r.report.core_busy_cycles);
    let stall = sum(&|r| r.report.core_stall_cycles);
    let idle = sum(&|r| r.report.core_idle_cycles);
    let evictions = sum(&|r| r.report.evictions);
    let component_cycles: u64 = ok
        .iter()
        .map(|(run, r)| {
            // Cores, NeuraMems, one router per torus node, one controller per tile.
            let nodes = run.config.total_cores() + run.config.total_mems();
            r.report.total_cycles * (2 * nodes + run.config.tiles) as u64
        })
        .sum();
    let analytic_err_pct = if ok.is_empty() {
        0.0
    } else {
        100.0
            * ok.iter()
                .map(|(run, r)| {
                    let estimate = AnalyticModel::calibrated().cycles(&run.config, &run.features);
                    let measured = r.report.total_cycles as f64;
                    (estimate - measured).abs() / measured
                })
                .sum::<f64>()
            / ok.len() as f64
    };

    m.e2e = vec![
        ("sim_instr_per_s", (mmh + hacc) as f64 / wall_s, "1/s"),
        ("sim_cycles_per_s", cycles as f64 / wall_s, "1/s"),
        ("chip_cycles", cycles as f64, "cycles"),
        ("analytic_err_pct", analytic_err_pct, "%"),
    ];

    for (run, r) in &ok {
        m.sim.insert(format!("cycles.{}", run.label), r.report.total_cycles as f64);
    }
    let counts = [
        ("chip.cycles", cycles),
        ("chip.mmh", mmh),
        ("chip.hacc", hacc),
        ("chip.core_busy", busy),
        ("chip.core_stall", stall),
        ("chip.core_idle", idle),
        ("chip.evictions", evictions),
        ("chip.output_nnz", sum(&|r| r.product.nnz() as u64)),
        ("hbm.bytes_read", sum(&|r| r.report.dram_bytes_read)),
        ("hbm.bytes_written", sum(&|r| r.report.dram_bytes_written)),
        ("hbm.in_flight_peak", max(&|r| r.report.peak_in_flight_mem as u64)),
        ("noc.packets", sum(&|r| r.report.noc_packets)),
        ("neuramem.hashpad_peak", max(&|r| r.report.peak_hashpad_occupancy as u64)),
        ("neuramem.hashpad_full_stalls", sum(&|r| r.report.hashpad_full_stalls)),
    ];
    m.sim.extend(counts.iter().map(|&(name, v)| (name.to_string(), v as f64)));

    if !spans.enabled() {
        return m;
    }
    let run_s = spans.total_s("chip.run_spgemm") + spans.total_s("lab.task");
    let profiles: Vec<(&Profile, &SpgemmRun)> =
        ok.iter().filter_map(|(run, r)| run.profile.as_ref().map(|p| (p, *r))).collect();
    let stall_by = |cause: StallCause| {
        profiles.iter().map(|(p, _)| p.stall_by_cause(cause)).sum::<u64>() as f64
    };
    let hops: u64 = profiles.iter().map(|(p, _)| p.hops_total()).sum();
    let delivered: u64 = profiles.iter().map(|(p, _)| p.noc_delivered()).sum();
    let dram_samples: u64 = profiles.iter().map(|(p, _)| p.dram_latency.count()).sum();
    let dram_latency: f64 = profiles
        .iter()
        .map(|(p, r)| r.report.mean_dram_latency * p.dram_latency.count() as f64)
        .sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.layers = vec![
        ("chip.idle_frac", ratio(idle as f64, (busy + stall + idle) as f64)),
        ("chip.host_ns_per_component_cycle", ratio(run_s * 1e9, component_cycles as f64)),
        ("chip.host_ns_per_hacc", ratio(run_s * 1e9, hacc as f64)),
        ("chip.compile_s", spans.total_s("chip.compile") / SETUP_REPEATS as f64),
        ("chip.run_s", run_s),
        ("chip.stall.operand_fetch", stall_by(StallCause::OperandFetch)),
        ("chip.stall.hashpad_full", stall_by(StallCause::HashpadFull)),
        ("chip.stall.noc_backpressure", stall_by(StallCause::NocBackpressure)),
        ("chip.stall.dispatch_starvation", stall_by(StallCause::DispatchStarvation)),
        ("hbm.in_flight_peak", m.sim["hbm.in_flight_peak"]),
        (
            "hbm.queue_peak",
            profiles
                .iter()
                .flat_map(|(p, _)| p.channel_queue_peaks.iter().copied())
                .max()
                .unwrap_or(0) as f64,
        ),
        ("hbm.bytes_read", m.sim["hbm.bytes_read"]),
        ("hbm.bytes_written", m.sim["hbm.bytes_written"]),
        ("hbm.mean_latency_cycles", ratio(dram_latency, dram_samples as f64)),
        ("neuramem.accumulate_ratio", ratio(hacc as f64, evictions as f64)),
        ("neuramem.hashpad_peak", m.sim["neuramem.hashpad_peak"]),
        ("noc.packets", m.sim["noc.packets"]),
        ("noc.mean_hops", ratio(hops as f64, delivered as f64)),
        ("sparse.generate_s", spans.total_s("sparse.generate") / SETUP_REPEATS as f64),
        ("sparse.reference_s", spans.total_s("sparse.reference")),
    ];
    m
}
