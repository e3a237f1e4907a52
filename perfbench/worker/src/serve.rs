//! The `serve-mix` workload: the serving model over a cost table priced by
//! the analytic tier, so no chip cycle simulation runs.
//!
//! It replays the six library scenarios as open loops at their calibrated
//! loads, plus one closed loop with thousands of clients, through the
//! plain serial entry points, and emits every outcome as one artifact.

use std::time::Instant;

use neura_chip::analytic::WorkloadFeatures;
use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::Artifact;
use neura_serve::cost::analytic_class_cost;
use neura_serve::{
    simulate_config, simulate_config_traced, simulate_stream_config, simulate_stream_config_traced,
    ArrivalProcess, AutoscalePolicy, ClosedLoopSpec, CostTable, DispatchKind, FleetMix, Policy,
    Request, RequestClass, ScenarioSpec, ServeConfig, ServeOutcome, StreamSpec, Workload,
};

use crate::chip::{analog, figure_nodes};
use crate::spans::Spans;
use crate::{mix_seed, repeated_setup, Measured, SETUP_REPEATS};

/// The request mix of the `serve` binary: datasets and per-request shrinks.
const MIX: [&str; 3] = ["cora", "wiki-Vote", "facebook"];
const SHRINKS: [usize; 3] = [1, 2, 4];

/// Offered requests per arm at the base rate (rate shapes move it a little).
const REQUESTS_PER_ARM: f64 = 300_000.0;

/// Clients of the closed-loop arm.
const CLOSED_CLIENTS: usize = 4_096;

/// Shards of the two-shard Tile-16 fleet every arm runs on.
const SHARDS: usize = 2;

/// What the checks and metrics need from one replay; the outcome itself is
/// dropped as soon as it has been reported.
#[derive(Default)]
struct Totals {
    replays: u64,
    failed: u64,
    offered: u64,
    shed: u64,
    served_latencies_s: Vec<f64>,
    max_in_flight: u64,
    redispatched: u64,
    batches: u64,
    batched_requests: u64,
    trace_events: u64,
    busy_s: f64,
}

impl Totals {
    /// Checks one replay (served + shed = offered, no invalid latency) and
    /// folds it in.
    fn add(&mut self, label: &str, outcome: &ServeOutcome, expected_offered: Option<usize>) {
        let offered = outcome.offered();
        let ok = outcome.requests() + outcome.shed.len() == offered
            && outcome.invalid_latencies() == 0
            && expected_offered.is_none_or(|n| n == offered);
        if !ok {
            eprintln!("perfbench: serve arm {label} failed its accounting check");
        }
        self.replays += 1;
        self.failed += u64::from(!ok);
        self.offered += offered as u64;
        self.shed += outcome.shed.len() as u64;
        self.served_latencies_s.extend(outcome.latencies_s.iter().copied().filter(|&l| l >= 0.0));
        self.max_in_flight = self.max_in_flight.max(outcome.max_in_flight() as u64);
        self.redispatched += outcome.redispatched() as u64;
        self.batches += outcome.batch_sizes.len() as u64;
        self.batched_requests += outcome.batch_sizes.iter().sum::<usize>() as u64;
        self.busy_s += outcome.group_stats.iter().map(|g| g.busy_s).sum::<f64>();
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One open-loop arm, its arrivals generated during setup.
struct OpenArm {
    spec: ScenarioSpec,
    requests: Vec<Request>,
    seed: u64,
    duration_s: f64,
}

/// Everything the timed phase replays.
struct Prepared {
    costs: CostTable,
    controller: AutoscalePolicy,
    arms: Vec<OpenArm>,
    closed: ClosedLoopSpec,
}

/// Prices the request classes and generates every arm's arrivals.
fn prepare(seed: u64, spans: &mut Spans) -> Prepared {
    let config = ChipConfig::for_tile_size(TileSize::Tile16);
    let classes: Vec<RequestClass> = (0..MIX.len())
        .flat_map(|dataset| SHRINKS.map(|shrink| RequestClass { dataset, shrink }))
        .collect();
    let matrices = spans.time("sparse.generate", || {
        classes
            .iter()
            .enumerate()
            .map(|(i, class)| {
                let name = MIX[class.dataset];
                // Figure-binary fidelity divided by the request's shrink.
                let nodes = (figure_nodes(name) / class.shrink).max(32);
                analog(name, nodes, mix_seed(seed, i as u64))
            })
            .collect::<Vec<_>>()
    });
    let (costs, fingerprint) = spans.time("serve.cost_table", || {
        let mut costs = CostTable::new();
        let fingerprint = costs.register(&config);
        for (class, a) in classes.iter().zip(&matrices) {
            let cost = analytic_class_cost(&config, &WorkloadFeatures::from_square(a));
            costs.insert(&fingerprint, *class, cost);
        }
        (costs, fingerprint)
    });
    let mean_service_s =
        classes.iter().map(|&c| costs.service_seconds(&fingerprint, c, 1)).sum::<f64>()
            / classes.len() as f64;
    let controller = AutoscalePolicy::new(1, 4)
        .with_check_interval_s(mean_service_s * 5.0)
        .with_provision_delay_s(mean_service_s * 25.0);
    let arms: Vec<OpenArm> = spans.time("serve.arrivals", || {
        ScenarioSpec::library()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let rps = (spec.load * SHARDS as f64 / mean_service_s).max(1.0).round();
                let duration_s = REQUESTS_PER_ARM / rps;
                let arm_seed = mix_seed(seed, 100 + i as u64);
                let base = StreamSpec {
                    arrival: ArrivalProcess::Poisson,
                    rps,
                    duration_s,
                    mix_size: MIX.len(),
                    shrinks: SHRINKS.to_vec(),
                    seed: arm_seed,
                };
                let requests = spec.shaped(base).generate();
                OpenArm { spec, requests, seed: arm_seed, duration_s }
            })
            .collect()
    });
    // Closed loop at ~80 % of the fleet: clients cycle once per think plus
    // response time.
    let closed = ClosedLoopSpec {
        clients: CLOSED_CLIENTS,
        think_s: CLOSED_CLIENTS as f64 * mean_service_s / (0.8 * SHARDS as f64) - mean_service_s,
        duration_s: REQUESTS_PER_ARM * mean_service_s / (0.8 * SHARDS as f64),
        mix_size: MIX.len(),
        shrinks: SHRINKS.to_vec(),
        seed: mix_seed(seed, 200),
    };
    Prepared { costs, controller, arms, closed }
}

pub fn serve_mix(seed: u64, spans: &mut Spans) -> Measured {
    let fleet = FleetMix::uniform(TileSize::Tile16, SHARDS);
    let (setup_s, Prepared { costs, controller, arms, closed }) =
        repeated_setup(spans, |spans| prepare(seed, spans));

    let timed_started = Instant::now();
    let timed = spans.begin("timed");
    let traced = spans.enabled();
    let mut totals = Totals::default();
    let mut artifact = Artifact::new("perfbench", 1);
    for arm in &arms {
        let faults = arm.spec.fault_spec(arm.seed, arm.duration_s);
        let mut cfg =
            ServeConfig::new(Policy::Fifo, &fleet.groups, DispatchKind::LeastLoaded, &costs);
        cfg.autoscale = arm.spec.elastic.then_some(&controller);
        cfg.queue_bound = arm.spec.queue_bound;
        cfg.tenants = arm.spec.tenants.as_ref();
        cfg.faults = faults.as_ref();
        let outcome = spans.time("serve.engine", || {
            if traced {
                let (outcome, trace) = simulate_stream_config_traced(&arm.requests, &cfg);
                totals.trace_events += trace.events.len() as u64;
                outcome
            } else {
                simulate_stream_config(&arm.requests, &cfg)
            }
        });
        let scope = format!("serve/scn-{}", arm.spec.name);
        artifact.extend(spans.time("serve.report", || outcome.records(&scope, &[])));
        totals.add(&scope, &outcome, Some(arm.requests.len()));
    }
    {
        let workload = Workload::Closed(closed);
        let cfg = ServeConfig::new(Policy::Fifo, &fleet.groups, DispatchKind::LeastLoaded, &costs);
        let outcome = spans.time("serve.engine", || {
            if traced {
                let (outcome, trace) = simulate_config_traced(&workload, &cfg);
                totals.trace_events += trace.events.len() as u64;
                outcome
            } else {
                simulate_config(&workload, &cfg)
            }
        });
        let scope = "serve/closed";
        artifact.extend(spans.time("serve.report", || outcome.records(scope, &[])));
        totals.add(scope, &outcome, None);
    }
    let artifact_bytes = spans.time("lab.emit", || artifact.to_bytes().len());
    spans.end(timed);
    let wall_s = timed_started.elapsed().as_secs_f64();

    let mut sorted = std::mem::take(&mut totals.served_latencies_s);
    sorted.sort_by(f64::total_cmp);
    let served = sorted.len() as f64;
    let p50_ms = percentile(&sorted, 50.0) * 1e3;
    let p99_ms = percentile(&sorted, 99.0) * 1e3;
    let shed_frac = totals.shed as f64 / totals.offered.max(1) as f64;
    // Chip-cycles the fleet spent serving: its busy time at the Tile-16 clock.
    let frequency_ghz = ChipConfig::for_tile_size(TileSize::Tile16).frequency_ghz;
    let busy_cycles = (totals.busy_s * frequency_ghz * 1e9).round();
    let mut m = Measured {
        setup_s,
        wall_s,
        attempted: totals.replays,
        failed: totals.failed,
        ..Measured::default()
    };
    m.e2e = vec![
        ("serve_requests_per_s", totals.offered as f64 / wall_s, "1/s"),
        ("serve_p50_ms", p50_ms, "ms"),
        ("serve_p50_samples", served, "count"),
        ("serve_p99_ms", p99_ms, "ms"),
        ("serve_p99_samples", served, "count"),
        ("serve_shed_frac", shed_frac, "fraction"),
        ("serve_busy_cycles", busy_cycles, "cycles"),
    ];
    m.sim = [
        ("serve.offered", totals.offered as f64),
        ("serve.shed", totals.shed as f64),
        ("serve.busy_cycles", busy_cycles),
        ("serve.served", served),
        ("serve.p50_ms", p50_ms),
        ("serve.p99_ms", p99_ms),
        ("serve.max_in_flight", totals.max_in_flight as f64),
        ("serve.redispatched", totals.redispatched as f64),
        ("serve.batches", totals.batches as f64),
        ("lab.artifact_bytes", artifact_bytes as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    if traced {
        let engine_s = spans.total_s("serve.engine");
        m.layers = vec![
            ("sparse.generate_s", spans.total_s("sparse.generate") / SETUP_REPEATS as f64),
            ("serve.arrivals_s", spans.total_s("serve.arrivals") / SETUP_REPEATS as f64),
            ("serve.cost_table_s", spans.total_s("serve.cost_table") / SETUP_REPEATS as f64),
            ("serve.engine_s", engine_s),
            ("serve.report_s", spans.total_s("serve.report")),
            ("serve.host_ns_per_request", engine_s * 1e9 / totals.offered.max(1) as f64),
            ("serve.max_in_flight", totals.max_in_flight as f64),
            ("serve.redispatched", totals.redispatched as f64),
            ("serve.mean_batch", totals.batched_requests as f64 / totals.batches.max(1) as f64),
            ("serve.trace_events", totals.trace_events as f64),
            ("lab.emit_s", spans.total_s("lab.emit")),
            ("lab.artifact_bytes", artifact_bytes as f64),
        ];
    }
    m
}
