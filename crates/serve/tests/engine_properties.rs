//! Property tests of the serving engine's contracts: for *arbitrary*
//! scenario specs — bursty and Poisson streams, every policy, elastic
//! fleets, bounded queues, fault regimes — every admitted request is
//! served or shed exactly once and tracing never changes the outcome; and
//! the closed-loop lane decomposition is thread-invariant at any fixed
//! lane count.

use neura_chip::config::ChipConfig;
use neura_lab::Artifact;
use neura_serve::{
    simulate_config_traced_parallel, simulate_stream_config, simulate_stream_config_traced,
    ArrivalProcess, AutoscalePolicy, ClassCost, ClosedLoopSpec, CostTable, DispatchKind,
    EnginePlan, FaultSpec, Policy, RequestClass, ServeConfig, ShardGroup, StreamSpec, TraceEvent,
    Workload,
};
use proptest::prelude::*;

/// Synthetic Tile-16 costs with enough spread to exercise SJF reordering
/// and batching (same shape as the other serving property suites).
fn synthetic_costs(mix_size: usize, shrinks: &[usize]) -> CostTable {
    let mut costs = CostTable::new();
    let fp = costs.register(&ChipConfig::tile_16());
    for dataset in 0..mix_size {
        for &shrink in shrinks {
            let cycles = 2_000_000 * (dataset as u64 + 1) / shrink as u64;
            costs.insert(
                &fp,
                RequestClass { dataset, shrink },
                ClassCost { cycles, flops: cycles },
            );
        }
    }
    costs
}

fn tile16_fleet(n: usize) -> Vec<ShardGroup> {
    vec![ShardGroup::new("t16", ChipConfig::tile_16(), n)]
}

fn arb_stream() -> impl Strategy<Value = StreamSpec> {
    (0usize..2, 200.0f64..600.0, 1usize..=3, 0u64..1_000).prop_map(
        |(arrival, rps, mix_size, seed)| StreamSpec {
            arrival: ArrivalProcess::ALL[arrival],
            rps,
            duration_s: 1.0,
            mix_size,
            shrinks: vec![1, 2, 4],
            seed,
        },
    )
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (0usize..3, 1usize..=6, 0.0f64..0.02).prop_map(|(kind, max_batch, timeout_s)| match kind {
        0 => Policy::Fifo,
        1 => Policy::Sjf,
        _ => Policy::batch(max_batch, timeout_s),
    })
}

/// An arbitrary fault regime over the stream horizon: up to two crashes,
/// flaky or bricked provisioning, optionally degraded silicon.
fn arb_fault(window_s: f64) -> impl Strategy<Value = Option<FaultSpec>> {
    (0usize..2, 0u64..1_000, 0usize..=2, 0usize..3, 1.0f64..3.0).prop_map(
        move |(inject, seed, crashes, pf_pick, multiplier)| {
            (inject == 1).then(|| {
                FaultSpec::new(seed, window_s)
                    .with_crashes(crashes)
                    .with_provision_fail([0.0, 0.3, 1.0][pf_pick])
                    .with_degraded(0, multiplier)
            })
        },
    )
}

/// The artifact bytes a serving outcome would emit — the representation
/// the byte-identity contract is stated in.
fn artifact_bytes(outcome: &neura_serve::ServeOutcome) -> String {
    let mut artifact = Artifact::new("engine-prop", 1);
    artifact.extend(outcome.records("prop/case", &[]));
    artifact.to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Request conservation: for any scenario — including autoscaling,
    /// bounded queues and fault injection — every arrival is admitted or
    /// shed exactly once, and every admitted request completes exactly
    /// once (crash re-dispatches included). The traced replay's outcome
    /// and artifact bytes equal the untraced replay's.
    #[test]
    fn every_admitted_request_is_served_or_shed_exactly_once(
        spec in arb_stream(),
        policy in arb_policy(),
        shards in 2usize..=4,
        elastic in 0usize..2,
        bound_pick in 0usize..9,
        fault in arb_fault(1.0),
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let fleet = tile16_fleet(shards);
        let autoscale = AutoscalePolicy::new(1, shards + 1)
            .with_check_interval_s(0.005)
            .with_provision_delay_s(0.01)
            .with_up_backlog_per_shard(2.0);
        let mut cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        if elastic == 1 {
            cfg.autoscale = Some(&autoscale);
        }
        // 0 = unbounded; 1..=8 = a backlog bound tight enough to shed.
        cfg.queue_bound = (bound_pick > 0).then_some(bound_pick);
        cfg.faults = fault.as_ref();

        let (outcome, trace) = simulate_stream_config_traced(&stream, &cfg);
        let untraced = simulate_stream_config(&stream, &cfg);
        prop_assert_eq!(&outcome, &untraced);
        prop_assert_eq!(artifact_bytes(&outcome), artifact_bytes(&untraced));
        // Shed + served partition the stream.
        prop_assert_eq!(outcome.requests() + outcome.shed.len(), stream.len());
        prop_assert_eq!(outcome.latencies_s.len(), stream.len());
        for &id in &outcome.shed {
            prop_assert!(outcome.latencies_s[id] < 0.0, "shed request {} has a latency", id);
        }
        // Per request, the lifecycle: one arrival, then exactly one of
        // admit-and-complete or shed.
        let mut arrived = vec![0u32; stream.len()];
        let mut admitted = vec![0u32; stream.len()];
        let mut completed = vec![0u32; stream.len()];
        let mut shed = vec![0u32; stream.len()];
        for event in &trace.events {
            match *event {
                TraceEvent::Arrival { id, .. } => arrived[id] += 1,
                TraceEvent::Admit { id, .. } => admitted[id] += 1,
                TraceEvent::Complete { id, .. } => completed[id] += 1,
                TraceEvent::Shed { id, .. } => shed[id] += 1,
                _ => {}
            }
        }
        for id in 0..stream.len() {
            prop_assert!(arrived[id] == 1, "request {} arrived {} times", id, arrived[id]);
            prop_assert!(admitted[id] + shed[id] == 1, "request {} not admitted or shed once", id);
            prop_assert!(completed[id] == admitted[id], "request {} not completed once", id);
            prop_assert_eq!(outcome.latencies_s[id] >= 0.0, completed[id] == 1);
        }
    }

    /// The lane decomposition at any fixed lane count is invariant to the
    /// thread count, conserves every request, and respects the client cap.
    #[test]
    fn lanes_are_thread_invariant_at_any_lane_count(
        clients in 1usize..=24,
        think_ms in 0.0f64..3.0,
        lanes in 1usize..=4,
        extra_shards in 0usize..=3,
        seed in 0u64..500,
    ) {
        let workload = Workload::Closed(ClosedLoopSpec {
            clients,
            think_s: think_ms / 1e3,
            duration_s: 0.25,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        });
        let costs = synthetic_costs(2, &[1, 2]);
        let fleet = tile16_fleet(lanes + extra_shards);
        let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
        let plan = EnginePlan::serial().with_lanes(lanes);
        let (pinned, pinned_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &plan.clone().with_threads(1));
        let (pooled, pooled_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &plan.clone().with_threads(8));
        prop_assert_eq!(&pinned, &pooled);
        prop_assert_eq!(&pinned_trace, &pooled_trace);
        prop_assert_eq!(artifact_bytes(&pinned), artifact_bytes(&pooled));
        // Conservation: closed loops never shed; every latency is a real
        // served request and every batch slot is accounted once.
        prop_assert_eq!(pinned.requests(), pinned.latencies_s.len());
        prop_assert!(pinned.latencies_s.iter().all(|&l| l.is_finite() && l > 0.0));
        prop_assert_eq!(pinned.batch_sizes.iter().sum::<usize>(), pinned.requests());
        prop_assert_eq!(
            pinned.shard_stats.iter().map(|s| s.requests).sum::<u64>() as usize,
            pinned.requests()
        );
        prop_assert!(pinned.max_in_flight() <= clients);
    }
}
