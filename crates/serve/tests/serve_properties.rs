//! Property tests of the serving layer: generated streams are sorted,
//! deterministic per seed and respect the configured rate; batches never
//! exceed the configured maximum; every request is served exactly once by
//! every policy and dispatch combination; adding shards at a fixed arrival
//! rate never worsens tail latency; closed loops never exceed their client
//! count in flight; the in-flight peak matches a full event sort on every
//! kind of replay; a filtered subset of a stream replays by position; and
//! the autoscaler stays within its bounds and only changes the fleet after
//! the provisioning delay.

use neura_chip::config::ChipConfig;
use neura_serve::{
    simulate, simulate_config_parallel, simulate_stream, simulate_stream_config, ArrivalProcess,
    AutoscalePolicy, ClassCost, ClosedLoopSpec, CostTable, DispatchKind, EnginePlan, FaultSpec,
    Policy, Request, RequestClass, ServeConfig, ServeOutcome, ShardGroup, StreamSpec, Workload,
};
use proptest::prelude::*;

/// A synthetic cost table covering every class a generated stream can draw
/// on Tile-16 silicon: heavier datasets and lighter shrinks cost more,
/// with enough spread that SJF reordering and batching amortisation are
/// exercised.
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

/// A homogeneous Tile-16 fleet of `n` shards.
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

/// The peak in-flight count by the full event sort: +1 at each served
/// arrival, −1 at each completion, completions first on a tie.
fn max_in_flight_by_event_sort(outcome: &ServeOutcome) -> usize {
    let mut events: Vec<(f64, i64)> = Vec::new();
    for (&arrival, &latency) in outcome.arrivals_s.iter().zip(&outcome.latencies_s) {
        if latency < 0.0 {
            continue;
        }
        events.push((arrival, 1));
        events.push((arrival + latency, -1));
    }
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let (mut in_flight, mut peak) = (0i64, 0i64);
    for (_, delta) in events {
        in_flight += delta;
        peak = peak.max(in_flight);
    }
    peak as usize
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (0usize..3, 1usize..=6, 0.0f64..0.02).prop_map(|(kind, max_batch, timeout_s)| match kind {
        0 => Policy::Fifo,
        1 => Policy::Sjf,
        _ => Policy::batch(max_batch, timeout_s),
    })
}

fn arb_dispatch() -> impl Strategy<Value = DispatchKind> {
    (0usize..3).prop_map(|kind| DispatchKind::ALL[kind])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streams are time-sorted, reproducible per seed, and land within a
    /// generous tolerance band of the configured mean rate.
    #[test]
    fn streams_are_sorted_deterministic_and_rate_respecting(spec in arb_stream()) {
        let stream = spec.generate();
        // Same spec, same stream.
        prop_assert_eq!(&stream, &spec.generate());
        prop_assert!(stream.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for request in &stream {
            prop_assert!(request.arrival_s >= 0.0 && request.arrival_s < spec.duration_s);
            prop_assert!(request.class.dataset < spec.mix_size);
            prop_assert!(spec.shrinks.contains(&request.class.shrink));
        }
        // ≥ 200 expected arrivals: ±35% is > 5 sigma for a Poisson count.
        let expected = spec.rps * spec.duration_s;
        let n = stream.len() as f64;
        prop_assert!(
            (n - expected).abs() < expected * 0.35,
            "{} arrivals vs {} expected", n, expected
        );
    }

    /// Every policy/dispatch combination serves every request exactly
    /// once, with non-negative latency, and batches never exceed the
    /// configured maximum.
    #[test]
    fn every_request_is_served_exactly_once(
        spec in arb_stream(),
        policy in arb_policy(),
        dispatch in arb_dispatch(),
        shards in 1usize..=4,
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let outcome =
            simulate_stream(&stream, policy, &tile16_fleet(shards), dispatch, None, &costs);

        prop_assert_eq!(outcome.requests(), stream.len());
        // Every request appears in exactly one batch.
        prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), stream.len());
        let shard_total: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
        prop_assert_eq!(shard_total as usize, stream.len());
        let group_total: u64 = outcome.group_stats.iter().map(|g| g.requests).sum();
        prop_assert_eq!(group_total as usize, stream.len());
        let fp = ChipConfig::tile_16().fingerprint();
        for (id, &latency) in outcome.latencies_s.iter().enumerate() {
            let service = costs.service_seconds(&fp, stream[id].class, 1);
            prop_assert!(latency.is_finite() && latency > 0.0);
            prop_assert!(latency >= service * 0.999 - 1e-12,
                "request {} finished faster ({}) than its own service time ({})",
                id, latency, service);
        }
        if let Policy::BatchByDataset { max_batch, .. } = policy {
            prop_assert!(outcome.batch_sizes.iter().all(|&b| b >= 1 && b <= max_batch));
        } else {
            prop_assert!(outcome.batch_sizes.iter().all(|&b| b == 1));
        }
    }

    /// Work conservation: at a fixed arrival stream, adding shards never
    /// worsens p99 latency under FIFO (the acceptance property the `serve`
    /// binary's smoke check also pins).
    #[test]
    fn more_shards_never_worsen_fifo_p99(spec in arb_stream()) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let p99: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&shards| {
                simulate_stream(
                    &stream,
                    Policy::Fifo,
                    &tile16_fleet(shards),
                    DispatchKind::LeastLoaded,
                    None,
                    &costs,
                )
                .latency_percentile_s(99.0)
            })
            .collect();
        prop_assert!(p99[0] >= p99[1] - 1e-9, "s1 {} vs s2 {}", p99[0], p99[1]);
        prop_assert!(p99[1] >= p99[2] - 1e-9, "s2 {} vs s4 {}", p99[1], p99[2]);
    }

    /// Arms of a comparison replay identical streams: the outcome under
    /// one policy is a pure function of
    /// (stream, policy, fleet, dispatch, costs).
    #[test]
    fn simulation_is_deterministic(
        spec in arb_stream(),
        policy in arb_policy(),
        dispatch in arb_dispatch(),
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let fleet = tile16_fleet(2);
        let a = simulate_stream(&stream, policy, &fleet, dispatch, None, &costs);
        let b = simulate_stream(&stream, policy, &fleet, dispatch, None, &costs);
        prop_assert_eq!(a, b);
    }

    /// A closed loop never has more requests in flight than it has
    /// clients, every request is served, and the replay is deterministic.
    #[test]
    fn closed_loop_in_flight_never_exceeds_the_client_count(
        clients in 1usize..=16,
        think_ms in 0.0f64..5.0,
        policy in arb_policy(),
        shards in 1usize..=3,
        seed in 0u64..500,
    ) {
        let spec = ClosedLoopSpec {
            clients,
            think_s: think_ms / 1e3,
            duration_s: 0.25,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let costs = synthetic_costs(2, &[1, 2]);
        let workload = Workload::Closed(spec);
        let fleet = tile16_fleet(shards);
        let outcome =
            simulate(&workload, policy, &fleet, DispatchKind::LeastLoaded, None, &costs);
        prop_assert!(outcome.max_in_flight() <= clients,
            "{} in flight with {} clients", outcome.max_in_flight(), clients);
        prop_assert!(outcome.requests() >= 1, "staggered starts land inside the horizon");
        prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), outcome.requests());
        prop_assert!(outcome.latencies_s.iter().all(|l| l.is_finite() && *l > 0.0));
        // No request is issued at or beyond the horizon.
        prop_assert!(outcome.arrivals_s.iter().all(|&t| t < 0.25));
        let again = simulate(&workload, policy, &fleet, DispatchKind::LeastLoaded, None, &costs);
        prop_assert_eq!(outcome, again);
    }

    /// The merge-based in-flight peak equals the full event sort on every
    /// kind of replay: open, shedding at a queue bound, crashing shards,
    /// and closed loops, undecomposed and split into lanes.
    #[test]
    fn max_in_flight_matches_the_event_sort(
        spec in arb_stream(),
        kind in 0usize..5,
        policy in arb_policy(),
        shards in 2usize..=3,
        clients in 1usize..=16,
        think in 0usize..2,
    ) {
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let fleet = tile16_fleet(shards);
        let cfg = ServeConfig::new(policy, &fleet, DispatchKind::LeastLoaded, &costs);
        let faults = FaultSpec::new(spec.seed, spec.duration_s).with_crashes(2);
        let closed = Workload::Closed(ClosedLoopSpec {
            clients,
            // Zero think time re-issues at the completion instant, the tie
            // the merge must resolve completions-first.
            think_s: [0.0, 0.002][think],
            duration_s: 0.25,
            mix_size: spec.mix_size,
            shrinks: spec.shrinks.clone(),
            seed: spec.seed,
        });
        let outcome = match kind {
            0 => simulate_stream_config(&spec.generate(), &cfg),
            1 => simulate_stream_config(&spec.generate(), &cfg.with_queue_bound(2)),
            2 => simulate_stream_config(&spec.generate(), &cfg.with_faults(&faults)),
            3 => simulate_config_parallel(&closed, &cfg, &EnginePlan::serial()),
            _ => simulate_config_parallel(&closed, &cfg, &EnginePlan::serial().with_lanes(2)),
        };
        prop_assert_eq!(outcome.max_in_flight(), max_in_flight_by_event_sort(&outcome));
    }

    /// The autoscaled fleet stays within `[min, max]` shards *per group*
    /// at all times — even with several decisions in flight across a
    /// multi-group fleet — and every size change takes effect exactly one
    /// provisioning delay after its decision.
    #[test]
    fn autoscaler_respects_bounds_and_provisioning_delay(
        spec in arb_stream(),
        min in 1usize..=2,
        extra in 1usize..=3,
        groups in 1usize..=2,
        delay_ms in 1.0f64..40.0,
    ) {
        let max = min + extra;
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let policy = AutoscalePolicy::new(min, max)
            .with_check_interval_s(0.005)
            .with_provision_delay_s(delay_ms / 1e3)
            .with_up_backlog_per_shard(2.0);
        // Same silicon under distinct group names: the groups share their
        // cost memo (one fingerprint) but scale independently.
        let fleet: Vec<ShardGroup> = (0..groups)
            .map(|g| ShardGroup::new(format!("g{g}"), ChipConfig::tile_16(), min))
            .collect();
        let outcome = simulate_stream(
            &stream,
            Policy::Fifo,
            &fleet,
            DispatchKind::LeastLoaded,
            Some(&policy),
            &costs,
        );
        // Replay the events: every group's running count starts at `min`,
        // stays inside its own bounds, and every effect lags its decision
        // by exactly the delay.
        let mut active = vec![min as i64; groups];
        for event in &outcome.scale_events {
            prop_assert!(
                (event.effect_s - event.decision_s - delay_ms / 1e3).abs() < 1e-9,
                "effect at {} for a decision at {} (delay {})",
                event.effect_s, event.decision_s, delay_ms / 1e3
            );
            active[event.group] += event.delta;
            prop_assert_eq!(active.iter().sum::<i64>() as usize, event.active_total);
            let group_active = active[event.group];
            prop_assert!(group_active >= min as i64 && group_active <= max as i64,
                "group {} at {} shards, outside [{min}, {max}]", event.group, group_active);
        }
        for stats in &outcome.group_stats {
            prop_assert!(stats.peak_active <= max);
        }
        // Elasticity loses no requests.
        prop_assert_eq!(outcome.requests(), stream.len());
    }
}

/// Requests are identified by their position in the replayed slice, so a
/// sorted subset of a generated stream replays as a stream of its own.
#[test]
fn a_filtered_subset_of_a_stream_replays_by_position() {
    let spec = StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps: 400.0,
        duration_s: 0.5,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 21,
    };
    let subset: Vec<Request> = spec.generate().into_iter().step_by(2).collect();
    let costs = synthetic_costs(2, &[1, 2]);
    let fleet = tile16_fleet(2);
    let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    let outcome = simulate_stream_config(&subset, &cfg);
    assert_eq!(outcome.offered(), subset.len());
    assert_eq!(outcome.invalid_latencies(), 0);
    assert_eq!(outcome.requests() + outcome.shed.len(), outcome.offered());
}
