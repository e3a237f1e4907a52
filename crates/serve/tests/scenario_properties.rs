//! Property tests of the production-traffic scenario layer: shaped
//! streams thin deterministically, stay sorted and equal the two-step
//! generate-then-thin path; a queue bound the
//! backlog never reaches changes nothing; shed rate is monotone in
//! offered load while the bound caps admitted p99 and queue depth at 3x
//! capacity; token-bucket rate limits bound every tenant's admitted
//! throughput; and every library scenario arm — faults, autoscaler and
//! all — is byte-identical across runner thread counts.

use neura_chip::config::ChipConfig;
use neura_lab::spec::derive_seed;
use neura_serve::scenario::TENANT_BURST_S;
use neura_serve::{
    simulate_config, simulate_stream, simulate_stream_config, ArrivalProcess, AutoscalePolicy,
    ClassCost, CostTable, DispatchKind, Policy, RateShape, Request, RequestClass, ScenarioSpec,
    ServeConfig, ServeOutcome, ShapedStream, ShardGroup, StreamSpec, TenantMix, TenantSpec,
    Workload,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A synthetic cost table covering every class a generated stream can
/// draw on Tile-16 silicon (same spread as `serve_properties`).
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

/// Mean service time of one request across the synthetic classes.
fn mean_service_s(costs: &CostTable, mix_size: usize, shrinks: &[usize]) -> f64 {
    let fp = ChipConfig::tile_16().fingerprint();
    let classes: Vec<RequestClass> = (0..mix_size)
        .flat_map(|dataset| shrinks.iter().map(move |&shrink| RequestClass { dataset, shrink }))
        .collect();
    classes.iter().map(|&c| costs.service_seconds(&fp, c, 1)).sum::<f64>() / classes.len() as f64
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

/// The shaped-stream generator as two separate passes: the peak-rate base
/// stream in full, then a thinning and tenant-assignment loop over it.
fn two_step_generate(shaped: &ShapedStream) -> Vec<Request> {
    let peak: f64 = shaped.shapes.iter().map(RateShape::peak).product();
    let raw = StreamSpec { rps: shaped.base.rps * peak, ..shaped.base.clone() }.generate();
    let mut thin = StdRng::seed_from_u64(derive_seed(shaped.base.seed, "shape"));
    let mut tenant_rng = StdRng::seed_from_u64(derive_seed(shaped.base.seed, "tenant"));
    let mut requests = Vec::new();
    for request in raw {
        let factor: f64 = shaped
            .shapes
            .iter()
            .map(|s| s.factor(request.arrival_s, shaped.base.duration_s))
            .product();
        if thin.gen::<f64>() < factor / peak {
            let tenant = shaped.tenants.as_ref().map_or(0, |mix| mix.draw(&mut tenant_rng));
            requests.push(Request { tenant, ..request });
        }
    }
    requests
}

fn arb_shapes() -> impl Strategy<Value = Vec<RateShape>> {
    (0usize..4, (1.0f64..6.0, 0.0f64..0.9), (0.0f64..0.8, 0.05f64..0.2, 1.0f64..6.0)).prop_map(
        |(pick, (cycles, depth), (start, width, boost))| {
            let diurnal = RateShape::Diurnal { cycles: cycles.round(), depth };
            let flash = RateShape::Flash { start, width, boost };
            match pick {
                0 => Vec::new(),
                1 => vec![diurnal],
                2 => vec![flash],
                _ => vec![diurnal, flash],
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Shaped streams are a pure function of their spec: generated twice
    /// they match, survivors stay time-sorted with positional IDs, no
    /// arrival escapes the horizon, and thinning can only ever *remove*
    /// requests relative to the peak-rate base stream.
    #[test]
    fn shaped_streams_thin_deterministically(base in arb_stream(), shapes in arb_shapes()) {
        let shaped = ShapedStream { base: base.clone(), shapes: shapes.clone(), tenants: None };
        let stream = shaped.generate();
        prop_assert_eq!(&stream, &shaped.generate());
        prop_assert!(stream.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        for request in &stream {
            prop_assert!(request.arrival_s >= 0.0 && request.arrival_s < base.duration_s);
            prop_assert_eq!(request.tenant, 0);
        }
        let peak: f64 = shapes.iter().map(RateShape::peak).product();
        let raw = StreamSpec { rps: base.rps * peak, ..base }.generate();
        prop_assert!(stream.len() <= raw.len(), "thinning never adds requests");
    }

    /// Fused generation is the two-step path: thinning candidates as they
    /// are drawn yields exactly the stream of generating the peak-rate
    /// base in full and thinning it afterwards, tenants included.
    #[test]
    fn fused_generation_matches_the_two_step_path(
        base in arb_stream(),
        shapes in arb_shapes(),
        with_tenants in 0usize..2,
    ) {
        let tenants = (with_tenants == 1).then(|| {
            TenantMix::new(vec![
                TenantSpec { name: "a".into(), weight: 3.0, rate_limit_rps: None, slo_s: None },
                TenantSpec { name: "b".into(), weight: 1.0, rate_limit_rps: None, slo_s: None },
            ])
        });
        let shaped = ShapedStream { base, shapes, tenants };
        prop_assert_eq!(shaped.generate(), two_step_generate(&shaped));
    }

    /// A queue bound the backlog never reaches is a no-op: the bounded
    /// outcome equals the unbounded one byte for byte, with zero shed.
    #[test]
    fn bounds_above_the_backlog_peak_shed_nothing(
        spec in arb_stream(),
        shards in 1usize..=3,
    ) {
        let stream = spec.generate();
        let costs = synthetic_costs(spec.mix_size, &spec.shrinks);
        let groups = tile16_fleet(shards);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let unbounded = simulate_stream_config(&stream, &cfg);
        let bounded = simulate_stream_config(
            &stream,
            &cfg.with_queue_bound(unbounded.queue_depth_max + 1),
        );
        prop_assert_eq!(bounded.shed.len(), 0);
        prop_assert_eq!(bounded, unbounded);
    }

    /// The overload pins: shed rate grows monotonically with offered load,
    /// and at 3x capacity the bounded queue caps both the admitted p99
    /// (ten bound-lengths of the costliest request, a horizon-independent
    /// constant) and the queue depth, while every request stays
    /// exactly-once accounted.
    #[test]
    fn shedding_bounds_admitted_p99_and_depth_at_3x_capacity(seed in 0u64..500) {
        let mix_size = 2;
        let shrinks = vec![1, 2, 4];
        let costs = synthetic_costs(mix_size, &shrinks);
        let shards = 2;
        let groups = tile16_fleet(shards);
        let capacity_rps = shards as f64 / mean_service_s(&costs, mix_size, &shrinks);
        let bound = 32usize;
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs)
            .with_queue_bound(bound);
        let mut shed_rates = Vec::new();
        let mut at_3x: Option<ServeOutcome> = None;
        for load in [0.5, 1.0, 3.0] {
            let stream = StreamSpec {
                arrival: ArrivalProcess::Poisson,
                rps: load * capacity_rps,
                duration_s: 0.5,
                mix_size,
                shrinks: shrinks.clone(),
                seed,
            }
            .generate();
            let outcome = simulate_stream_config(&stream, &cfg);
            prop_assert_eq!(outcome.offered(), stream.len());
            prop_assert_eq!(outcome.requests() + outcome.shed.len(), stream.len());
            prop_assert_eq!(outcome.batch_sizes.iter().sum::<usize>(), outcome.requests());
            let shard_total: u64 = outcome.shard_stats.iter().map(|s| s.requests).sum();
            prop_assert_eq!(shard_total as usize, outcome.requests());
            prop_assert!(outcome.queue_depth_max <= bound, "the bound caps the backlog");
            shed_rates.push(outcome.shed_rate());
            if load == 3.0 {
                at_3x = Some(outcome);
            }
        }
        // Monotone in load, with a hair of slack for Poisson noise.
        prop_assert!(shed_rates[0] <= shed_rates[1] + 0.02, "{shed_rates:?}");
        prop_assert!(shed_rates[1] <= shed_rates[2] + 0.02, "{shed_rates:?}");
        let at_3x = at_3x.expect("the 3x arm ran");
        prop_assert!(at_3x.shed_rate() > 0.3, "3x capacity must shed hard, got {}",
            at_3x.shed_rate());
        let fp = ChipConfig::tile_16().fingerprint();
        let max_service = (0..mix_size)
            .flat_map(|d| shrinks.iter().map(move |&s| RequestClass { dataset: d, shrink: s }))
            .map(|c| costs.service_seconds(&fp, c, 1))
            .fold(0.0f64, f64::max);
        let p99_cap = (bound as f64 + shards as f64) * max_service;
        let p99 = at_3x.latency_percentile_s(99.0);
        prop_assert!(p99 <= p99_cap, "admitted p99 {p99} above the shedding cap {p99_cap}");
    }

    /// Token-bucket rate limits hold: a limited tenant never admits more
    /// than its burst allowance plus `rate x horizon` requests, however
    /// hard it offers.
    #[test]
    fn tenant_rate_limits_bound_admitted_throughput(
        seed in 0u64..500,
        limit_rps in 50.0f64..400.0,
        pressure in 2.0f64..6.0,
    ) {
        let duration_s = 0.5;
        let base = StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps: limit_rps * pressure,
            duration_s,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed,
        };
        let mix = TenantMix::new(vec![TenantSpec {
            name: "limited".to_string(),
            weight: 1.0,
            rate_limit_rps: Some(limit_rps),
            slo_s: None,
        }]);
        let workload = Workload::Shaped(ShapedStream::tenants_only(base, mix));
        let costs = synthetic_costs(2, &[1, 2]);
        let groups = tile16_fleet(4);
        let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
        let outcome = simulate_config(&workload, &cfg);
        let tenant = &outcome.tenant_outcomes[0];
        prop_assert_eq!(tenant.offered as usize, outcome.offered());
        let admitted = tenant.offered - tenant.shed;
        let burst = (limit_rps * TENANT_BURST_S).max(1.0);
        let cap = burst + limit_rps * duration_s + 1.0;
        prop_assert!((admitted as f64) <= cap,
            "tenant admitted {admitted} requests against a cap of {cap}");
        prop_assert_eq!(outcome.shed_limit, tenant.shed);
    }
}

/// Every library scenario arm — rate shapes, tenants, queue bound, faults
/// and the autoscaler included — produces the identical outcome whether
/// the lab runner fans out over 2 or 8 threads, and on repeat runs. This
/// is the in-crate twin of the `serve` artifact byte-identity check.
#[test]
fn library_scenario_arms_are_identical_across_runner_threads() {
    use neura_lab::Runner;

    let mix_size = 2;
    let shrinks = vec![1, 2, 4];
    let costs = synthetic_costs(mix_size, &shrinks);
    let shards = 2;
    let capacity_rps = shards as f64 / mean_service_s(&costs, mix_size, &shrinks);
    let duration_s = 0.3;
    let library = ScenarioSpec::library();
    assert!(library.len() >= 5, "the sweep promises at least 5 named arms");

    let run_all = |threads: usize| -> Vec<ServeOutcome> {
        Runner::new(threads).run(&library, |index, scenario: &ScenarioSpec| {
            let seed = neura_lab::spec::derive_seed(77, scenario.name);
            let base = StreamSpec {
                arrival: ArrivalProcess::Poisson,
                rps: scenario.load * capacity_rps,
                duration_s,
                mix_size,
                shrinks: shrinks.clone(),
                seed,
            };
            let workload = Workload::Shaped(scenario.shaped(base));
            let groups = tile16_fleet(shards);
            let autoscale = AutoscalePolicy::new(1, 4)
                .with_check_interval_s(0.002)
                .with_provision_delay_s(0.01);
            let fault = scenario.fault_spec(seed, duration_s);
            let mut cfg =
                ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
            if scenario.elastic {
                cfg = cfg.with_autoscale(&autoscale);
            }
            cfg.queue_bound = scenario.queue_bound;
            cfg.faults = fault.as_ref();
            let outcome = simulate_config(&workload, &cfg);
            assert_eq!(
                outcome.requests() + outcome.shed.len(),
                outcome.offered(),
                "scenario {:?} (arm {index}) loses requests",
                scenario.name
            );
            outcome
        })
    };

    let two = run_all(2);
    let eight = run_all(8);
    assert_eq!(two, eight, "outcomes diverge across runner thread counts");
    assert_eq!(two, run_all(2), "outcomes diverge across repeat runs");
}

/// The plain-stream entry points agree with the config entry points, so
/// the legacy `simulate_stream` callers and the `ServeConfig` callers can
/// never drift apart.
#[test]
fn config_and_legacy_entry_points_agree() {
    let spec = StreamSpec {
        arrival: ArrivalProcess::Poisson,
        rps: 400.0,
        duration_s: 0.5,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 3,
    };
    let stream = spec.generate();
    let costs = synthetic_costs(2, &[1, 2]);
    let groups = tile16_fleet(2);
    let legacy =
        simulate_stream(&stream, Policy::Fifo, &groups, DispatchKind::LeastLoaded, None, &costs);
    let cfg = ServeConfig::new(Policy::Fifo, &groups, DispatchKind::LeastLoaded, &costs);
    assert_eq!(legacy, simulate_stream_config(&stream, &cfg));
}
