//! Hand-built scenarios for the closed-loop lane decomposition: its
//! thread invariance and request conservation, and the serial fallback
//! for scenarios a lane split would couple.

use neura_chip::config::ChipConfig;
use neura_serve::{
    simulate_config, simulate_config_parallel, simulate_config_traced_parallel, AutoscalePolicy,
    ClassCost, ClosedLoopSpec, CostTable, DispatchKind, EnginePlan, Policy, RequestClass,
    ServeConfig, ShardGroup, Workload,
};

/// Synthetic Tile-16 costs for datasets {0, 1} × shrinks {1, 2}.
fn costs() -> CostTable {
    let mut table = CostTable::new();
    let fp = table.register(&ChipConfig::tile_16());
    for dataset in 0..2usize {
        for shrink in [1usize, 2] {
            let cycles = 2_000_000 * (dataset as u64 + 1) / shrink as u64;
            table.insert(
                &fp,
                RequestClass { dataset, shrink },
                ClassCost { cycles, flops: cycles },
            );
        }
    }
    table
}

fn tile16_fleet(n: usize) -> Vec<ShardGroup> {
    vec![ShardGroup::new("t16", ChipConfig::tile_16(), n)]
}

#[test]
fn lane_decomposition_is_thread_invariant_and_conserves_requests() {
    let costs = costs();
    let fleet = tile16_fleet(6);
    let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 25,
        think_s: 0.001,
        duration_s: 0.25,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 99,
    });
    let lanes = EnginePlan::serial().with_lanes(3);
    let (pinned, pinned_trace) =
        simulate_config_traced_parallel(&workload, &cfg, &lanes.clone().with_threads(1));
    for threads in [2usize, 8] {
        let (pooled, pooled_trace) =
            simulate_config_traced_parallel(&workload, &cfg, &lanes.clone().with_threads(threads));
        assert_eq!(pinned, pooled, "a fixed lane count must be thread invariant");
        assert_eq!(pinned_trace, pooled_trace);
    }
    // One lane is the serial engine exactly.
    assert_eq!(
        simulate_config(&workload, &cfg),
        simulate_config_parallel(&workload, &cfg, &EnginePlan::serial().with_lanes(1)),
    );
    // Conservation and closed-loop invariants hold on the merged outcome.
    assert_eq!(pinned.latencies_s.len(), pinned.requests(), "closed loops never shed");
    assert!(pinned.latencies_s.iter().all(|&l| l.is_finite() && l > 0.0));
    assert_eq!(pinned.batch_sizes.iter().sum::<usize>(), pinned.requests());
    assert_eq!(
        pinned.shard_stats.iter().map(|s| s.requests).sum::<u64>() as usize,
        pinned.requests()
    );
    assert!(pinned.max_in_flight() <= 25);
    // Lanes partition the fleet: the merged slot layout still spans all
    // six shards and every lane's shards did work.
    assert_eq!(pinned.shard_stats.len(), 6);
    assert!(pinned.shard_stats.iter().all(|s| s.requests > 0));
}

#[test]
fn ineligible_scenarios_fall_back_to_serial_under_a_lane_plan() {
    let costs = costs();
    let fleet = tile16_fleet(2);
    let autoscale = AutoscalePolicy::new(1, 3).with_check_interval_s(1.0 / 256.0);
    let mut cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    cfg.autoscale = Some(&autoscale);
    // Autoscaling makes the closed loop ineligible for lanes: the plan's
    // lane request must quietly degrade to the serial replay, on any
    // thread count.
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 8,
        think_s: 0.001,
        duration_s: 0.25,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 3,
    });
    let serial = simulate_config(&workload, &cfg);
    assert!(!serial.scale_events.is_empty(), "the autoscaler must act");
    for threads in [1usize, 2, 8] {
        let plan = EnginePlan::serial().with_lanes(4).with_threads(threads);
        assert_eq!(serial, simulate_config_parallel(&workload, &cfg, &plan));
    }
}
