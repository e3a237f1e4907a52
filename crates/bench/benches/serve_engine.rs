//! Criterion benchmark of the serving engine: one large closed-loop
//! scenario replayed serially and as lane decompositions at increasing
//! lane counts. The lane rows measure the decomposed scenario that the
//! `serve` binary's `--speedup` demo scales across cores.
//!
//! Two open-loop rows cover the path the library scenarios take: a
//! ~300k-request flash-crowd stream on the same fleet, generated
//! (`open/generate`) and replayed serially (`open/replay`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neura_chip::config::ChipConfig;
use neura_serve::{
    simulate_config_parallel, simulate_stream_config, ArrivalProcess, ClassCost, ClosedLoopSpec,
    CostTable, DispatchKind, EnginePlan, Policy, RateShape, RequestClass, ServeConfig,
    ShapedStream, ShardGroup, StreamSpec, Workload,
};

/// Requests of the open-loop stream at its base rate.
const OPEN_REQUESTS: f64 = 300_000.0;

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

fn bench_serve_engine(c: &mut Criterion) {
    let costs = costs();
    let fleet = vec![ShardGroup::new("t16", ChipConfig::tile_16(), 8)];
    let cfg = ServeConfig::new(Policy::Fifo, &fleet, DispatchKind::LeastLoaded, &costs);
    let workload = Workload::Closed(ClosedLoopSpec {
        clients: 4_096,
        think_s: 0.001,
        duration_s: 0.5,
        mix_size: 2,
        shrinks: vec![1, 2],
        seed: 0x5EED,
    });

    let mut group = c.benchmark_group("serve_engine");
    group.sample_size(10);
    let plans = [
        ("serial", EnginePlan::serial()),
        ("lanes2", EnginePlan::serial().with_lanes(2)),
        ("lanes4", EnginePlan::serial().with_lanes(4)),
        ("lanes8", EnginePlan::serial().with_lanes(8)),
    ];
    for (name, plan) in &plans {
        group.bench_with_input(BenchmarkId::from_parameter(name), plan, |b, plan| {
            b.iter(|| simulate_config_parallel(&workload, &cfg, plan).requests());
        });
    }

    // The library's flash crowd at 70 % of the fleet's mean capacity.
    let fp = ChipConfig::tile_16().fingerprint();
    let classes = [(0, 1), (0, 2), (1, 1), (1, 2)];
    let mean_service_s = classes
        .iter()
        .map(|&(dataset, shrink)| costs.service_seconds(&fp, RequestClass { dataset, shrink }, 1))
        .sum::<f64>()
        / classes.len() as f64;
    let rps = 0.7 * fleet[0].shards as f64 / mean_service_s;
    let shaped = ShapedStream {
        base: StreamSpec {
            arrival: ArrivalProcess::Poisson,
            rps,
            duration_s: OPEN_REQUESTS / rps,
            mix_size: 2,
            shrinks: vec![1, 2],
            seed: 0x5EED,
        },
        shapes: vec![RateShape::Flash { start: 0.5, width: 0.1, boost: 4.0 }],
        tenants: None,
    };
    group.bench_function("open/generate", |b| b.iter(|| shaped.generate().len()));
    let stream = shaped.generate();
    group.bench_function("open/replay", |b| {
        b.iter(|| simulate_stream_config(&stream, &cfg).requests());
    });
    group.finish();
}

criterion_group!(benches, bench_serve_engine);
criterion_main!(benches);
