//! Criterion benchmarks of the reference SpGEMM dataflows and of the
//! NeuraCompiler that lowers an SpGEMM onto `MMH` instructions.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neura_chip::compiler::compile_spgemm;
use neura_sparse::gen::GraphGenerator;
use neura_sparse::spgemm::{self, Dataflow};
use neura_sparse::DatasetCatalog;

fn bench_spgemm(c: &mut Criterion) {
    let a = GraphGenerator::power_law(1_000, 8_000, 2.1, 7).generate().to_csr();
    let mut group = c.benchmark_group("spgemm_kernels");
    group.sample_size(10);
    for dataflow in [
        Dataflow::RowWise,
        Dataflow::InnerProduct,
        Dataflow::OuterProduct,
        Dataflow::TiledRowWise(4),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(dataflow.name()), &dataflow, |b, df| {
            b.iter(|| spgemm::multiply(&a, &a, *df).unwrap());
        });
    }

    // Compile cost of a high-bloat input: a ~1k-node banded poisson3Da
    // analog lowered to MMH4, the set-up work of a Tile-4 chip run.
    let dataset = DatasetCatalog::by_name("poisson3Da").expect("poisson3Da is in the catalog");
    let banded = dataset.generate_scaled(dataset.nodes / 1_000, 1).to_csr();
    let banded_csc = banded.to_csc();
    group.bench_function("compile_spgemm/poisson3Da-1k/mmh4", |b| {
        b.iter(|| compile_spgemm(&banded_csc, &banded, 4).instruction_count());
    });
    group.finish();
}

criterion_group!(benches, bench_spgemm);
criterion_main!(benches);
