# Local mirror of .github/workflows/ci.yml — `just ci` before pushing.

# The 11 paper-artifact binaries (keep in sync with the loop in ci.yml and
# the BINARIES table in crates/bench/tests/bin_smoke.rs, which additionally
# covers the `tune` and `serve` binaries — they take their own flags, see
# `just tune` / `just serve`).
bins := "table1 table3 table4 table5 fig11 fig13 fig14 fig15 fig16 fig17 ablation"

# Run everything CI runs.
ci: fmt clippy build test artifacts tune serve serve-parallel trace xval profile

# Formatting check (apply with `just fmt-fix`).
fmt:
    cargo fmt --check

fmt-fix:
    cargo fmt

# Lints, warnings are errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Release build of every crate and binary.
build:
    cargo build --release

# Unit, integration, doc and bin-smoke tests.
test:
    cargo test -q

# Run all 11 binaries at smoke scale with --json and collect the
# machine-readable artifacts under target/artifacts/ (what CI uploads).
artifacts:
    for bin in {{bins}}; do \
        NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin $bin -- --json || exit 1; \
    done
    ls -l target/artifacts/

# Regenerate every paper artifact at full (scaled) size, with strict
# golden checks against the pinned headline numbers. Slow.
artifacts-paper:
    for bin in {{bins}}; do \
        cargo run --release -q -p neura_bench --bin $bin -- --json || exit 1; \
    done
    ls -l target/artifacts/

# Successive-halving ChipConfig auto-tuner at smoke scale, all datasets;
# artifact collected at target/artifacts/tune.json.
tune:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin tune -- --json
    ls -l target/artifacts/tune.json

# The tuner at paper scale (very slow): the fidelity ladder climbs to
# 256-2000-node analogs (the same node band the cycle-level figure
# binaries simulate).
tune-paper:
    cargo run --release -q -p neura_bench --bin tune -- --json
    ls -l target/artifacts/tune.json

# Request-stream serving simulation at smoke scale. The default run
# covers the classic shard-scaling sweep plus one heterogeneous
# (Tile-64 + Tile-4, all three dispatch policies), one closed-loop and
# one autoscaled scenario; artifact at target/artifacts/serve.json.
serve:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- --json
    ls -l target/artifacts/serve.json

# Serving engine determinism checks: the serial smoke sweep rerun on 2
# and 8 workers must reproduce the default-pool artifact byte for byte
# (--no-meta strips the wall-clock meta so cmp is exact); the serial
# artifact is additionally gated byte-for-byte against the committed
# baseline (re-baseline deliberately with `just serve-rebaseline`); and
# the --speedup demo replays one 100k-client closed-loop lane scenario
# pinned to one thread and on the full pool, asserting identical outcomes
# and reporting the measured speedup.
serve-parallel:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-serial.json --no-meta
    NEURA_LAB_THREADS=2 NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-t2.json --no-meta
    NEURA_LAB_THREADS=8 NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-t8.json --no-meta
    cmp target/artifacts/serve-serial.json target/artifacts/serve-t2.json
    cmp target/artifacts/serve-serial.json target/artifacts/serve-t8.json
    cargo run --release -q -p neura_bench --bin trend -- \
        baselines/serve-smoke.json target/artifacts/serve-serial.json --fail-above 0
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- --speedup --lanes 8

# Refresh the committed serving smoke baseline after an intentional
# serving-layer change (review the trend diff first).
serve-rebaseline:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- \
        --json target/artifacts/serve-serial.json --no-meta
    cp target/artifacts/serve-serial.json baselines/serve-smoke.json

# The serving sweep with request-lifecycle tracing on: besides
# serve.json (byte-identical to an untraced run), writes the windowed
# neura_lab.timeline/v1 artifact to target/artifacts/timeline.json and
# summarises it — worst-window p99 vs the aggregate, crash recovery,
# windowed SLO attainment — through the timeline binary.
trace:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin serve -- --json --trace
    cargo run --release -q -p neura_bench --bin timeline
    ls -l target/artifacts/timeline.json

# Serving scenarios at paper scale: memoised request costs come from
# 256-2000-node cycle-level simulations, so tail latencies are in the
# realistic millisecond band. Slow.
serve-paper:
    cargo run --release -q -p neura_bench --bin serve -- --json
    ls -l target/artifacts/serve.json

# The scenario-library and failure-injection property suites alone:
# pinned load-shedding, tenant rate-limit, crash/recovery and
# thread-invariance properties (part of `just test`, split out for a
# fast signal while iterating on the serving layer).
scenarios:
    cargo test -p neura_serve --test scenario_properties --test fault_properties

# Sampled cross-validation of the analytic cost model at smoke scale:
# a three-dataset slice of the (dataset x tile x HBM) grid, gated
# byte-for-byte against the committed baseline (the cycle sims and the
# closed-form model are both deterministic, so any drift is a real model
# or simulator change and must be re-baselined deliberately via
# `just xval-rebaseline`).
xval:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin xval -- --json \
        --dataset facebook --dataset wiki-Vote --dataset cage12
    cargo run --release -q -p neura_bench --bin trend -- \
        baselines/xval-smoke.json target/artifacts/xval.json --fail-above 0

# Refresh the committed smoke baseline after an intentional model or
# simulator change (review the trend diff first).
xval-rebaseline:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin xval -- --json \
        --dataset facebook --dataset wiki-Vote --dataset cage12
    cp target/artifacts/xval.json baselines/xval-smoke.json

# Full cross-validation at paper scale: all 20 datasets, size-matched
# tiles, all three HBM presets, with the strict golden (mean abs rel
# error <= 5%, worst <= 15%) enforced. Slow (~2 min of cycle sims).
xval-paper:
    cargo run --release -q -p neura_bench --bin xval -- --json
    ls -l target/artifacts/xval.json

# Chip profiler sweep at smoke scale: a three-dataset slice of the
# (dataset x tile x HBM) grid with windowed stall attribution, gated
# byte-for-byte against the committed baseline (the profiled simulations
# are deterministic, so any drift is a real simulator or profiler change
# and must be re-baselined deliberately via `just profile-rebaseline`).
# Conservation is enforced even at smoke scale.
profile:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin profile -- --json \
        --dataset facebook --dataset wiki-Vote --dataset cage12 --require-conservation
    cargo run --release -q -p neura_bench --bin trend -- \
        baselines/profile-smoke.json target/artifacts/profile.json --fail-above 0

# Refresh the committed smoke baseline after an intentional simulator or
# profiler change (review the trend diff first).
profile-rebaseline:
    NEURA_BENCH_SCALE_MULT=32 cargo run --release -q -p neura_bench --bin profile -- --json \
        --dataset facebook --dataset wiki-Vote --dataset cage12 --require-conservation
    cp target/artifacts/profile.json baselines/profile-smoke.json

# The full profiler sweep at paper scale: all 20 datasets on size-matched
# tiles across the HBM presets, strict conservation golden enforced.
# Slow (~minutes of cycle sims).
profile-paper:
    cargo run --release -q -p neura_bench --bin profile -- --json
    ls -l target/artifacts/profile.json

# Diff two artifact files or directories (e.g. a saved copy of
# target/artifacts/ against a fresh run): per-metric absolute/relative
# deltas. Add flags via just trend a b "--fail-above 2".
trend before after *flags="":
    cargo run --release -q -p neura_bench --bin trend -- {{before}} {{after}} {{flags}}

# Criterion micro-benchmarks (stubbed offline: single-pass wall-clock
# timing); measurements are also collected as lab artifacts under
# target/artifacts/bench_*.json.
bench:
    NEURA_CRITERION_JSON=target/artifacts cargo bench -p neura_bench

# The repository benchmark: one workload (chip-t64-sparse, chip-t4-bloat,
# serve-mix or design-sweep) in fresh worker processes for the given
# seconds, printing medians; trace="1" adds the per-layer metrics.
perfbench workload="serve-mix" seed="1" seconds="20" trace="0":
    python3 perfbench/run.py --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace {{trace}}
