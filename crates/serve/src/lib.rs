//! `neura_serve` — request-stream serving simulation over the NeuraChip
//! model.
//!
//! The rest of the workspace evaluates the accelerator one kernel at a
//! time; this crate models what happens when *many* GNN/SpGEMM inference
//! requests contend for a fleet of simulated chips: open- and closed-loop
//! workloads, rate-shaped multi-tenant traffic, scheduling/batching
//! policies, heterogeneous multi-chip sharding with class-aware dispatch,
//! elastic (autoscaled) capacity, admission control with load shedding,
//! and deterministic fault injection, measured as tail latency, sustained
//! throughput, shed rate, queue depth, per-shard and per-group
//! utilisation, crash/recovery accounting and provisioned shard-seconds
//! cost. Data flows through nine modules:
//!
//! 1. **[`arrivals`]** — demand. A [`StreamSpec`] (Poisson or bursty
//!    arrivals, target rate, duration, request mix) expands into a
//!    deterministic, time-sorted open-loop stream; a [`ClosedLoopSpec`]
//!    describes N clients with seeded think times whose next request only
//!    exists once the previous response lands. Both are [`Workload`]s.
//! 2. **[`cost`]** — a [`CostTable`] memoises the cycle cost of one
//!    request per *(chip fingerprint, [`RequestClass`])* pair
//!    (`ChipConfig::fingerprint` × dataset × per-request shrink), measured
//!    once through the existing cycle-level `neura_chip` execution path —
//!    so large streams never re-simulate the chip and mixed fleets never
//!    re-simulate classes their groups share.
//! 3. **[`policy`]** — *what* dispatches next: FIFO, shortest-job-first
//!    (weighted by `WorkloadProfile::flops`) and batch-by-dataset
//!    (max-batch-size / timeout knobs).
//! 4. **[`fleet`]** — the shard model: [`ShardGroup`]s of chip replicas
//!    (each group its own `ChipConfig`), with activation bookkeeping for
//!    elastic fleets and per-group shard-seconds accounting.
//! 5. **[`dispatch`]** — *where* it dispatches: the class-aware
//!    [`DispatchPolicy`] trait with least-loaded, class-affinity
//!    (big classes → big silicon) and cost-aware implementations.
//! 6. **[`autoscale`]** — elastic capacity: an [`AutoscalePolicy`]
//!    queue-depth controller with a provisioning delay, growing and
//!    shrinking the fleet between bounds while the outcome reports the
//!    shard-seconds the latency cost.
//! 7. **[`scenario`]** — production traffic: [`RateShape`]s (diurnal
//!    waves, flash crowds) composed over the base generators by thinning,
//!    [`TenantMix`]es with per-tenant rate limits and SLOs, and the named
//!    [`ScenarioSpec`] library every `serve` sweep runs.
//! 8. **[`fault`]** — failure regimes: a [`FaultSpec`] expands into a
//!    seed-derived [`FaultPlan`] of shard crashes (in-flight work
//!    re-dispatches), provisioning failures and degraded-silicon service
//!    multipliers.
//! 9. **[`sim`]** — the event-source replay producing a [`ServeOutcome`]:
//!    p50/p95/p99 latency, throughput, shed/crash/recovery accounting,
//!    queue depth, utilisation, shard-seconds and scale events, emitted
//!    as `neura_lab` `RunRecord`s. A [`ServeConfig`] carries the
//!    admission-control and fault knobs alongside the classic
//!    policy/fleet/dispatch/autoscale axes.
//! 10. **[`telemetry`]** — deterministic observability: the `*_traced`
//!     replay entry points record a [`Trace`] of per-request lifecycle
//!     events (arrival → admit/shed → dispatch → completion, plus
//!     crash/scale/provisioning events), a mergeable log-bucketed
//!     [`LatencyHistogram`] bounds percentile error at 1/256, and a
//!     windowed [`Timeline`] replays the trace into fixed-interval
//!     samples of queue depth, in-flight, shed rate, per-group
//!     utilisation, per-tenant throughput and sliding p50/p99 — emitted
//!     as `neura_lab.timeline/v1` artifacts. Tracing is opt-in and costs
//!     nothing when off.
//!
//! On top sits **[`spec`]**: a [`ServeSweep`] enumerates workload × fleet
//! mix × dispatch × autoscaler × policy scenarios with stable IDs and
//! workload seeds derived from the workload axes only — so every serving
//! arm replays the identical demand — ready to fan out on
//! `neura_lab::Runner` (the `serve` binary in `neura_bench` does exactly
//! that, and its artifact is byte-identical for any `NEURA_LAB_THREADS`).

#![warn(missing_docs)]

pub mod arrivals;
pub mod autoscale;
pub mod cost;
pub mod dispatch;
pub mod engine;
pub mod fault;
pub mod fleet;
pub mod policy;
pub mod scenario;
pub mod sim;
pub mod spec;
pub mod telemetry;

pub use arrivals::{ArrivalProcess, ClosedLoopSpec, Request, StreamSpec, Workload};
pub use autoscale::{AutoscalePolicy, ScaleEvent};
pub use cost::{ClassCost, CostModel, CostTable, RequestClass, DEFAULT_MARGINAL_BATCH_FRACTION};
pub use dispatch::{ClassAffinity, CostAware, DispatchKind, DispatchPolicy, LeastLoaded};
pub use engine::{simulate_config_parallel, simulate_config_traced_parallel, EnginePlan};
pub use fault::{CrashEvent, FaultPlan, FaultSpec};
pub use fleet::{GroupStats, ShardFleet, ShardGroup, ShardStats};
pub use policy::Policy;
pub use scenario::{RateShape, ScenarioSpec, ShapedStream, TenantMix, TenantSpec};
pub use sim::{
    simulate, simulate_config, simulate_config_traced, simulate_stream, simulate_stream_config,
    simulate_stream_config_traced, ServeConfig, ServeOutcome, TenantOutcome, SHED_LATENCY_S,
};
pub use spec::{FleetMix, ServeScenario, ServeSweep, WorkloadAxis};
pub use telemetry::{
    LatencyHistogram, ShedReason, Timeline, Trace, TraceEvent, WindowStats, RELATIVE_ERROR_BOUND,
};
