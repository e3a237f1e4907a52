//! The serving event loop behind [`sim`](crate::sim).
//!
//! [`run`] replays one scenario from `t = 0` until no event remains,
//! recording every resolved latency, batch completion, crash, scale
//! event and (when tracing) lifecycle event into a [`ReplayLog`], which
//! [`assemble`] turns into the [`ServeOutcome`].
//!
//! An [`EnginePlan`] can additionally split a closed-loop scenario into
//! **lanes**: clients and shard groups split round-robin into independent
//! sub-scenarios that replay concurrently on the `neura_lab` work-stealing
//! runner and merge deterministically (arrivals by `(time, lane,
//! position)`, shard slots re-laid group-major, per-group counters summed
//! in lane order). A lane count is part of the scenario definition —
//! `lanes = 4` is a *different scenario* than `lanes = 1`, with identical
//! results for every thread count — and is what buys near-linear speedup
//! on long closed-loop replays. Every other workload, and every closed
//! loop a lane split would couple, replays in one serial pass.
//!
//! The [`sim`](crate::sim) entry points are thin wrappers over this module
//! with a serial plan.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use neura_lab::Runner;

use crate::arrivals::{ClosedLoopClients, ClosedLoopSpec, Request, Workload};
use crate::autoscale::{Decision, ScaleEvent};
use crate::cost::{CostTable, RequestClass};
use crate::fault::{CrashEvent, FaultPlan};
use crate::fleet::{lane_groups, lane_share, GroupStats, ShardFleet, ShardGroup, ShardStats};
use crate::policy::Policy;
use crate::scenario::{TenantMix, TENANT_BURST_S};
use crate::sim::{ServeConfig, ServeOutcome, TenantOutcome, SHED_LATENCY_S};
use crate::telemetry::{ShedReason, Trace, TraceEvent, TraceGroup, TraceTenant};

/// How a closed-loop scenario replay is decomposed for parallel execution.
///
/// The default ([`EnginePlan::serial`]) runs the single-pass event loop; a
/// lane count splits a closed-loop scenario into independent
/// sub-scenarios (see the module docs for the determinism contract).
#[derive(Debug, Clone, PartialEq)]
pub struct EnginePlan {
    /// Closed-loop lane count (`1` = undecomposed). Lanes apply only to
    /// closed-loop workloads without autoscaling, admission control,
    /// tenants, or effectful faults; ineligible scenarios fall back to
    /// the serial replay.
    pub lanes: usize,
    /// Worker threads for the lane fan-out; `None` reads
    /// `NEURA_LAB_THREADS` (the `neura_lab::Runner` default).
    pub threads: Option<usize>,
}

impl Default for EnginePlan {
    fn default() -> Self {
        EnginePlan::serial()
    }
}

impl EnginePlan {
    /// The serial plan: one lane, runner-default threads.
    pub fn serial() -> Self {
        EnginePlan { lanes: 1, threads: None }
    }

    /// Sets the closed-loop lane count (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `lanes == 0`.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        assert!(lanes >= 1, "an engine plan needs at least one lane");
        self.lanes = lanes;
        self
    }

    /// Pins the worker thread count (builder style), overriding the
    /// `NEURA_LAB_THREADS` environment default.
    ///
    /// # Panics
    ///
    /// Panics when `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "an engine plan needs at least one thread");
        self.threads = Some(threads);
        self
    }

    fn runner(&self) -> Runner {
        match self.threads {
            Some(threads) => Runner::new(threads),
            None => Runner::from_env(),
        }
    }
}

/// Total-order wrapper over a finite `f64` event time, so closed-loop
/// issue times can live in a [`BinaryHeap`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("issue times are finite")
    }
}

/// Min-heap of `(issue time, client)` pairs: pops in ascending
/// `(time, client)` order, the exact order the serial engine's linear
/// scan selected due clients in.
type IssueQueue = BinaryHeap<Reverse<(TimeKey, usize)>>;

/// The central backlog, shaped by the policy.
#[derive(Debug)]
enum Backlog {
    /// FIFO / SJF: one queue in arrival order.
    Single(VecDeque<usize>),
    /// Batching: one arrival-ordered queue per request class.
    Classed(BTreeMap<RequestClass, VecDeque<usize>>),
}

impl Backlog {
    fn new(policy: Policy) -> Self {
        match policy {
            Policy::Fifo | Policy::Sjf => Backlog::Single(VecDeque::new()),
            Policy::BatchByDataset { .. } => Backlog::Classed(BTreeMap::new()),
        }
    }

    fn push(&mut self, id: usize, class: RequestClass) {
        match self {
            Backlog::Single(queue) => queue.push_back(id),
            Backlog::Classed(queues) => queues.entry(class).or_default().push_back(id),
        }
    }

    /// Returns a unit taken by [`Self::take_ready`] to the head of its
    /// queue, preserving order — used when the dispatch policy holds the
    /// unit for busy preferred silicon, and when a crash returns a
    /// victim's in-flight batch for re-dispatch.
    fn push_front(&mut self, unit: &[usize], class: RequestClass) {
        match self {
            Backlog::Single(queue) => {
                for &id in unit.iter().rev() {
                    queue.push_front(id);
                }
            }
            Backlog::Classed(queues) => {
                let queue = queues.entry(class).or_default();
                for &id in unit.iter().rev() {
                    queue.push_front(id);
                }
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Backlog::Single(queue) => queue.len(),
            Backlog::Classed(queues) => queues.values().map(VecDeque::len).sum(),
        }
    }

    /// The earliest future time at which a currently-unready unit becomes
    /// ready by timeout (batching policy only).
    fn next_deadline(&self, now: f64, policy: Policy, requests: &[Request]) -> Option<f64> {
        let (Backlog::Classed(queues), Policy::BatchByDataset { max_batch, timeout_s }) =
            (self, policy)
        else {
            return None;
        };
        queues
            .values()
            .filter(|q| !class_ready(q, requests, max_batch, timeout_s, now))
            .filter_map(|q| q.front().map(|&id| requests[id].arrival_s + timeout_s))
            .fold(None, |best, t| Some(best.map_or(t, |b: f64| b.min(t))))
    }

    /// Removes and returns the next ready dispatch unit at `now`, if any.
    fn take_ready(
        &mut self,
        now: f64,
        policy: Policy,
        requests: &[Request],
        costs: &CostTable,
    ) -> Option<Vec<usize>> {
        match (self, policy) {
            (Backlog::Single(queue), Policy::Fifo) => queue.pop_front().map(|id| vec![id]),
            (Backlog::Single(queue), Policy::Sjf) => {
                // Smallest estimated work first; arrival order (the queue
                // order) breaks ties because `min_by_key` keeps the first
                // minimum.
                let pos = queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &id)| (costs.weight(requests[id].class), id))
                    .map(|(pos, _)| pos)?;
                queue.remove(pos).map(|id| vec![id])
            }
            (Backlog::Classed(queues), Policy::BatchByDataset { max_batch, timeout_s }) => {
                // Among ready classes, serve the one whose head request has
                // waited longest (ties broken by class order — the BTreeMap
                // key order — so selection is deterministic).
                let class = queues
                    .iter()
                    .filter(|(_, q)| class_ready(q, requests, max_batch, timeout_s, now))
                    .min_by(|(ca, qa), (cb, qb)| {
                        let (ha, hb) = (head_arrival(qa, requests), head_arrival(qb, requests));
                        ha.partial_cmp(&hb).expect("arrival times are finite").then(ca.cmp(cb))
                    })
                    .map(|(class, _)| *class)?;
                let queue = queues.get_mut(&class).expect("selected class is present");
                let take = queue.len().min(max_batch);
                let batch: Vec<usize> = queue.drain(..take).collect();
                if queue.is_empty() {
                    queues.remove(&class);
                }
                Some(batch)
            }
            _ => unreachable!("backlog shape always matches the policy"),
        }
    }
}

fn head_arrival(queue: &VecDeque<usize>, requests: &[Request]) -> f64 {
    queue.front().map(|&id| requests[id].arrival_s).unwrap_or(f64::INFINITY)
}

fn class_ready(
    queue: &VecDeque<usize>,
    requests: &[Request],
    max_batch: usize,
    timeout_s: f64,
    now: f64,
) -> bool {
    queue.len() >= max_batch || head_arrival(queue, requests) + timeout_s <= now
}

/// Where the next request comes from, and which requests have arrived so
/// far. A request's id is its position among the arrived requests.
///
/// - `Open`: a cursor into a pre-materialised open-loop stream. The stream
///   lives in [`Ctx`] and its arrived prefix `stream[..cursor]` is viewed
///   in place, never copied.
/// - `Closed`: a client population driven by completions. Its requests
///   only exist once issued, so they are generated into `arrived`, with
///   the issuing client of each in `owners`.
#[derive(Debug)]
enum SourceState {
    Open {
        cursor: usize,
    },
    Closed {
        clients: ClosedLoopClients,
        pending: IssueQueue,
        arrived: Vec<Request>,
        owners: Vec<usize>,
    },
}

impl SourceState {
    /// A closed loop whose clients first issue at `first`'s
    /// `(time, client)` pairs.
    fn closed(clients: ClosedLoopClients, first: Vec<(f64, usize)>) -> Self {
        SourceState::Closed {
            clients,
            pending: first.into_iter().map(|(at, client)| Reverse((TimeKey(at), client))).collect(),
            arrived: Vec::new(),
            owners: Vec::new(),
        }
    }

    /// Every request that has arrived so far, indexed by id.
    fn arrived<'a>(&'a self, stream: &'a [Request]) -> &'a [Request] {
        match self {
            SourceState::Open { cursor } => &stream[..*cursor],
            SourceState::Closed { arrived, .. } => arrived,
        }
    }

    /// The next arrival time, if any request is still due.
    fn next_time(&self, stream: &[Request]) -> Option<f64> {
        match self {
            SourceState::Open { cursor } => stream.get(*cursor).map(|r| r.arrival_s),
            SourceState::Closed { pending, .. } => pending.peek().map(|Reverse((t, _))| t.0),
        }
    }

    /// Marks every request due at or before `now` as arrived.
    fn pop_due(&mut self, now: f64, stream: &[Request]) {
        match self {
            SourceState::Open { cursor } => {
                while stream.get(*cursor).is_some_and(|r| r.arrival_s <= now) {
                    *cursor += 1;
                }
            }
            SourceState::Closed { clients, pending, arrived, owners } => {
                // The heap pops due clients in (time, client) order, so
                // ids are deterministic even when issue times tie.
                while let Some(&Reverse((t, client))) = pending.peek() {
                    if t.0 > now {
                        break;
                    }
                    pending.pop();
                    let class = clients.draw_class(client);
                    arrived.push(Request { arrival_s: t.0, class, tenant: 0 });
                    owners.push(client);
                }
            }
        }
    }

    /// Tells the source a request completed (closed loops schedule the
    /// owning client's next request; open streams don't care).
    fn on_complete(&mut self, id: usize, finish: f64) {
        if let SourceState::Closed { clients, pending, owners, .. } = self {
            let client = owners[id];
            if let Some(at) = clients.next_issue_at(client, finish) {
                pending.push(Reverse((TimeKey(at), client)));
            }
        }
    }
}

/// A scheduled fleet-size change waiting for its provisioning delay.
#[derive(Debug)]
struct PendingOp {
    effect_s: f64,
    decision_s: f64,
    group: usize,
    delta: i64,
}

/// One tenant's admission token bucket: `rate` tokens per second up to a
/// `burst` ceiling of [`TENANT_BURST_S`] seconds' worth (at least 1);
/// admitting a request costs one token. Starts full, so a tenant may
/// admit at most `burst + rate × t` requests by time `t`.
#[derive(Debug)]
struct TenantGate {
    rate: f64,
    burst: f64,
    tokens: f64,
    last_s: f64,
}

impl TenantGate {
    fn new(rate: f64) -> Self {
        let burst = (rate * TENANT_BURST_S).max(1.0);
        TenantGate { rate, burst, tokens: burst, last_s: 0.0 }
    }

    fn admit(&mut self, now: f64) -> bool {
        self.tokens = (self.tokens + (now - self.last_s) * self.rate).min(self.burst);
        self.last_s = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The immutable side of one scenario replay.
struct Ctx<'a> {
    cfg: &'a ServeConfig<'a>,
    tenants: Option<&'a TenantMix>,
    /// The open-loop stream (empty for closed loops), referenced by the
    /// cursor in [`SourceState::Open`].
    stream: &'a [Request],
    /// Admission control sheds open-loop arrivals only: closed-loop
    /// clients self-limit (they wait for their response instead of being
    /// dropped), and shedding their zero-think re-issues would spin the
    /// clock.
    admission: bool,
}

/// The complete dynamic state of the event loop. The arrived requests live
/// in [`SourceState`]: an open stream's are a cursor into [`Ctx::stream`].
#[derive(Debug)]
struct EngineState {
    now: f64,
    fleet: ShardFleet,
    plan: Option<FaultPlan>,
    backlog: Backlog,
    source: SourceState,
    in_flight: Vec<Option<Vec<usize>>>,
    gates: Vec<Option<TenantGate>>,
    tenant_offered: Vec<u64>,
    tenant_shed: Vec<u64>,
    shed_queue: u64,
    shed_limit: u64,
    provision_failures: u64,
    pending_ops: Vec<PendingOp>,
    next_check: Option<f64>,
    makespan: f64,
    depth_integral: f64,
    depth_max: usize,
}

/// Everything the event loop appends to as it runs, in event order.
/// Outputs never feed back into the dynamics.
#[derive(Debug, Default)]
struct ReplayLog {
    /// `(id, latency)` of every resolved request — served at completion,
    /// or shed (the [`SHED_LATENCY_S`] sentinel) at admission.
    latencies: Vec<(usize, f64)>,
    /// Shed ids, in event order.
    shed: Vec<usize>,
    /// `(finish, size)` of every completed batch.
    batch_sizes: Vec<(f64, usize)>,
    crash_events: Vec<CrashEvent>,
    scale_events: Vec<ScaleEvent>,
    /// Lifecycle events (`Some` only when tracing).
    events: Option<Vec<TraceEvent>>,
}

impl ReplayLog {
    fn new(tracing: bool) -> Self {
        ReplayLog { events: tracing.then(Vec::new), ..Default::default() }
    }
}

/// The event-loop state at `t = 0`.
///
/// # Panics
///
/// Panics when the fleet is empty or an autoscaled group starts outside
/// the policy bounds.
fn initial_state(
    cfg: &ServeConfig<'_>,
    tenants: Option<&TenantMix>,
    source: SourceState,
) -> EngineState {
    let capacities: Option<Vec<usize>> = cfg.autoscale.map(|p| {
        cfg.groups
            .iter()
            .map(|g| {
                assert!(
                    (p.min_shards..=p.max_shards).contains(&g.shards),
                    "autoscaled group {:?} starts with {} shards, outside [{}, {}]",
                    g.name,
                    g.shards,
                    p.min_shards,
                    p.max_shards
                );
                p.max_shards
            })
            .collect()
    });
    let fleet = ShardFleet::new(cfg.groups, capacities.as_deref());
    let plan = cfg.faults.map(|f| f.plan(fleet.group_count()));
    let gates: Vec<Option<TenantGate>> = tenants.map_or_else(Vec::new, |mix| {
        mix.tenants().iter().map(|t| t.rate_limit_rps.map(TenantGate::new)).collect()
    });
    let in_flight = vec![None; fleet.capacity()];
    let tenant_count = gates.len();
    EngineState {
        now: 0.0,
        backlog: Backlog::new(cfg.policy),
        next_check: cfg.autoscale.map(|p| p.check_interval_s),
        fleet,
        plan,
        source,
        in_flight,
        gates,
        tenant_offered: vec![0; tenant_count],
        tenant_shed: vec![0; tenant_count],
        shed_queue: 0,
        shed_limit: 0,
        provision_failures: 0,
        pending_ops: Vec::new(),
        makespan: 0.0,
        depth_integral: 0.0,
        depth_max: 0,
    }
}

/// Runs the event loop from `st` until no event remains, logging every
/// resolved latency, batch completion, crash/scale event and (when
/// `tracing`) lifecycle trace event in event order. On drain the terminal
/// capacity accrual runs: provisioned capacity is paid for until the last
/// batch completes.
fn run(ctx: &Ctx<'_>, mut st: EngineState, tracing: bool) -> (EngineState, ReplayLog) {
    let mut out = ReplayLog::new(tracing);
    let cfg = ctx.cfg;
    let policy = cfg.policy;
    let costs = cfg.costs;
    let dispatcher = cfg.dispatch.policy();

    loop {
        // Dispatch every unit that is ready while an idle shard exists; the
        // dispatch policy picks *which* idle shard serves each unit, or
        // holds it (returning the unit to the queue head) to wait for busy
        // preferred silicon — in which case the next release is the event
        // that re-offers it. Latencies finalise at *completion*, not here:
        // a crash may still retract the batch.
        loop {
            let idle = st.fleet.idle_shards(st.now);
            if idle.is_empty() {
                break;
            }
            let arrived = st.source.arrived(ctx.stream);
            let Some(batch) = st.backlog.take_ready(st.now, policy, arrived, costs) else {
                break;
            };
            let class = arrived[batch[0]].class;
            let Some(shard) =
                dispatcher.choose(&st.fleet, &idle, class, batch.len(), st.now, costs)
            else {
                debug_assert!(
                    st.fleet.next_busy_free_at(st.now).is_finite(),
                    "a policy may only hold a batch while some shard is busy"
                );
                st.backlog.push_front(&batch, class);
                break;
            };
            let healthy =
                costs.service_seconds(st.fleet.shard_fingerprint(shard), class, batch.len());
            let degraded = st.plan.as_ref().map_or(1.0, |p| p.multiplier(st.fleet.group_of(shard)));
            let service_s = healthy * degraded;
            st.fleet.dispatch(shard, st.now, service_s, batch.len() as u64);
            if let Some(events) = out.events.as_mut() {
                events.push(TraceEvent::Dispatch {
                    at_s: st.now,
                    shard,
                    group: st.fleet.group_of(shard),
                    requests: batch.len(),
                    service_s,
                });
            }
            st.in_flight[shard] = Some(batch);
        }

        // The next event: an arrival, a batch completing, a batch timeout
        // expiring, an injected crash, a scheduled fleet change taking
        // effect, or an autoscaler check (crashes and checks only while
        // work remains — otherwise they could tick forever). After the
        // dispatch loop each of these lies in the future, and every
        // finite-time source below is consumed when due, so the loop
        // always makes progress.
        let work_remains = st.source.next_time(ctx.stream).is_some()
            || st.backlog.len() > 0
            || !st.pending_ops.is_empty()
            || st.in_flight.iter().any(Option::is_some);
        let mut t_next = f64::INFINITY;
        if let Some(t) = st.source.next_time(ctx.stream) {
            t_next = t_next.min(t);
        }
        for (slot, batch) in st.in_flight.iter().enumerate() {
            if batch.is_some() {
                t_next = t_next.min(st.fleet.busy_until(slot));
            }
        }
        if let Some(deadline) =
            st.backlog.next_deadline(st.now, policy, st.source.arrived(ctx.stream))
        {
            t_next = t_next.min(deadline);
        }
        for op in &st.pending_ops {
            t_next = t_next.min(op.effect_s);
        }
        if work_remains {
            if let Some(at) = st.plan.as_ref().and_then(FaultPlan::next_crash_at) {
                t_next = t_next.min(at);
            }
            if let Some(check) = st.next_check {
                t_next = t_next.min(check);
            }
        }
        if !t_next.is_finite() {
            // Drained. Provisioned capacity is paid for until the last
            // batch completes.
            if st.makespan > st.now {
                st.fleet.accrue(st.makespan - st.now);
            }
            return (st, out);
        }
        st.fleet.accrue(t_next - st.now);
        st.depth_integral += st.backlog.len() as f64 * (t_next - st.now);
        st.now = t_next;

        // 1. Completions due at `now` finalise, in slot order: the batch
        //    really finished, so its latencies are now facts no crash can
        //    retract.
        for (slot, entry) in st.in_flight.iter_mut().enumerate() {
            if entry.is_some() && st.fleet.busy_until(slot) <= st.now {
                let batch = entry.take().expect("slot checked above");
                let finish = st.fleet.busy_until(slot);
                for &id in &batch {
                    let request = st.source.arrived(ctx.stream)[id];
                    let latency = finish - request.arrival_s;
                    st.source.on_complete(id, finish);
                    out.latencies.push((id, latency));
                    if let Some(events) = out.events.as_mut() {
                        events.push(TraceEvent::Complete {
                            at_s: finish,
                            id,
                            tenant: request.tenant,
                            latency_s: latency,
                        });
                    }
                }
                st.makespan = st.makespan.max(finish);
                out.batch_sizes.push((finish, batch.len()));
            }
        }

        // 2. Arrivals due at `now` pass admission into the backlog (after
        //    completions, so a zero-think closed-loop re-issue lands in
        //    the same event). An arrival sheds when the backlog is at its
        //    bound, or when its tenant's token bucket is empty.
        let first_new = st.source.arrived(ctx.stream).len();
        st.source.pop_due(st.now, ctx.stream);
        for id in first_new..st.source.arrived(ctx.stream).len() {
            let Request { class, tenant, .. } = st.source.arrived(ctx.stream)[id];
            if let Some(count) = st.tenant_offered.get_mut(tenant) {
                *count += 1;
            }
            if let Some(events) = out.events.as_mut() {
                events.push(TraceEvent::Arrival { at_s: st.now, id, tenant });
            }
            let mut reason = ShedReason::QueueFull;
            let admit = if !ctx.admission {
                true
            } else if cfg.queue_bound.is_some_and(|bound| st.backlog.len() >= bound) {
                st.shed_queue += 1;
                false
            } else if let Some(gate) = st.gates.get_mut(tenant).and_then(Option::as_mut) {
                let pass = gate.admit(st.now);
                if !pass {
                    st.shed_limit += 1;
                    reason = ShedReason::RateLimited;
                }
                pass
            } else {
                true
            };
            if admit {
                st.backlog.push(id, class);
                if let Some(events) = out.events.as_mut() {
                    events.push(TraceEvent::Admit { at_s: st.now, id });
                }
            } else {
                if let Some(count) = st.tenant_shed.get_mut(tenant) {
                    *count += 1;
                }
                out.latencies.push((id, SHED_LATENCY_S));
                out.shed.push(id);
                if let Some(events) = out.events.as_mut() {
                    events.push(TraceEvent::Shed { at_s: st.now, id, tenant, reason });
                }
                st.source.on_complete(id, st.now);
            }
        }
        st.depth_max = st.depth_max.max(st.backlog.len());

        // 3. Injected crashes due at `now`: the victim is the busiest
        //    active shard of the scheduled group (ties to the lowest
        //    slot), its in-flight batch returns to the queue head —
        //    re-queued work bypasses admission; admitted work is never
        //    shed — and the slot deactivates. A crash that would empty
        //    the fleet, or lands in a group with no active shard, is
        //    skipped: the simulation models degraded service, not total
        //    outage.
        if let Some(plan) = st.plan.as_mut() {
            while let Some((at, group)) = plan.pop_crash_due(st.now) {
                debug_assert!(at <= st.now, "crashes pop when due");
                if st.fleet.active_shards() <= 1 {
                    continue;
                }
                let victim = (0..st.fleet.capacity())
                    .filter(|&s| st.fleet.group_of(s) == group && st.fleet.is_active(s))
                    .max_by(|&a, &b| {
                        st.fleet
                            .busy_until(a)
                            .partial_cmp(&st.fleet.busy_until(b))
                            .expect("busy horizons are finite")
                            .then(b.cmp(&a))
                    });
                let Some(victim) = victim else { continue };
                let batch = st.in_flight[victim].take();
                let redispatched = batch.as_ref().map_or(0, Vec::len);
                let lost_service_s = if redispatched > 0 {
                    (st.fleet.busy_until(victim) - st.now).max(0.0)
                } else {
                    0.0
                };
                if let Some(batch) = batch {
                    let class = st.source.arrived(ctx.stream)[batch[0]].class;
                    st.backlog.push_front(&batch, class);
                }
                st.fleet.crash(victim, st.now, redispatched as u64);
                out.crash_events.push(CrashEvent {
                    at_s: st.now,
                    shard: victim,
                    group,
                    redispatched,
                });
                if let Some(events) = out.events.as_mut() {
                    events.push(TraceEvent::Crash {
                        at_s: st.now,
                        shard: victim,
                        group,
                        redispatched,
                        lost_service_s,
                    });
                }
                st.depth_max = st.depth_max.max(st.backlog.len());
            }
        }

        // 4. Provisioning effects due at `now` apply, in (effect,
        //    decision, group, delta) order. A scale-up rolls the fault
        //    plan's provisioning die first — a failed roll leaves the
        //    slot inactive and counts a provisioning failure. Scale-downs
        //    go through the policy's shared retire path, which re-checks
        //    the per-group floor and idleness at effect time.
        while let Some(pos) = st
            .pending_ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.effect_s <= st.now)
            .min_by(|(_, a), (_, b)| {
                a.effect_s
                    .partial_cmp(&b.effect_s)
                    .expect("effect times are finite")
                    .then(a.decision_s.partial_cmp(&b.decision_s).expect("finite"))
                    .then(a.group.cmp(&b.group))
                    .then(a.delta.cmp(&b.delta))
            })
            .map(|(pos, _)| pos)
        {
            let op = st.pending_ops.remove(pos);
            let applied = if op.delta > 0 {
                if st.plan.as_mut().is_none_or(FaultPlan::provision_succeeds) {
                    st.fleet.activate(op.group, st.now).is_some()
                } else {
                    st.provision_failures += 1;
                    if let Some(events) = out.events.as_mut() {
                        events.push(TraceEvent::ProvisionFailure { at_s: st.now, group: op.group });
                    }
                    false
                }
            } else {
                cfg.autoscale
                    .expect("pending ops only exist under an autoscaler")
                    .retire_idle(&mut st.fleet, op.group, st.now)
                    .is_some()
            };
            if applied {
                out.scale_events.push(ScaleEvent {
                    decision_s: op.decision_s,
                    effect_s: st.now,
                    group: op.group,
                    delta: op.delta,
                    active_total: st.fleet.active_shards(),
                });
                if let Some(events) = out.events.as_mut() {
                    events.push(TraceEvent::Scale {
                        at_s: st.now,
                        group: op.group,
                        delta: op.delta,
                        active_total: st.fleet.active_shards(),
                    });
                }
            }
        }

        // 5. The autoscaler's periodic decision.
        if let (Some(policy_as), Some(check)) = (cfg.autoscale, st.next_check) {
            if check <= st.now {
                let mut pending = vec![0i64; st.fleet.group_count()];
                for op in &st.pending_ops {
                    pending[op.group] += op.delta;
                }
                match policy_as.decide(&st.fleet, st.backlog.len(), st.now, &pending) {
                    Decision::Hold => {}
                    Decision::Up { group } => st.pending_ops.push(PendingOp {
                        effect_s: st.now + policy_as.provision_delay_s,
                        decision_s: st.now,
                        group,
                        delta: 1,
                    }),
                    Decision::Down { group } => st.pending_ops.push(PendingOp {
                        effect_s: st.now + policy_as.provision_delay_s,
                        decision_s: st.now,
                        group,
                        delta: -1,
                    }),
                }
                st.next_check = Some(check + policy_as.check_interval_s);
            }
        }
    }
}

/// Builds the final [`ServeOutcome`] (and trace) from a drained state and
/// its log.
fn assemble(ctx: &Ctx<'_>, st: EngineState, out: ReplayLog) -> (ServeOutcome, Option<Trace>) {
    let (cfg, tenants) = (ctx.cfg, ctx.tenants);
    let arrived = st.source.arrived(ctx.stream);
    let mut latencies = vec![f64::NAN; arrived.len()];
    for &(id, latency) in &out.latencies {
        debug_assert!(latencies[id].is_nan(), "request {id} resolved twice");
        latencies[id] = latency;
    }
    debug_assert!(
        latencies.iter().all(|&l| l >= 0.0 || l == SHED_LATENCY_S),
        "every request is served or shed, exactly once"
    );
    let tenant_outcomes = tenants.map_or_else(Vec::new, |mix| {
        mix.tenants()
            .iter()
            .enumerate()
            .map(|(i, t)| TenantOutcome {
                name: t.name.clone(),
                slo_s: t.slo_s,
                offered: st.tenant_offered[i],
                shed: st.tenant_shed[i],
            })
            .collect()
    });
    let trace = out.events.map(|events| Trace {
        groups: cfg
            .groups
            .iter()
            .map(|g| TraceGroup { name: g.name.clone(), initial_shards: g.shards })
            .collect(),
        tenants: tenants.map_or_else(Vec::new, |mix| {
            mix.tenants()
                .iter()
                .map(|t| TraceTenant { name: t.name.clone(), slo_s: t.slo_s })
                .collect()
        }),
        events,
    });
    let outcome = ServeOutcome {
        latencies_s: latencies,
        arrivals_s: arrived.iter().map(|r| r.arrival_s).collect(),
        tenants: arrived.iter().map(|r| r.tenant).collect(),
        shed: out.shed,
        shed_queue: st.shed_queue,
        shed_limit: st.shed_limit,
        tenant_outcomes,
        crash_events: out.crash_events,
        provision_failures: st.provision_failures,
        makespan_s: st.makespan,
        queue_depth_mean: if st.makespan > 0.0 { st.depth_integral / st.makespan } else { 0.0 },
        queue_depth_max: st.depth_max,
        batch_sizes: out.batch_sizes.into_iter().map(|(_, size)| size).collect(),
        shard_stats: st.fleet.stats().to_vec(),
        shard_groups: st.fleet.shard_groups().to_vec(),
        group_stats: st.fleet.group_stats(),
        scale_events: out.scale_events,
    };
    (outcome, trace)
}

/// How many lanes a closed-loop scenario actually decomposes into under
/// `plan`: the requested count clamped to the client count and the
/// smallest group, and 1 whenever a feature that couples the lanes —
/// autoscaling, admission control, tenants, effectful faults — is on.
fn lane_count(spec: &ClosedLoopSpec, cfg: &ServeConfig<'_>, plan: &EnginePlan) -> usize {
    if plan.lanes <= 1 {
        return 1;
    }
    let decoupled = cfg.autoscale.is_none()
        && cfg.queue_bound.is_none()
        && cfg.tenants.is_none()
        && cfg.faults.is_none_or(|f| f.is_benign());
    if !decoupled {
        return 1;
    }
    let min_shards = cfg.groups.iter().map(|g| g.shards).min().unwrap_or(0);
    plan.lanes.min(min_shards).min(spec.clients).max(1)
}

/// Replays a closed-loop scenario as `lanes` independent sub-scenarios —
/// clients and shard groups split round-robin by global index — and
/// merges them deterministically. Each lane is one serial replay.
fn run_lanes(
    spec: &ClosedLoopSpec,
    cfg: &ServeConfig<'_>,
    lanes: usize,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let lane_fleets: Vec<Vec<ShardGroup>> =
        (0..lanes).map(|lane| lane_groups(cfg.groups, lane, lanes)).collect();
    let lane_ids: Vec<usize> = (0..lanes).collect();
    let runner = plan.runner();
    let results = runner.run(&lane_ids, |_, &lane| {
        let mut lane_cfg = *cfg;
        lane_cfg.groups = &lane_fleets[lane];
        let (clients, first) = spec.lane_clients(lane, lanes);
        let ctx = Ctx { cfg: &lane_cfg, tenants: None, stream: &[], admission: false };
        run(&ctx, initial_state(&lane_cfg, None, SourceState::closed(clients, first)), tracing)
    });
    merge_lanes(cfg, &results, lanes, tracing)
}

/// Deterministic lane merge: global request ids by `(arrival, lane,
/// local id)`, shard slots re-laid group-major with each group's lanes
/// contiguous, batches by `(finish, lane, sequence)`, trace events by
/// `(time, lane, sequence)`, and every `f64` aggregate summed in lane
/// order — so the merged outcome is identical for every thread count.
fn merge_lanes(
    cfg: &ServeConfig<'_>,
    results: &[(EngineState, ReplayLog)],
    lanes: usize,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let group_shards: Vec<usize> = cfg.groups.iter().map(|g| g.shards).collect();
    let mut merged_first = vec![0usize; group_shards.len()];
    for g in 1..group_shards.len() {
        merged_first[g] = merged_first[g - 1] + group_shards[g - 1];
    }
    let total_slots: usize = group_shards.iter().sum();

    // Lane-local shard slot → merged slot (lane fleets are group-major
    // over the same groups, so the map is a per-group offset shift).
    let slot_maps: Vec<Vec<usize>> = (0..lanes)
        .map(|lane| {
            let mut map = Vec::new();
            for (g, &shards) in group_shards.iter().enumerate() {
                let before: usize = (0..lane).map(|m| lane_share(shards, m, lanes)).sum();
                let share = lane_share(shards, lane, lanes);
                map.extend((0..share).map(|s| merged_first[g] + before + s));
            }
            map
        })
        .collect();

    // Global ids: every lane's arrivals merged by (time, lane, local id).
    // Lanes are closed loops, so their arrivals live in the source and the
    // open stream is empty.
    let lane_arrived: Vec<&[Request]> =
        results.iter().map(|(st, _)| st.source.arrived(&[])).collect();
    let mut order: Vec<(f64, usize, usize)> = Vec::new();
    for (lane, arrived) in lane_arrived.iter().enumerate() {
        order.extend(arrived.iter().enumerate().map(|(local, r)| (r.arrival_s, lane, local)));
    }
    order.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("arrival times are finite")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut id_maps: Vec<Vec<usize>> =
        lane_arrived.iter().map(|arrived| vec![usize::MAX; arrived.len()]).collect();
    let mut arrivals_s = Vec::with_capacity(order.len());
    for (global, &(at, lane, local)) in order.iter().enumerate() {
        id_maps[lane][local] = global;
        arrivals_s.push(at);
    }

    let total = order.len();
    let mut latencies = vec![f64::NAN; total];
    for (lane, (_, out)) in results.iter().enumerate() {
        for &(local, latency) in &out.latencies {
            debug_assert!(latencies[id_maps[lane][local]].is_nan(), "request resolved twice");
            latencies[id_maps[lane][local]] = latency;
        }
    }
    debug_assert!(
        latencies.iter().all(|&l| l >= 0.0),
        "lane-eligible closed loops serve every request"
    );

    // Batches in (finish, lane, sequence) order.
    let mut batches: Vec<(f64, usize, usize, usize)> = Vec::new();
    for (lane, (_, out)) in results.iter().enumerate() {
        batches.extend(
            out.batch_sizes
                .iter()
                .enumerate()
                .map(|(seq, &(finish, size))| (finish, lane, seq, size)),
        );
    }
    batches.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finish times are finite")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });

    // Scalar aggregates, summed in lane order for f64 determinism.
    let (mut makespan, mut depth_integral, mut depth_max) = (0.0f64, 0.0f64, 0usize);
    for (st, out) in results {
        makespan = makespan.max(st.makespan);
        depth_integral += st.depth_integral;
        depth_max = depth_max.max(st.depth_max);
        debug_assert!(
            out.shed.is_empty() && out.crash_events.is_empty() && out.scale_events.is_empty(),
            "lane-eligible scenarios shed nothing and never change the fleet"
        );
    }

    // Shard slots re-laid group-major; per-group counters summed in lane
    // order. Active shard counts are constant per lane (no autoscaling,
    // no crashes), so summed peaks equal the merged peak.
    let mut shard_stats = vec![ShardStats::default(); total_slots];
    let mut shard_groups = Vec::with_capacity(total_slots);
    for (g, &shards) in group_shards.iter().enumerate() {
        shard_groups.extend(std::iter::repeat_n(g, shards));
    }
    for (lane, (st, _)) in results.iter().enumerate() {
        for (local, stats) in st.fleet.stats().iter().enumerate() {
            shard_stats[slot_maps[lane][local]] = *stats;
        }
    }
    let mut group_stats: Vec<GroupStats> = cfg
        .groups
        .iter()
        .map(|g| GroupStats {
            name: g.name.clone(),
            capacity: g.shards,
            busy_s: 0.0,
            batches: 0,
            requests: 0,
            shard_seconds: 0.0,
            peak_active: 0,
        })
        .collect();
    for (st, _) in results {
        for (g, lane_stats) in st.fleet.group_stats().into_iter().enumerate() {
            let merged = &mut group_stats[g];
            merged.busy_s += lane_stats.busy_s;
            merged.batches += lane_stats.batches;
            merged.requests += lane_stats.requests;
            merged.shard_seconds += lane_stats.shard_seconds;
            merged.peak_active += lane_stats.peak_active;
        }
    }

    let outcome = ServeOutcome {
        latencies_s: latencies,
        arrivals_s,
        tenants: vec![0; total],
        shed: Vec::new(),
        shed_queue: 0,
        shed_limit: 0,
        tenant_outcomes: Vec::new(),
        crash_events: Vec::new(),
        provision_failures: 0,
        makespan_s: makespan,
        queue_depth_mean: if makespan > 0.0 { depth_integral / makespan } else { 0.0 },
        queue_depth_max: depth_max,
        batch_sizes: batches.into_iter().map(|(_, _, _, size)| size).collect(),
        shard_stats,
        shard_groups,
        group_stats,
        scale_events: Vec::new(),
    };

    let trace = tracing.then(|| {
        let mut keyed: Vec<(f64, usize, usize, TraceEvent)> = Vec::new();
        for (lane, (_, out)) in results.iter().enumerate() {
            if let Some(events) = &out.events {
                keyed.extend(events.iter().enumerate().map(|(seq, event)| {
                    (event.at_s(), lane, seq, remap_event(event, &id_maps[lane], &slot_maps[lane]))
                }));
            }
        }
        keyed.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("event times are finite")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        Trace {
            groups: cfg
                .groups
                .iter()
                .map(|g| TraceGroup { name: g.name.clone(), initial_shards: g.shards })
                .collect(),
            tenants: Vec::new(),
            events: keyed.into_iter().map(|(_, _, _, event)| event).collect(),
        }
    });
    (outcome, trace)
}

/// Rewrites a lane-local trace event into merged coordinates.
fn remap_event(event: &TraceEvent, ids: &[usize], slots: &[usize]) -> TraceEvent {
    match *event {
        TraceEvent::Arrival { at_s, id, tenant } => {
            TraceEvent::Arrival { at_s, id: ids[id], tenant }
        }
        TraceEvent::Admit { at_s, id } => TraceEvent::Admit { at_s, id: ids[id] },
        TraceEvent::Shed { at_s, id, tenant, reason } => {
            TraceEvent::Shed { at_s, id: ids[id], tenant, reason }
        }
        TraceEvent::Complete { at_s, id, tenant, latency_s } => {
            TraceEvent::Complete { at_s, id: ids[id], tenant, latency_s }
        }
        TraceEvent::Dispatch { at_s, shard, group, requests, service_s } => {
            TraceEvent::Dispatch { at_s, shard: slots[shard], group, requests, service_s }
        }
        TraceEvent::Crash { at_s, shard, group, redispatched, lost_service_s } => {
            TraceEvent::Crash { at_s, shard: slots[shard], group, redispatched, lost_service_s }
        }
        ref other @ (TraceEvent::Scale { .. } | TraceEvent::ProvisionFailure { .. }) => {
            other.clone()
        }
    }
}

/// Replays one open-loop stream (admission control on) in a single pass.
fn run_stream(
    stream: &[Request],
    cfg: &ServeConfig<'_>,
    tenants: Option<&TenantMix>,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    let ctx = Ctx { cfg, tenants, stream, admission: true };
    let (st, out) =
        run(&ctx, initial_state(cfg, tenants, SourceState::Open { cursor: 0 }), tracing);
    assemble(&ctx, st, out)
}

fn run_workload(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    match workload {
        Workload::Open(spec) => {
            let stream = spec.generate();
            assert_sorted(&stream);
            run_stream(&stream, cfg, cfg.tenants, tracing)
        }
        Workload::Shaped(shaped) => {
            let stream = shaped.generate();
            let tenants = cfg.tenants.or(shaped.tenants.as_ref());
            run_stream(&stream, cfg, tenants, tracing)
        }
        Workload::Closed(spec) => {
            let lanes = lane_count(spec, cfg, plan);
            if lanes > 1 {
                return run_lanes(spec, cfg, lanes, plan, tracing);
            }
            let (clients, first) = spec.clients();
            let ctx = Ctx { cfg, tenants: cfg.tenants, stream: &[], admission: false };
            let initial = initial_state(cfg, cfg.tenants, SourceState::closed(clients, first));
            let (st, out) = run(&ctx, initial, tracing);
            assemble(&ctx, st, out)
        }
    }
}

fn assert_sorted(requests: &[Request]) {
    assert!(
        requests.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s),
        "request streams must be sorted by arrival time"
    );
}

/// [`simulate_config`](crate::sim::simulate_config) under an explicit
/// [`EnginePlan`]. With [`EnginePlan::serial`] this *is* the serial
/// engine; with lanes the lane count is part of the scenario (identical
/// across thread counts at a fixed lane count).
///
/// # Panics
///
/// As [`simulate`](crate::sim::simulate).
pub fn simulate_config_parallel(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
) -> ServeOutcome {
    run_workload(workload, cfg, plan, false).0
}

/// [`simulate_config_parallel`] that additionally records the lifecycle
/// [`Trace`] (see
/// [`simulate_config_traced`](crate::sim::simulate_config_traced)).
///
/// # Panics
///
/// As [`simulate`](crate::sim::simulate).
pub fn simulate_config_traced_parallel(
    workload: &Workload,
    cfg: &ServeConfig<'_>,
    plan: &EnginePlan,
) -> (ServeOutcome, Trace) {
    let (outcome, trace) = run_workload(workload, cfg, plan, true);
    (outcome, trace.expect("tracing was requested"))
}

/// Replays an explicit, pre-generated open-loop stream (the engine side
/// of [`simulate_stream_config`](crate::sim::simulate_stream_config) and
/// its traced twin).
///
/// # Panics
///
/// As [`simulate`](crate::sim::simulate).
pub(crate) fn replay_stream(
    requests: &[Request],
    cfg: &ServeConfig<'_>,
    tracing: bool,
) -> (ServeOutcome, Option<Trace>) {
    assert_sorted(requests);
    run_stream(requests, cfg, cfg.tenants, tracing)
}
