//! Per-tile memory controller with request coalescing.
//!
//! Step 3 of the paper's on-chip dataflow: "The Memory Controller coalesces
//! requests for contiguous memory locations into a singular transaction and
//! reorganizes memory transactions to enhance spatial locality."

use crate::channel::Channel;
use crate::request::{MemoryRequest, MemoryResponse, RequestId, RequestKind};
use crate::HbmTiming;
use neura_sim::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Aggregate statistics exported by a [`MemoryController`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Requests accepted.
    pub requests_accepted: u64,
    /// Requests rejected because the queue was full.
    pub requests_rejected: u64,
    /// DRAM transactions issued after coalescing.
    pub transactions_issued: u64,
    /// Requests merged into a preceding contiguous transaction.
    pub requests_coalesced: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Sum of request latencies (for mean latency).
    pub total_latency: u64,
    /// Number of completed requests.
    pub completed: u64,
    /// Peak number of in-flight requests observed.
    pub peak_in_flight: usize,
}

impl ControllerStats {
    /// Mean request latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.completed as f64
        }
    }

    /// Fraction of requests that were folded into an earlier transaction.
    pub fn coalescing_rate(&self) -> f64 {
        if self.requests_accepted == 0 {
            0.0
        } else {
            self.requests_coalesced as f64 / self.requests_accepted as f64
        }
    }
}

#[derive(Debug, Clone)]
struct PendingRequest {
    id: RequestId,
    request: MemoryRequest,
    issued_at: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    response: MemoryResponse,
}

/// A per-tile memory controller fronting one HBM channel.
#[derive(Debug)]
pub struct MemoryController {
    tile_id: usize,
    channel: Channel,
    queue_capacity: usize,
    read_queue: VecDeque<PendingRequest>,
    write_queue: VecDeque<PendingRequest>,
    in_flight: Vec<InFlight>,
    next_id: u64,
    stats: ControllerStats,
    /// Maximum number of DRAM transactions issued per cycle.
    issue_width: usize,
}

impl MemoryController {
    /// Creates a controller for tile `tile_id` with the given queue capacity.
    pub fn new(tile_id: usize, timing: HbmTiming, queue_capacity: usize) -> Self {
        MemoryController {
            tile_id,
            channel: Channel::new(timing),
            queue_capacity: queue_capacity.max(1),
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
            in_flight: Vec::new(),
            next_id: 0,
            stats: ControllerStats::default(),
            issue_width: 4,
        }
    }

    /// The tile this controller belongs to.
    pub fn tile_id(&self) -> usize {
        self.tile_id
    }

    /// Submits a request; returns its id, or `None` when the queue is full
    /// (back-pressure to the requester).
    pub fn submit(&mut self, request: MemoryRequest, now: Cycle) -> Option<RequestId> {
        let queue = match request.kind {
            RequestKind::Read => &mut self.read_queue,
            RequestKind::Write => &mut self.write_queue,
        };
        if queue.len() >= self.queue_capacity {
            self.stats.requests_rejected += 1;
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        queue.push_back(PendingRequest { id, request, issued_at: now.as_u64() });
        self.stats.requests_accepted += 1;
        match request.kind {
            RequestKind::Read => self.stats.bytes_read += request.bytes as u64,
            RequestKind::Write => self.stats.bytes_written += request.bytes as u64,
        }
        Some(id)
    }

    /// Number of requests waiting or in flight.
    pub fn pending(&self) -> usize {
        self.read_queue.len() + self.write_queue.len() + self.in_flight.len()
    }

    /// Number of in-flight DRAM transactions (issued, not yet completed) —
    /// the "In-Flight InstX"/memory-pressure metric of Figure 11.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Queued-but-unissued requests as `(reads, writes)` — the per-channel
    /// queue-depth signal the chip profiler samples each cycle.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.read_queue.len(), self.write_queue.len())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The underlying channel (for bandwidth and hit-rate metrics).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Advances one cycle: issues coalesced transactions (reads prioritised)
    /// and appends completed responses to `completed`.
    pub fn tick(&mut self, now: Cycle, completed: &mut Vec<MemoryResponse>) {
        let cycle = now.as_u64();

        // Retire finished transactions.
        let mut index = 0;
        while index < self.in_flight.len() {
            if self.in_flight[index].response.completed_at <= cycle {
                let done = self.in_flight.swap_remove(index);
                self.stats.completed += 1;
                self.stats.total_latency += done.response.latency();
                completed.push(done.response);
            } else {
                index += 1;
            }
        }

        // Issue new transactions, reads first (they stall compute), writes after.
        for _ in 0..self.issue_width {
            let from_reads = !self.read_queue.is_empty();
            let queue = if from_reads { &mut self.read_queue } else { &mut self.write_queue };
            let Some(head) = queue.pop_front() else { break };

            // Coalesce immediately-contiguous same-kind requests into one transaction.
            let mut group = vec![head];
            while let Some(next) = queue.front() {
                let last = &group[group.len() - 1].request;
                if last.is_contiguous_with(&next.request) && group.len() < 8 {
                    group.push(queue.pop_front().expect("front exists"));
                } else {
                    break;
                }
            }
            let total_bytes: usize = group.iter().map(|p| p.request.bytes).sum();
            let base_addr = group[0].request.addr;
            let (done_at, _) = self.channel.access(base_addr, total_bytes, cycle);
            self.stats.transactions_issued += 1;
            self.stats.requests_coalesced += (group.len() - 1) as u64;
            for pending in group {
                self.in_flight.push(InFlight {
                    response: MemoryResponse {
                        id: pending.id,
                        request: pending.request,
                        issued_at: pending.issued_at,
                        completed_at: done_at,
                    },
                });
            }
        }
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(ctrl: &mut MemoryController, cycles: u64) -> Vec<MemoryResponse> {
        let mut out = Vec::new();
        for c in 0..cycles {
            ctrl.tick(Cycle(c), &mut out);
        }
        out
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        let id = ctrl.submit(MemoryRequest::read(0x100, 64), Cycle(0)).unwrap();
        let done = drive(&mut ctrl, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        let latency = done[0].latency();
        assert!(latency >= HbmTiming::hbm2().row_hit_latency);
        assert!(latency < 150, "latency {latency} too high for an unloaded channel");
    }

    #[test]
    fn queue_capacity_applies_back_pressure() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 2);
        assert!(ctrl.submit(MemoryRequest::read(0, 64), Cycle(0)).is_some());
        assert!(ctrl.submit(MemoryRequest::read(64, 64), Cycle(0)).is_some());
        assert!(ctrl.submit(MemoryRequest::read(128, 64), Cycle(0)).is_none());
        assert_eq!(ctrl.stats().requests_rejected, 1);
        // Writes use a separate queue.
        assert!(ctrl.submit(MemoryRequest::write(256, 64), Cycle(0)).is_some());
    }

    #[test]
    fn contiguous_requests_are_coalesced() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        for i in 0..4u64 {
            ctrl.submit(MemoryRequest::read(i * 64, 64), Cycle(0)).unwrap();
        }
        let done = drive(&mut ctrl, 300);
        assert_eq!(done.len(), 4);
        assert!(ctrl.stats().requests_coalesced >= 3);
        assert!(ctrl.stats().transactions_issued < 4);
    }

    #[test]
    fn scattered_requests_are_not_coalesced() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        for i in 0..4u64 {
            ctrl.submit(MemoryRequest::read(i * 10_000, 64), Cycle(0)).unwrap();
        }
        drive(&mut ctrl, 300);
        assert_eq!(ctrl.stats().requests_coalesced, 0);
        assert_eq!(ctrl.stats().transactions_issued, 4);
    }

    #[test]
    fn every_submitted_request_eventually_completes() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 128);
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(ctrl.submit(MemoryRequest::read(i * 4096, 64), Cycle(0)).unwrap());
        }
        let done = drive(&mut ctrl, 5_000);
        assert_eq!(done.len(), 50);
        let mut done_ids: Vec<RequestId> = done.iter().map(|r| r.id).collect();
        done_ids.sort();
        ids.sort();
        assert_eq!(done_ids, ids);
        assert_eq!(ctrl.pending(), 0);
    }

    #[test]
    fn reads_and_writes_are_tracked_separately() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        ctrl.submit(MemoryRequest::read(0, 64), Cycle(0)).unwrap();
        ctrl.submit(MemoryRequest::write(1024, 128), Cycle(0)).unwrap();
        drive(&mut ctrl, 300);
        assert_eq!(ctrl.stats().bytes_read, 64);
        assert_eq!(ctrl.stats().bytes_written, 128);
        assert!(ctrl.stats().mean_latency() > 0.0);
    }

    #[test]
    fn pending_reports_idle_correctly() {
        let mut ctrl = MemoryController::new(3, HbmTiming::hbm2(), 8);
        assert_eq!(ctrl.pending(), 0);
        ctrl.submit(MemoryRequest::read(0, 64), Cycle(0)).unwrap();
        assert_eq!(ctrl.pending(), 1);
        assert_eq!(drive(&mut ctrl, 500).len(), 1);
        assert_eq!(ctrl.pending(), 0);
        assert_eq!(ctrl.tile_id(), 3);
    }

    #[test]
    fn loaded_channel_has_higher_latency_than_unloaded() {
        let mut light = MemoryController::new(0, HbmTiming::hbm2(), 256);
        light.submit(MemoryRequest::read(0, 64), Cycle(0)).unwrap();
        drive(&mut light, 500);

        let mut heavy = MemoryController::new(0, HbmTiming::hbm2(), 256);
        for i in 0..200u64 {
            heavy.submit(MemoryRequest::read(i * 8192, 64), Cycle(0)).unwrap();
        }
        drive(&mut heavy, 5_000);
        assert!(heavy.stats().mean_latency() > light.stats().mean_latency());
        assert!(heavy.stats().peak_in_flight > 1);
    }
}
