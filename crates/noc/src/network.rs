//! The assembled torus fabric.

use crate::packet::Packet;
use crate::router::Router;
use crate::topology::TorusTopology;
use neura_sim::{Cycle, Histogram};
use serde::{Deserialize, Serialize};

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets rejected at injection because the source router was full.
    pub injection_rejected: u64,
    /// Packets delivered to their destination routers.
    pub delivered: u64,
    /// Sum of delivered-packet latencies.
    pub total_latency: u64,
    /// Sum of delivered-packet hop counts.
    pub total_hops: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
}

impl NetworkStats {
    /// Mean end-to-end latency of delivered packets.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }
}

/// A 2D-torus network of input-buffered routers.
#[derive(Debug)]
pub struct TorusNetwork {
    topology: TorusTopology,
    routers: Vec<Router>,
    links_per_cycle: usize,
    stats: NetworkStats,
    latency_histogram: Histogram,
    hop_histogram: Histogram,
    /// Packets delivered to their destination, awaiting pickup by the
    /// attached component: `(destination node, packet)`.
    delivered_store: Vec<(usize, Packet)>,
}

impl TorusNetwork {
    /// Creates a network over `topology` with the given per-router buffer capacity.
    pub fn new(topology: TorusTopology, buffer_capacity: usize) -> Self {
        let routers = (0..topology.nodes()).map(|n| Router::new(n, buffer_capacity)).collect();
        TorusNetwork {
            topology,
            routers,
            links_per_cycle: 2,
            stats: NetworkStats::default(),
            latency_histogram: Histogram::new(4, 64),
            hop_histogram: Histogram::new(1, 64),
            delivered_store: Vec::new(),
        }
    }

    /// Sets how many packets each router may forward per cycle (default 2:
    /// one per pipeline direction pair, matching the 128-bit data bus).
    pub fn with_links_per_cycle(mut self, links: usize) -> Self {
        self.links_per_cycle = links.max(1);
        self
    }

    /// The network topology.
    pub fn topology(&self) -> &TorusTopology {
        &self.topology
    }

    /// Injects a packet at its source router.
    ///
    /// # Errors
    ///
    /// Returns the packet back when the source router's buffer is full, so
    /// the caller can retry next cycle (back-pressure).
    pub fn inject(&mut self, mut packet: Packet, now: Cycle) -> Result<(), Packet> {
        packet.injected_at = now.as_u64();
        let src = packet.src;
        assert!(src < self.routers.len(), "source node {src} out of range");
        assert!(packet.dst < self.routers.len(), "destination node out of range");
        match self.routers[src].accept(packet) {
            Ok(()) => {
                self.stats.injected += 1;
                Ok(())
            }
            Err(p) => {
                self.stats.injection_rejected += 1;
                Err(p)
            }
        }
    }

    /// Advances the whole fabric one cycle.
    pub fn tick(&mut self, now: Cycle) {
        let mut moves: Vec<(usize, Packet)> = Vec::new();
        for router in &mut self.routers {
            router.route_cycle(&self.topology, self.links_per_cycle, &mut moves);
        }
        for (next, packet) in moves {
            // Router-to-router hops are throughput-limited, not buffer-limited
            // (see `Router::force_accept`), which keeps the torus deadlock-free.
            self.routers[next].force_accept(packet);
        }
        // Account for deliveries that happened this cycle.
        let now = now.as_u64();
        for router in &mut self.routers {
            for packet in router.take_delivered(usize::MAX) {
                self.stats.delivered += 1;
                self.stats.total_latency += packet.latency(now);
                self.stats.total_hops += u64::from(packet.hops);
                self.stats.bytes_delivered += packet.bytes as u64;
                self.latency_histogram.record(packet.latency(now));
                self.hop_histogram.record(u64::from(packet.hops));
                // Hand the packet back to the destination router's delivery
                // queue for pickup by the attached component.
                self.delivered_store.push((packet.dst, packet));
            }
        }
    }

    /// Removes all packets delivered to `node` since the last drain.
    pub fn drain_delivered(&mut self, node: usize) -> Vec<Packet> {
        let mut taken = Vec::new();
        let mut remaining = Vec::with_capacity(self.delivered_store.len());
        for (dst, packet) in self.delivered_store.drain(..) {
            if dst == node {
                taken.push(packet);
            } else {
                remaining.push((dst, packet));
            }
        }
        self.delivered_store = remaining;
        taken
    }

    /// Number of packets anywhere in the fabric (buffered or awaiting pickup).
    pub fn in_flight(&self) -> usize {
        self.routers.iter().map(Router::occupancy).sum::<usize>() + self.delivered_store.len()
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Histogram of delivered-packet latencies.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_histogram
    }

    /// Histogram of delivered-packet hop counts (bin width 1, so bin `i`
    /// counts packets that crossed exactly `i` router-to-router links;
    /// its total always equals [`NetworkStats::total_hops`] summed over
    /// `bin × count`).
    pub fn hop_histogram(&self) -> &Histogram {
        &self.hop_histogram
    }

    /// Per-router congestion (blocked cycles), indexed by node id.
    pub fn congestion_map(&self) -> Vec<u64> {
        self.routers.iter().map(|r| r.stats().blocked_cycles).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_until_empty(net: &mut TorusNetwork, max_cycles: u64) -> Vec<Packet> {
        let mut delivered = Vec::new();
        for c in 0..max_cycles {
            net.tick(Cycle(c));
            for node in 0..net.topology().nodes() {
                delivered.extend(net.drain_delivered(node));
            }
            if net.in_flight() == 0 {
                break;
            }
        }
        delivered
    }

    #[test]
    fn single_packet_reaches_destination() {
        let mut net = TorusNetwork::new(TorusTopology::new(4, 4), 8);
        net.inject(Packet::new(1, 0, 15, 16), Cycle(0)).unwrap();
        let delivered = drive_until_empty(&mut net, 100);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, 1);
        assert_eq!(delivered[0].hops as usize, net.topology().distance(0, 15));
    }

    #[test]
    fn all_to_one_traffic_is_fully_delivered() {
        let topo = TorusTopology::new(4, 4);
        let mut net = TorusNetwork::new(topo, 16);
        for (id, src) in (0..topo.nodes()).enumerate() {
            net.inject(Packet::new(id as u64, src, 5, 16), Cycle(0)).unwrap();
        }
        let delivered = drive_until_empty(&mut net, 500);
        assert_eq!(delivered.len(), topo.nodes());
        assert_eq!(net.stats().delivered, topo.nodes() as u64);
        assert!(net.stats().mean_latency() > 0.0);
    }

    #[test]
    fn injection_backpressure_when_router_full() {
        let mut net = TorusNetwork::new(TorusTopology::new(2, 2), 1);
        assert!(net.inject(Packet::new(1, 0, 3, 8), Cycle(0)).is_ok());
        assert!(net.inject(Packet::new(2, 0, 3, 8), Cycle(0)).is_err());
        assert_eq!(net.stats().injection_rejected, 1);
    }

    #[test]
    fn hop_counts_match_topology_distance() {
        let topo = TorusTopology::new(5, 5);
        let mut net = TorusNetwork::new(topo, 32);
        let pairs = [(0, 24), (3, 17), (10, 10), (7, 8)];
        for (i, (src, dst)) in pairs.iter().enumerate() {
            net.inject(Packet::new(i as u64, *src, *dst, 16), Cycle(0)).unwrap();
        }
        let delivered = drive_until_empty(&mut net, 200);
        assert_eq!(delivered.len(), pairs.len());
        for p in delivered {
            let (src, dst) = pairs[p.id as usize];
            assert_eq!(p.hops as usize, topo.distance(src, dst));
        }
    }

    #[test]
    fn congestion_map_has_entry_per_router() {
        let net = TorusNetwork::new(TorusTopology::new(3, 3), 4);
        assert_eq!(net.congestion_map().len(), 9);
    }

    #[test]
    fn uniform_random_traffic_conserves_packets() {
        use neura_sim::DeterministicRng;
        let topo = TorusTopology::new(4, 4);
        let mut net = TorusNetwork::new(topo, 64);
        let mut rng = DeterministicRng::new(3);
        let mut injected = 0u64;
        for cycle in 0..50u64 {
            for _ in 0..4 {
                let src = rng.next_below(16) as usize;
                let dst = rng.next_below(16) as usize;
                if net.inject(Packet::new(injected, src, dst, 16), Cycle(cycle)).is_ok() {
                    injected += 1;
                }
            }
            net.tick(Cycle(cycle));
        }
        // Drain.
        for c in 50..2_000u64 {
            net.tick(Cycle(c));
            if net.in_flight() == 0 {
                break;
            }
        }
        let mut delivered = 0;
        for node in 0..16 {
            delivered += net.drain_delivered(node).len();
        }
        assert_eq!(delivered as u64, injected);
        assert_eq!(net.stats().delivered, injected);
    }
}
