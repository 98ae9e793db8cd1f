//! Network model: 10 Mbit/s Ethernet carrying TCP/IP or NFS-style UDP RPC.
//!
//! The paper's client/server measurements ran over "TCP/IP over a
//! 10 Mbit/sec Ethernet" and conclude that "the client/server communication
//! protocol used by the file system is much too heavy-weight". The model
//! therefore separates the *wire* (bandwidth + propagation latency, shared by
//! every protocol) from the *protocol* (per-message CPU overhead and per-byte
//! processing cost, which differ sharply between 1993 TCP/IP stacks and the
//! leaner NFS UDP RPC path).

use crate::clock::{SimClock, SimDuration};

/// Per-protocol cost parameters layered on a [`Network`].
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// Fixed CPU + stack traversal cost charged per message (each direction).
    pub per_msg_overhead: SimDuration,
    /// Per-byte protocol processing cost (checksums, copies in the stack).
    pub per_byte_cpu: SimDuration,
}

impl NetProfile {
    /// A 1993 TCP/IP stack: ~3 ms per message, ~150 ns/byte of stack
    /// processing. This is the "much too heavy-weight" path Inversion used.
    pub fn tcp_1993() -> Self {
        NetProfile {
            per_msg_overhead: SimDuration::from_micros(3000),
            per_byte_cpu: SimDuration::from_nanos(150),
        }
    }

    /// The NFS UDP RPC path: ~1.2 ms per message, ~60 ns/byte.
    pub fn nfs_udp() -> Self {
        NetProfile {
            per_msg_overhead: SimDuration::from_micros(1200),
            per_byte_cpu: SimDuration::from_nanos(60),
        }
    }

    /// A free profile for tests that want data movement without time cost.
    pub fn zero_cost() -> Self {
        NetProfile {
            per_msg_overhead: SimDuration::ZERO,
            per_byte_cpu: SimDuration::ZERO,
        }
    }
}

/// A shared network segment with finite bandwidth and propagation latency.
#[derive(Clone)]
pub struct Network {
    clock: SimClock,
    bandwidth_bps: f64,
    latency: SimDuration,
}

impl Network {
    /// Creates a network with the given raw bandwidth (bits/second) and
    /// one-way propagation + medium-access latency.
    pub fn new(clock: SimClock, bandwidth_bps: f64, latency: SimDuration) -> Self {
        Network {
            clock,
            bandwidth_bps,
            latency,
        }
    }

    /// The 10 Mbit/s Ethernet of the paper's testbed (≈0.3 ms access latency).
    pub fn ethernet_10mbit(clock: SimClock) -> Self {
        Network::new(clock, 10e6, SimDuration::from_micros(300))
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Charges the wire cost of moving `bytes` in one direction.
    fn charge_wire(&self, bytes: usize) {
        // Frame overhead: ~58 bytes of Ethernet+IP+transport headers per
        // 1500-byte MTU frame.
        let frames = (bytes / 1440).max(1) as f64;
        let on_wire = bytes as f64 + frames * 58.0;
        let cost = self.latency.plus(SimDuration::from_secs_f64(
            on_wire * 8.0 / self.bandwidth_bps,
        ));
        self.clock.advance(cost);
    }
}

/// Per-endpoint counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointStats {
    /// RPCs issued (request/response pairs).
    pub rpcs: u64,
    /// Bytes sent (requests).
    pub bytes_out: u64,
    /// Bytes received (responses).
    pub bytes_in: u64,
}

/// One side of a protocol session on a [`Network`].
///
/// Endpoints model *synchronous* request/response traffic, which is all the
/// Inversion library protocol and NFS need. Each RPC charges: protocol
/// overhead on both hosts, per-byte stack cost, and the wire time of both
/// messages.
pub struct Endpoint {
    net: Network,
    profile: NetProfile,
    stats: EndpointStats,
}

impl Endpoint {
    /// Creates an endpoint speaking `profile` over `net`.
    pub fn new(net: Network, profile: NetProfile) -> Self {
        Endpoint {
            net,
            profile,
            stats: EndpointStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> EndpointStats {
        self.stats
    }

    /// Charges one synchronous RPC of `req_bytes` out and `resp_bytes` back.
    pub fn rpc(&mut self, req_bytes: usize, resp_bytes: usize) {
        // Sender-side and receiver-side protocol work for each message:
        // 2 messages x 2 hosts = 4 fixed overheads.
        let fixed = self.profile.per_msg_overhead.times(4);
        let per_byte = SimDuration::from_nanos(
            self.profile.per_byte_cpu.as_nanos() * (req_bytes + resp_bytes) as u64 * 2,
        );
        self.net.clock.advance(fixed.plus(per_byte));
        self.net.charge_wire(req_bytes);
        self.net.charge_wire(resp_bytes);
        self.stats.rpcs += 1;
        self.stats.bytes_out += req_bytes as u64;
        self.stats.bytes_in += resp_bytes as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_megabyte_takes_about_a_second_on_the_wire() {
        let clock = SimClock::new();
        let net = Network::ethernet_10mbit(clock.clone());
        let mut ep = Endpoint::new(net, NetProfile::zero_cost());
        let t0 = clock.now();
        // 128 RPCs x 8 KB responses = 1 MB transferred.
        for _ in 0..128 {
            ep.rpc(100, 8192);
        }
        let took = clock.now().since(t0).as_secs_f64();
        // 1 MB at 10 Mbit/s is ~0.84 s; headers and latency push it up a bit.
        assert!((0.8..1.5).contains(&took), "took {took}s");
    }

    #[test]
    fn tcp_costs_more_than_udp() {
        let clock = SimClock::new();
        let net = Network::ethernet_10mbit(clock.clone());
        let mut tcp = Endpoint::new(net.clone(), NetProfile::tcp_1993());
        let mut udp = Endpoint::new(net, NetProfile::nfs_udp());

        let t0 = clock.now();
        for _ in 0..64 {
            tcp.rpc(128, 8192);
        }
        let tcp_cost = clock.now().since(t0);

        let t1 = clock.now();
        for _ in 0..64 {
            udp.rpc(128, 8192);
        }
        let udp_cost = clock.now().since(t1);
        assert!(tcp_cost.as_nanos() > udp_cost.as_nanos());
    }

    #[test]
    fn stats_accumulate() {
        let clock = SimClock::new();
        let net = Network::ethernet_10mbit(clock);
        let mut ep = Endpoint::new(net, NetProfile::nfs_udp());
        ep.rpc(10, 20);
        ep.rpc(30, 40);
        assert_eq!(ep.stats().rpcs, 2);
        assert_eq!(ep.stats().bytes_out, 40);
        assert_eq!(ep.stats().bytes_in, 60);
    }

    #[test]
    fn zero_byte_rpc_still_pays_latency() {
        let clock = SimClock::new();
        let net = Network::ethernet_10mbit(clock.clone());
        let mut ep = Endpoint::new(net, NetProfile::zero_cost());
        ep.rpc(0, 0);
        assert!(clock.now().as_nanos() > 0);
    }
}
