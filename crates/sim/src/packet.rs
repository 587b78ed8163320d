//! The frame/packet model.
//!
//! Only the fields the simulation needs are modelled: addressing, UDP
//! ports, and — crucially for the paper's error analysis — exact on-wire
//! sizes. The paper attributes ~2 % of its measurement bias to "the IP and
//! UDP headers in a system with 1,500-byte MTU"; the constants here encode
//! precisely that arithmetic.

use crate::addr::{Ipv4Addr, MacAddr};
use bytes::Bytes;

/// IP maximum transmission unit of the simulated Ethernet.
pub const MTU: usize = 1500;
/// IPv4 header size (no options).
pub const IP_HEADER: usize = 20;
/// UDP header size.
pub const UDP_HEADER: usize = 8;
/// Ethernet framing counted by `ifInOctets`/`ifOutOctets`: 14-byte header
/// plus 4-byte FCS. (Preamble and inter-frame gap occupy the medium but
/// are not counted by the MIB, matching real interface counters.)
pub const ETH_OVERHEAD: usize = 18;
/// Minimum Ethernet frame size (header + padded payload + FCS).
pub const MIN_FRAME: usize = 64;
/// Largest UDP payload that fits one IP packet without fragmentation.
pub const MAX_UDP_PAYLOAD: usize = MTU - IP_HEADER - UDP_HEADER; // 1472

/// The DISCARD service port (RFC 863) — the paper's load generator
/// destination.
pub const DISCARD_PORT: u16 = 9;
/// The ECHO service port (RFC 862) — used by the latency extension.
pub const ECHO_PORT: u16 = 7;
/// The SNMP agent port.
pub const SNMP_PORT: u16 = 161;

/// A UDP datagram as carried inside one frame (already fragmented to fit
/// the MTU by the sending host).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
    /// Source UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
    /// Application payload (zero-copy shared).
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Total IP packet length: payload + UDP + IP headers.
    pub fn ip_len(&self) -> usize {
        self.payload.len() + UDP_HEADER + IP_HEADER
    }
}

/// What a frame carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FramePayload {
    /// A UDP/IP packet.
    Udp(UdpDatagram),
    /// Uninterpreted traffic of a given IP-layer length — background
    /// chatter (ARP-ish broadcasts, clock sync, etc.) that loads the wire
    /// and the counters without an application consumer.
    Raw {
        /// IP-layer byte count represented by this frame.
        ip_len: usize,
    },
}

/// An Ethernet frame in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Source MAC.
    pub src: MacAddr,
    /// Destination MAC (possibly broadcast).
    pub dst: MacAddr,
    /// The payload.
    pub payload: FramePayload,
}

impl Frame {
    /// Builds a UDP frame.
    pub fn udp(src: MacAddr, dst: MacAddr, dgram: UdpDatagram) -> Frame {
        Frame {
            src,
            dst,
            payload: FramePayload::Udp(dgram),
        }
    }

    /// Builds an uninterpreted background frame.
    pub fn raw(src: MacAddr, dst: MacAddr, ip_len: usize) -> Frame {
        Frame {
            src,
            dst,
            payload: FramePayload::Raw { ip_len },
        }
    }

    /// IP-layer length of the carried packet.
    pub fn ip_len(&self) -> usize {
        match &self.payload {
            FramePayload::Udp(d) => d.ip_len(),
            FramePayload::Raw { ip_len } => *ip_len,
        }
    }

    /// Octets counted by the MIB interface counters for this frame:
    /// Ethernet header + IP packet + FCS, padded to the 64-byte minimum.
    pub fn wire_len(&self) -> usize {
        (self.ip_len() + ETH_OVERHEAD).max(MIN_FRAME)
    }

    /// True for broadcast destination.
    pub fn is_broadcast(&self) -> bool {
        self.dst.is_broadcast()
    }
}

/// Splits an application payload length into per-packet UDP payload sizes
/// respecting the MTU — the fragmentation the sending host performs. An
/// empty payload still travels as one (empty) packet.
pub fn fragment_sizes(total: usize) -> impl Iterator<Item = usize> {
    let packets = total.div_ceil(MAX_UDP_PAYLOAD).max(1);
    (0..packets).map(move |i| (total - i * MAX_UDP_PAYLOAD).min(MAX_UDP_PAYLOAD))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u8) -> MacAddr {
        MacAddr([2, 0, 0, 0, 0, n])
    }

    fn ip(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn header_overhead_is_28_bytes() {
        // The paper: IP+UDP headers contribute ~2% at 1500-byte MTU.
        assert_eq!(IP_HEADER + UDP_HEADER, 28);
        let overhead_fraction = (IP_HEADER + UDP_HEADER) as f64 / MAX_UDP_PAYLOAD as f64;
        assert!((overhead_fraction - 0.019).abs() < 0.001);
    }

    #[test]
    fn wire_len_includes_all_overheads() {
        let d = UdpDatagram {
            src_ip: ip(1),
            dst_ip: ip(2),
            src_port: 5000,
            dst_port: DISCARD_PORT,
            payload: Bytes::from(vec![0u8; 1000]),
        };
        let f = Frame::udp(mac(1), mac(2), d);
        assert_eq!(f.ip_len(), 1028);
        assert_eq!(f.wire_len(), 1046);
    }

    #[test]
    fn tiny_frames_pad_to_minimum() {
        let f = Frame::raw(mac(1), MacAddr::BROADCAST, 1);
        assert_eq!(f.wire_len(), MIN_FRAME);
        assert!(f.is_broadcast());
    }

    #[test]
    fn fragmentation_respects_mtu() {
        let sizes = |total| fragment_sizes(total).collect::<Vec<_>>();
        assert_eq!(sizes(0), vec![0]);
        assert_eq!(sizes(100), vec![100]);
        assert_eq!(sizes(1472), vec![1472]);
        assert_eq!(sizes(1473), vec![1472, 1]);
        assert_eq!(sizes(2944), vec![1472, 1472]);
        assert_eq!(sizes(4000), vec![1472, 1472, 1056]);
        let total: usize = fragment_sizes(100_000).sum();
        assert_eq!(total, 100_000);
        assert!(fragment_sizes(100_000).all(|s| s <= MAX_UDP_PAYLOAD));
    }
}
