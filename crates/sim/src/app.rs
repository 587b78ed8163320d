//! The UDP application layer.
//!
//! Everything that *does* something in the simulation — load generators,
//! DISCARD sinks, echo responders, SNMP agents, SNMP managers — is a
//! [`UdpApp`] installed on a host (or on a switch's management stack).
//! Apps interact with the world exclusively through an [`AppCtx`], which
//! defers all side effects until the callback returns; this keeps the
//! engine single-threaded, borrow-clean, and deterministic.

use crate::addr::{Ipv4Addr, MacAddr};
use crate::events::{DeviceId, PortIx};
use crate::nic::{Nic, NicSnapshot};
use crate::packet::UdpDatagram;
use crate::time::{SimDuration, SimTime};
use crate::world::KeyMap;
use bytes::Bytes;
use std::cell::RefCell;
use std::rc::Rc;

/// Deferred side effects produced by an app callback.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Send a UDP datagram (fragmented by the host stack as needed).
    SendUdp {
        src_port: u16,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
    },
    /// Emit an uninterpreted broadcast frame (background chatter).
    SendRawBroadcast { ip_len: usize, port: Option<PortIx> },
    /// Arm a timer.
    Timer { after: SimDuration, token: u64 },
}

/// Execution context handed to app callbacks.
pub struct AppCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) dev: DeviceId,
    pub(crate) device_name: &'a str,
    pub(crate) device_ip: Option<Ipv4Addr>,
    pub(crate) epoch: SimTime,
    pub(crate) nics: &'a [Nic],
    /// Learning-bridge forwarding database (switches only): learned MAC →
    /// port index.
    pub(crate) fdb: Option<&'a KeyMap<MacAddr, PortIx>>,
    /// Lent by the engine for the callback and taken back when it returns.
    pub(crate) actions: Vec<Action>,
}

impl AppCtx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The device this app runs on.
    pub fn device(&self) -> DeviceId {
        self.dev
    }

    /// The device's name.
    pub fn device_name(&self) -> &str {
        self.device_name
    }

    /// The device's IP address (hosts and managed switches have one).
    pub fn device_ip(&self) -> Option<Ipv4Addr> {
        self.device_ip
    }

    /// `sysUpTime` of this device in TimeTicks (hundredths of a second).
    pub fn uptime_ticks(&self) -> u32 {
        self.now.timeticks_since(self.epoch)
    }

    /// The device's interfaces in ifIndex order (`nics()[i]` has ifIndex
    /// `i + 1`), borrowed: what an SNMP agent reads its counters from.
    pub fn nics(&self) -> &[Nic] {
        self.nics
    }

    /// Snapshots of the device's interfaces in ifIndex order — what an
    /// SNMP agent exports.
    pub fn nic_snapshots(&self) -> Vec<NicSnapshot> {
        self.nics
            .iter()
            .enumerate()
            .map(|(i, n)| NicSnapshot {
                if_index: i as u32 + 1,
                descr: n.descr.clone(),
                speed_bps: n.speed_bps,
                mac: n.mac,
                counters: n.counters,
            })
            .collect()
    }

    /// The device's bridge forwarding database, as `(mac, ifIndex)` pairs
    /// sorted by MAC, when this device is a learning switch — what the
    /// BRIDGE-MIB `dot1dTpFdbTable` exports. `None` on hosts and hubs.
    pub fn fdb_snapshot(&self) -> Option<Vec<(MacAddr, u32)>> {
        self.fdb.map(|table| {
            let mut v: Vec<(MacAddr, u32)> = table
                .iter()
                .map(|(mac, port)| (*mac, port.if_index()))
                .collect();
            v.sort_by_key(|(mac, _)| mac.octets());
            v
        })
    }

    /// Sends a UDP datagram. Large payloads are fragmented into MTU-sized
    /// packets by the host stack.
    pub fn send_udp(&mut self, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16, payload: Bytes) {
        self.actions.push(Action::SendUdp {
            src_port,
            dst_ip,
            dst_port,
            payload,
        });
    }

    /// Emits an uninterpreted broadcast frame of the given IP-layer length
    /// (background-noise sources use this). `port` defaults to the first
    /// NIC.
    pub fn send_raw_broadcast(&mut self, ip_len: usize, port: Option<PortIx>) {
        self.actions.push(Action::SendRawBroadcast { ip_len, port });
    }

    /// Arms a timer that will call [`UdpApp::on_timer`] with `token` after
    /// `after`.
    pub fn schedule(&mut self, after: SimDuration, token: u64) {
        self.actions.push(Action::Timer { after, token });
    }
}

/// A UDP application installed on a device.
///
/// All callbacks receive a fresh [`AppCtx`]; effects requested through it
/// are applied when the callback returns.
pub trait UdpApp {
    /// Called once when the simulation starts.
    fn on_start(&mut self, _ctx: &mut AppCtx<'_>) {}

    /// Called when a datagram arrives on the app's bound port.
    fn on_datagram(&mut self, _ctx: &mut AppCtx<'_>, _dgram: &UdpDatagram) {}

    /// Called when a timer armed with [`AppCtx::schedule`] fires.
    fn on_timer(&mut self, _ctx: &mut AppCtx<'_>, _token: u64) {}
}

/// Statistics accumulated by a [`DiscardSink`], observable from outside
/// the simulation through a shared handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscardStats {
    /// Datagrams received.
    pub datagrams: u64,
    /// Application payload bytes received.
    pub payload_bytes: u64,
}

/// The DISCARD service (RFC 863): accepts datagrams and drops them,
/// counting as it goes — the paper's load-generator target.
#[derive(Debug, Default)]
pub struct DiscardSink {
    stats: Rc<RefCell<DiscardStats>>,
}

impl DiscardSink {
    /// Creates a sink and a handle to its statistics.
    pub fn with_handle() -> (Self, Rc<RefCell<DiscardStats>>) {
        let stats = Rc::new(RefCell::new(DiscardStats::default()));
        (
            DiscardSink {
                stats: stats.clone(),
            },
            stats,
        )
    }
}

impl UdpApp for DiscardSink {
    fn on_datagram(&mut self, _ctx: &mut AppCtx<'_>, dgram: &UdpDatagram) {
        let mut s = self.stats.borrow_mut();
        s.datagrams += 1;
        s.payload_bytes += dgram.payload.len() as u64;
    }
}

/// The ECHO service (RFC 862): returns every datagram to its sender —
/// used by the latency-measurement extension.
#[derive(Debug, Default)]
pub struct EchoResponder;

impl UdpApp for EchoResponder {
    fn on_datagram(&mut self, ctx: &mut AppCtx<'_>, dgram: &UdpDatagram) {
        ctx.send_udp(
            dgram.dst_port,
            dgram.src_ip,
            dgram.src_port,
            dgram.payload.clone(),
        );
    }
}

/// A mailbox app: stores everything it receives, for external inspection.
/// The in-simulation SNMP manager uses one of these to collect agent
/// responses between engine steps.
#[derive(Debug, Default)]
pub struct Mailbox {
    inbox: Rc<RefCell<Vec<(SimTime, UdpDatagram)>>>,
}

impl Mailbox {
    /// Creates a mailbox and a handle to its inbox.
    #[allow(clippy::type_complexity)]
    pub fn with_handle() -> (Self, Rc<RefCell<Vec<(SimTime, UdpDatagram)>>>) {
        let inbox: Rc<RefCell<Vec<(SimTime, UdpDatagram)>>> = Rc::default();
        (
            Mailbox {
                inbox: inbox.clone(),
            },
            inbox,
        )
    }
}

impl UdpApp for Mailbox {
    fn on_datagram(&mut self, ctx: &mut AppCtx<'_>, dgram: &UdpDatagram) {
        self.inbox.borrow_mut().push((ctx.now(), dgram.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_with_nics(nics: &[Nic]) -> AppCtx<'_> {
        AppCtx {
            now: SimTime::from_micros(2_500_000),
            dev: DeviceId(0),
            device_name: "L",
            device_ip: Some(Ipv4Addr::new(10, 0, 0, 1)),
            epoch: SimTime::ZERO,
            nics,
            fdb: None,
            actions: Vec::new(),
        }
    }

    #[test]
    fn fdb_snapshot_none_on_hosts_sorted_on_switches() {
        let ctx = ctx_with_nics(&[]);
        assert!(ctx.fdb_snapshot().is_none());

        let mut table = KeyMap::default();
        table.insert(MacAddr::from_seed(9), PortIx(2));
        table.insert(MacAddr::from_seed(1), PortIx(0));
        let mut ctx = ctx_with_nics(&[]);
        ctx.fdb = Some(&table);
        let snap = ctx.fdb_snapshot().unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0], (MacAddr::from_seed(1), 1)); // sorted, 1-based
        assert_eq!(snap[1], (MacAddr::from_seed(9), 3));
    }

    #[test]
    fn uptime_ticks_from_epoch() {
        let ctx = ctx_with_nics(&[]);
        assert_eq!(ctx.uptime_ticks(), 250);
    }

    #[test]
    fn nic_snapshots_are_one_based() {
        let nics = vec![
            Nic::new(MacAddr::from_seed(1), "eth0", 100),
            Nic::new(MacAddr::from_seed(2), "eth1", 200),
        ];
        let ctx = ctx_with_nics(&nics);
        let snaps = ctx.nic_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].if_index, 1);
        assert_eq!(snaps[1].if_index, 2);
        assert_eq!(snaps[1].descr, "eth1");
    }

    #[test]
    fn actions_are_deferred() {
        let mut ctx = ctx_with_nics(&[]);
        ctx.send_udp(1, Ipv4Addr::new(10, 0, 0, 2), 9, Bytes::from_static(b"x"));
        ctx.schedule(SimDuration::from_millis(5), 42);
        ctx.send_raw_broadcast(60, None);
        assert_eq!(ctx.actions.len(), 3);
    }

    #[test]
    fn discard_sink_counts() {
        let (mut sink, handle) = DiscardSink::with_handle();
        let mut ctx = ctx_with_nics(&[]);
        let d = UdpDatagram {
            src_ip: Ipv4Addr::new(10, 0, 0, 2),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 5000,
            dst_port: 9,
            payload: Bytes::from(vec![0u8; 100]),
        };
        sink.on_datagram(&mut ctx, &d);
        sink.on_datagram(&mut ctx, &d);
        let s = handle.borrow();
        assert_eq!(s.datagrams, 2);
        assert_eq!(s.payload_bytes, 200);
    }

    #[test]
    fn echo_swaps_endpoints() {
        let mut echo = EchoResponder;
        let mut ctx = ctx_with_nics(&[]);
        let d = UdpDatagram {
            src_ip: Ipv4Addr::new(10, 0, 0, 2),
            dst_ip: Ipv4Addr::new(10, 0, 0, 1),
            src_port: 5000,
            dst_port: 7,
            payload: Bytes::from_static(b"ping"),
        };
        echo.on_datagram(&mut ctx, &d);
        match &ctx.actions[0] {
            Action::SendUdp {
                src_port,
                dst_ip,
                dst_port,
                payload,
            } => {
                assert_eq!(*src_port, 7);
                assert_eq!(*dst_ip, Ipv4Addr::new(10, 0, 0, 2));
                assert_eq!(*dst_port, 5000);
                assert_eq!(payload.as_ref(), b"ping");
            }
            other => panic!("unexpected action {other:?}"),
        }
    }
}
