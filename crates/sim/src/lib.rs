//! # netqos-sim
//!
//! A deterministic discrete-event Ethernet LAN simulator — the testbed
//! substrate for the netqos reproduction of *Monitoring Network QoS in a
//! Dynamic Real-Time System* (IPPS 2002).
//!
//! The paper's evaluation ran on a physical laboratory LAN (one 100 Mb/s
//! switch, one 10 Mb/s hub, Linux/Solaris/NT hosts). This crate recreates
//! that substrate in software with the properties the monitor depends on:
//!
//! * **Frame-level forwarding semantics.** A switch learns source MACs and
//!   forwards unicast frames only toward their destination port, resolving
//!   a destination it has not heard from as a preceding ARP exchange would
//!   have (it floods broadcasts and destinations no cable reaches); a
//!   **hub** repeats every frame to every other port through one shared
//!   medium whose capacity all stations share.
//! * **MIB-visible counters.** Every NIC maintains the MIB-II interface
//!   counters (`ifInOctets`, `ifOutOctets`, unicast/non-unicast packets,
//!   discards) as wrapping 32-bit counters, exactly what an SNMP agent
//!   exports.
//! * **Bandwidth and queueing.** Frames serialize at link rate; each port
//!   has a bounded transmit backlog with tail drop; hubs add a shared-
//!   medium serialization so concurrent senders contend for the hub's
//!   capacity.
//! * **A UDP application layer.** Hosts run [`app::UdpApp`]s bound to UDP
//!   ports; the load generator, the DISCARD sink, the echo responder, and
//!   the in-simulation SNMP agents/managers are all apps. Time is driven
//!   by app timers and frame events only — runs are bit-for-bit
//!   reproducible.
//!
//! ## Example
//!
//! ```
//! use netqos_sim::builder::LanBuilder;
//! use netqos_sim::app::DiscardSink;
//! use netqos_sim::time::{SimDuration, SimTime};
//!
//! let mut b = LanBuilder::new();
//! let a = b.add_host("A", "10.0.0.1").unwrap();
//! let a0 = b.add_nic(a, "eth0", 100_000_000).unwrap();
//! let sw = b.add_switch("sw", None).unwrap();
//! let p1 = b.add_nic(sw, "p1", 100_000_000).unwrap();
//! let p2 = b.add_nic(sw, "p2", 100_000_000).unwrap();
//! let c = b.add_host("B", "10.0.0.2").unwrap();
//! let c0 = b.add_nic(c, "eth0", 100_000_000).unwrap();
//! b.connect((a, a0), (sw, p1)).unwrap();
//! b.connect((sw, p2), (c, c0)).unwrap();
//! b.install_app(c, Box::new(DiscardSink::default()), Some(9)).unwrap();
//! let mut lan = b.build();
//!
//! lan.post_udp(a, 5000, "10.0.0.2".parse().unwrap(), 9, vec![0u8; 1000].into())
//!     .unwrap();
//! lan.run_until(SimTime::ZERO + SimDuration::from_millis(10));
//! let rx = lan.nic_counters(c, c0).unwrap();
//! assert!(rx.in_octets.value() > 1000);
//! ```

pub mod addr;
pub mod app;
pub mod builder;
pub mod counters;
pub mod error;
pub mod events;
pub mod nic;
pub mod packet;
pub mod time;
pub mod traffic;
pub mod world;

pub use addr::{Ipv4Addr, MacAddr};
pub use app::{AppCtx, UdpApp};
pub use builder::LanBuilder;
pub use error::SimError;
pub use events::{AppId, DeviceId, PortIx};
pub use packet::{Frame, UdpDatagram};
pub use time::{SimDuration, SimTime};
pub use world::Lan;
