//! # netqos-monitor
//!
//! The network QoS monitor — the primary contribution of *Monitoring
//! Network QoS in a Dynamic Real-Time System* (IPPS 2002).
//!
//! The monitor periodically polls SNMP agents on the hosts and network
//! devices named in a DeSiDeRaTa specification file, converts cumulative
//! MIB-II counters into per-interval traffic rates, and combines them with
//! the specified network topology to compute the **used and available
//! bandwidth of every real-time communication path**, which it reports to
//! the resource-management middleware.
//!
//! ## Pipeline
//!
//! ```text
//!  spec file ──► topology ─────────────┐
//!                                      ▼
//!  SNMP agents ──► [poll::DeviceSnapshot] ──► [delta] ──► rates (bits/s)
//!                                                            │
//!                       topology::bandwidth (hub/switch) ◄───┘
//!                                      ▼
//!  service tick ──► [report::PathRow] / [qos::QosEvent] ──► rm::ResourceManager::react
//! ```
//!
//! * [`poll`] — building the Table-1 OID set, parsing responses into
//!   snapshots.
//! * [`delta`] — wrap-safe Counter32 deltas over the `sysUpTime` interval
//!   (paper §3.1: "The old value is subtracted from the new one […] the
//!   time interval between two polling processes can be found using the
//!   system uptime data").
//! * [`monitor`] — [`monitor::NetworkMonitor`], the core state machine
//!   mapping snapshots to per-interface rates and path bandwidth.
//! * [`network`] — [`network::Network`], what the service polls
//!   through, and the one poll round over any network.
//! * [`simnet`] — runs the whole system inside the `netqos-sim` LAN:
//!   agents as simulated apps, polls as simulated SNMP/UDP traffic (so
//!   monitoring overhead perturbs the measurement, as in the paper), and
//!   [`simnet::TrueRates`], the ground truth the monitor is judged by.
//! * [`udpnet`] — the same service over real agents and UDP sockets (the
//!   paper's deployment, and its future-work item "distributed network
//!   monitoring").
//! * [`qos`] — violation detection against `qospath` requirements.
//! * [`latency`] — path RTT probes (future-work item: "measurement of
//!   network latency").
//! * [`report`] — [`report::PathRow`], the per-path row a service tick
//!   builds and every consumer reads.

pub mod delta;
pub mod discovery;
pub mod error;
pub mod latency;
pub mod live;
pub mod monitor;
pub mod network;
pub mod poll;
pub mod qos;
pub mod report;
pub mod service;
pub mod simnet;
pub mod telemetry;
pub mod udpnet;

pub use error::MonitorError;
pub use monitor::NetworkMonitor;
pub use network::Network;
pub use poll::DeviceSnapshot;
pub use qos::{QosEvent, QosMonitor};
pub use report::PathRow;
pub use service::{MonitoringService, ServiceConfig};
pub use simnet::SimNetwork;
pub use udpnet::UdpNetwork;
