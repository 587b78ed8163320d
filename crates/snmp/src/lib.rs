//! # netqos-snmp
//!
//! A from-scratch SNMPv1 implementation (RFC 1157) with the MIB-II groups
//! (RFC 1213) needed for network bandwidth monitoring, built for the netqos
//! reproduction of *Monitoring Network QoS in a Dynamic Real-Time System*
//! (IPPS 2002).
//!
//! The crate is **sans-IO at its core**: every protocol operation works on
//! byte slices, so the same agent and manager code runs over an
//! in-process loopback ([`transport::LoopbackTransport`]), over real UDP
//! sockets ([`transport::UdpAgentServer`] on the agent's side,
//! `netqos-monitor`'s `UdpWire` on the manager's), and over the simulated
//! LAN of `netqos-sim` (`netqos-monitor`'s `SimWire`).
//!
//! ## Layers
//!
//! * [`ber`] — ASN.1 Basic Encoding Rules subset used by SNMP: definite
//!   lengths, INTEGER / OCTET STRING / NULL / OBJECT IDENTIFIER / SEQUENCE
//!   plus the SNMP application types (IpAddress, Counter32, Gauge32,
//!   TimeTicks, Opaque).
//! * [`oid`] — object identifiers with total ordering (drives `GetNext`).
//! * [`value`] — the SNMP value union.
//! * [`pdu`] / [`message`] — Get/GetNext/Set/Response and Trap PDUs inside
//!   the community-string message wrapper.
//! * [`mib`] — an OID-ordered store and the `MibView` lookup trait.
//! * [`mib2`] — the `system` and `interfaces` groups; includes the exact
//!   six objects of the paper's Table 1.
//! * [`agent`] / [`client`] — request handling; request building and the
//!   one manager (Get, GetNext, both walks) over any transport.
//! * [`transport`] — the request/response transports a
//!   [`client::Session`] talks through, and a UDP agent server.
//!
//! ## Example: in-process agent
//!
//! ```
//! use netqos_snmp::agent::SnmpAgent;
//! use netqos_snmp::client;
//! use netqos_snmp::mib::ScalarMib;
//! use netqos_snmp::mib2::{self, SystemInfo};
//! use netqos_snmp::value::SnmpValue;
//!
//! let mut mib = ScalarMib::new();
//! mib2::system::install(&mut mib, &SystemInfo::new("demo host"), 12345);
//!
//! let mut agent = SnmpAgent::new("public");
//! let req = client::build_get("public", 1, &[mib2::system::sys_uptime_instance()]).unwrap();
//! let resp = agent.handle(&req, &mib).unwrap();
//! let parsed = client::parse_response(&resp).unwrap();
//! assert_eq!(parsed.request_id, 1);
//! assert_eq!(parsed.bindings[0].value, SnmpValue::TimeTicks(12345));
//! ```

pub mod agent;
pub mod ber;
pub mod client;
pub mod error;
mod memo;
pub mod message;
pub mod mib;
pub mod mib2;
pub mod oid;
pub mod pdu;
pub mod telemetry;
pub mod transport;
pub mod value;

pub use agent::SnmpAgent;
pub use error::SnmpError;
pub use message::{SnmpMessage, SnmpVersion};
pub use mib::{MibView, ScalarMib};
pub use oid::Oid;
pub use pdu::{ErrorStatus, Pdu, PduType, VarBind};
pub use value::SnmpValue;
