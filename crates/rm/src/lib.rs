//! # netqos-rm
//!
//! A DeSiDeRaTa-style resource-manager substrate — the consumer of the
//! network monitor's reports.
//!
//! The paper positions its monitor as a component of the DeSiDeRaTa
//! middleware, which "performs QoS monitoring and failure detection, QoS
//! diagnosis, and reallocation of resources to adapt the system to achieve
//! acceptable levels of QoS". The original middleware managed only
//! computational resources and "assumed no QoS violation is caused by
//! network delays"; this crate closes the loop on the network side:
//!
//! * [`app`] — real-time applications allocated to hosts;
//! * [`manager`] — the RM event loop, fed by the monitoring service (the
//!   paper's step 6: the monitor "feeds the results to the resource
//!   manager"): each tick's path QoS violations are taken from
//!   `MonitoringService::tick`, the RM **diagnoses** the bottleneck
//!   connection and proposes a **reallocation** (moving an application
//!   endpoint to a host whose communication path avoids the bottleneck).
//!
//! ```text
//! let events = svc.tick()?;
//! for event in rm.react(&events, svc.monitor()) { /* advice, no remedy, recovery */ }
//! ```
//!
//! The reallocation heuristic is intentionally simple and fully
//! deterministic: among candidate hosts it picks the one whose path to the
//! fixed peer has the largest available bandwidth while avoiding the
//! diagnosed bottleneck. A production middleware would add CPU load and
//! deadline feasibility; those dimensions belong to the original
//! DeSiDeRaTa work and are out of the reproduced paper's scope.

pub mod app;
pub mod manager;

pub use app::{Allocation, RtApp};
pub use manager::{ReallocationAdvice, ResourceManager, RmEvent};
