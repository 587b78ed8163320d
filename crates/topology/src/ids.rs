//! Strongly-typed identifiers for topology entities.
//!
//! All identifiers are plain indices into the owning [`NetworkTopology`]'s
//! vectors, wrapped in newtypes so that a node id cannot be confused with a
//! connection id at compile time. Identifiers are only meaningful relative
//! to the topology that issued them.
//!
//! [`NetworkTopology`]: crate::graph::NetworkTopology

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (host or network device) within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of an interface *within its owning node* (0-based).
///
/// This corresponds to `ifIndex − 1` in MIB-II terms: SNMP interface
/// indices are 1-based while `IfIx` is a plain vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IfIx(pub u32);

/// Identifier of a connection (physical cable) within a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConnId(pub u32);

/// Identifier of a shared-medium (hub) collision domain within a
/// topology: a hub plus every hub cascaded to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId(pub u32);

impl NodeId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl IfIx {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the 1-based MIB-II `ifIndex` for this interface.
    #[inline]
    pub fn if_index(self) -> u32 {
        self.0 + 1
    }

    /// Builds an `IfIx` from a 1-based MIB-II `ifIndex`.
    ///
    /// Returns `None` for `if_index == 0`, which is not a valid MIB-II
    /// interface index.
    #[inline]
    pub fn from_if_index(if_index: u32) -> Option<Self> {
        if_index.checked_sub(1).map(IfIx)
    }
}

impl ConnId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DomainId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl fmt::Display for IfIx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if#{}", self.0)
    }
}

impl fmt::Display for ConnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn if_index_round_trip() {
        let ix = IfIx(0);
        assert_eq!(ix.if_index(), 1);
        assert_eq!(IfIx::from_if_index(1), Some(IfIx(0)));
        assert_eq!(IfIx::from_if_index(42), Some(IfIx(41)));
    }

    #[test]
    fn if_index_zero_is_invalid() {
        assert_eq!(IfIx::from_if_index(0), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "node#3");
        assert_eq!(IfIx(1).to_string(), "if#1");
        assert_eq!(ConnId(7).to_string(), "conn#7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(ConnId(0) < ConnId(9));
    }
}
