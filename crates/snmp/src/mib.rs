//! Management Information Base storage and lookup.
//!
//! An SNMP agent answers `Get` by exact lookup and `GetNext` by finding the
//! lexicographically next instance. [`MibView`] abstracts over those two
//! operations; [`ScalarMib`] is the standard implementation backed by a
//! `BTreeMap<Oid, SnmpValue>` whose key order *is* MIB order.

use crate::oid::Oid;
use crate::value::{SnmpValue, ValueRef};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Read-only view of a MIB, sufficient to serve Get/GetNext.
///
/// A view *lends* what it finds: the agent encodes the borrowed name and
/// value straight into its response, so answering clones nothing. A view
/// over live state (interface counters, a clock) returns scalars by value
/// inside the [`ValueRef`] and borrows only strings it already holds.
pub trait MibView {
    /// Exact instance lookup.
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>>;

    /// The first instance strictly after `oid` in MIB order, together with
    /// its value. `None` signals the end of the MIB.
    fn next_after(&self, oid: &Oid) -> Option<(&Oid, ValueRef<'_>)>;
}

/// A flat OID-to-value store.
#[derive(Debug, Clone, Default)]
pub struct ScalarMib {
    entries: BTreeMap<Oid, SnmpValue>,
}

impl ScalarMib {
    /// Creates an empty MIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces an instance.
    pub fn insert(&mut self, oid: Oid, value: SnmpValue) {
        self.entries.insert(oid, value);
    }

    /// Removes an instance.
    pub fn remove(&mut self, oid: &Oid) -> Option<SnmpValue> {
        self.entries.remove(oid)
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the MIB holds no instances.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates instances in MIB order.
    pub fn iter(&self) -> impl Iterator<Item = (&Oid, &SnmpValue)> {
        self.entries.iter()
    }

    /// All instances under a subtree prefix, in MIB order.
    pub fn subtree<'a>(
        &'a self,
        prefix: &'a Oid,
    ) -> impl Iterator<Item = (&'a Oid, &'a SnmpValue)> {
        self.entries
            .range::<Oid, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }
}

impl MibView for ScalarMib {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        self.entries.get(oid).map(ValueRef::from)
    }

    fn next_after(&self, oid: &Oid) -> Option<(&Oid, ValueRef<'_>)> {
        self.entries
            .range::<Oid, _>((Bound::Excluded(oid), Bound::Unbounded))
            .next()
            .map(|(k, v)| (k, v.into()))
    }
}

/// A [`MibView`] that overlays one view on another: lookups try `upper`
/// first, then `base`. Useful for composing the system group with a
/// dynamically regenerated interfaces table.
pub struct LayeredMib<'a> {
    /// Preferred layer.
    pub upper: &'a dyn MibView,
    /// Fallback layer.
    pub base: &'a dyn MibView,
}

impl MibView for LayeredMib<'_> {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        self.upper.get(oid).or_else(|| self.base.get(oid))
    }

    fn next_after(&self, oid: &Oid) -> Option<(&Oid, ValueRef<'_>)> {
        match (self.upper.next_after(oid), self.base.next_after(oid)) {
            (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    fn sample() -> ScalarMib {
        let mut m = ScalarMib::new();
        m.insert(oid("1.3.6.1.2.1.1.3.0"), SnmpValue::TimeTicks(100));
        m.insert(oid("1.3.6.1.2.1.2.1.0"), SnmpValue::Integer(2));
        m.insert(oid("1.3.6.1.2.1.2.2.1.10.1"), SnmpValue::Counter32(1111));
        m.insert(oid("1.3.6.1.2.1.2.2.1.10.2"), SnmpValue::Counter32(2222));
        m.insert(oid("1.3.6.1.2.1.2.2.1.16.1"), SnmpValue::Counter32(3333));
        m
    }

    #[test]
    fn get_exact() {
        let m = sample();
        assert_eq!(
            m.get(&oid("1.3.6.1.2.1.1.3.0")),
            Some(ValueRef::TimeTicks(100))
        );
        assert_eq!(m.get(&oid("1.3.6.1.2.1.1.3")), None); // prefix ≠ instance
    }

    #[test]
    fn next_after_walks_in_order() {
        let m = sample();
        let mut cur = Oid::empty();
        let mut seen = Vec::new();
        while let Some((next, _)) = m.next_after(&cur) {
            seen.push(next.to_string());
            cur = next.clone();
        }
        assert_eq!(
            seen,
            vec![
                "1.3.6.1.2.1.1.3.0",
                "1.3.6.1.2.1.2.1.0",
                "1.3.6.1.2.1.2.2.1.10.1",
                "1.3.6.1.2.1.2.2.1.10.2",
                "1.3.6.1.2.1.2.2.1.16.1",
            ]
        );
    }

    #[test]
    fn next_after_from_prefix_enters_subtree() {
        let m = sample();
        let (next, _) = m.next_after(&oid("1.3.6.1.2.1.2.2")).unwrap();
        assert_eq!(next, &oid("1.3.6.1.2.1.2.2.1.10.1"));
    }

    #[test]
    fn next_after_end_of_mib() {
        let m = sample();
        assert_eq!(m.next_after(&oid("1.3.6.1.2.1.2.2.1.16.1")), None);
        assert_eq!(m.next_after(&oid("9.9")), None);
    }

    #[test]
    fn subtree_iteration() {
        let m = sample();
        let table = oid("1.3.6.1.2.1.2.2");
        let rows: Vec<_> = m.subtree(&table).map(|(k, _)| k.to_string()).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.starts_with("1.3.6.1.2.1.2.2")));
    }

    #[test]
    fn layered_prefers_upper_and_merges_walks() {
        let mut base = ScalarMib::new();
        base.insert(oid("1.1"), SnmpValue::Integer(1));
        base.insert(oid("1.3"), SnmpValue::Integer(3));
        let mut upper = ScalarMib::new();
        upper.insert(oid("1.2"), SnmpValue::Integer(2));
        upper.insert(oid("1.3"), SnmpValue::Integer(30)); // shadows base
        let layered = LayeredMib {
            upper: &upper,
            base: &base,
        };
        assert_eq!(layered.get(&oid("1.3")), Some(ValueRef::Integer(30)));
        assert_eq!(layered.get(&oid("1.1")), Some(ValueRef::Integer(1)));
        let (n1, _) = layered.next_after(&oid("1.1")).unwrap();
        assert_eq!(n1, &oid("1.2"));
        let (n2, v2) = layered.next_after(&oid("1.2")).unwrap();
        assert_eq!((n2, v2), (&oid("1.3"), ValueRef::Integer(30)));
    }
}
