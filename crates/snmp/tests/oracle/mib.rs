//! Reference oracle: the MIB the library kept before it was a sorted
//! vector, a `BTreeMap` whose key order is MIB order.
//! `tests/differential.rs` requires [`ScalarMib`](netqos_snmp::ScalarMib)
//! to answer every operation as this does.

use netqos_snmp::mib::MibView;
use netqos_snmp::value::ValueRef;
use netqos_snmp::{Oid, SnmpValue};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A flat OID-to-value store over a B-tree.
#[derive(Debug, Clone, Default)]
pub struct OracleMib {
    entries: BTreeMap<Oid, SnmpValue>,
}

impl OracleMib {
    pub fn insert(&mut self, oid: Oid, value: SnmpValue) {
        self.entries.insert(oid, value);
    }

    pub fn remove(&mut self, oid: &Oid) -> Option<SnmpValue> {
        self.entries.remove(oid)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Oid, &SnmpValue)> {
        self.entries.iter()
    }

    pub fn subtree<'a>(
        &'a self,
        prefix: &'a Oid,
    ) -> impl Iterator<Item = (&'a Oid, &'a SnmpValue)> {
        self.entries
            .range::<Oid, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
    }
}

impl MibView for OracleMib {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        self.entries.get(oid).map(ValueRef::from)
    }

    fn next_after(&self, oid: &Oid) -> Option<(Cow<'_, Oid>, ValueRef<'_>)> {
        self.entries
            .range::<Oid, _>((Bound::Excluded(oid), Bound::Unbounded))
            .next()
            .map(|(k, v)| (Cow::Borrowed(k), v.into()))
    }
}
