//! Management Information Base storage and lookup.
//!
//! An SNMP agent answers `Get` by exact lookup and `GetNext` by finding the
//! lexicographically next instance. [`MibView`] abstracts over those two
//! operations; [`ScalarMib`] is the standard implementation: one vector of
//! entries sorted by name, so `Get` and `GetNext` are each a binary search.

use crate::oid::Oid;
use crate::value::{SnmpValue, ValueRef};

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
///
/// Replacing the value of a name it holds costs a binary search, and so
/// does adding a name past the last one. Adding a name anywhere else
/// shifts the entries behind it, so a table is built in bulk: through
/// [`Extend`] (what the `mib2` installers use), which appends everything
/// and sorts once if it must.
#[derive(Debug, Clone, Default)]
pub struct ScalarMib {
    /// Every instance, in MIB order, no name twice.
    entries: Vec<(Oid, SnmpValue)>,
}

impl ScalarMib {
    /// Creates an empty MIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty MIB with room for `entries` instances.
    pub fn with_capacity(entries: usize) -> Self {
        ScalarMib {
            entries: Vec::with_capacity(entries),
        }
    }

    /// Inserts or replaces an instance.
    pub fn insert(&mut self, oid: Oid, value: SnmpValue) {
        match self.position(&oid) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => self.entries.insert(at, (oid, value)),
        }
    }

    /// Removes an instance.
    pub fn remove(&mut self, oid: &Oid) -> Option<SnmpValue> {
        let at = self.position(oid).ok()?;
        Some(self.entries.remove(at).1)
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
        self.entries.iter().map(|(name, value)| (name, value))
    }

    /// All instances under a subtree prefix, in MIB order.
    pub fn subtree<'a>(
        &'a self,
        prefix: &'a Oid,
    ) -> impl Iterator<Item = (&'a Oid, &'a SnmpValue)> {
        let start = self.entries.partition_point(|(name, _)| name < prefix);
        self.entries[start..]
            .iter()
            .take_while(move |(name, _)| name.starts_with(prefix))
            .map(|(name, value)| (name, value))
    }

    /// Where `oid` is in `entries`, or where it would go.
    fn position(&self, oid: &Oid) -> Result<usize, usize> {
        self.entries.binary_search_by(|(name, _)| name.cmp(oid))
    }
}

/// The bulk build: appends every instance, then, unless they arrived in
/// MIB order past the last one held, sorts once. Where a name occurs
/// twice the later value wins, as with [`ScalarMib::insert`]. Room is
/// reserved for exactly the iterator's lower size bound.
impl Extend<(Oid, SnmpValue)> for ScalarMib {
    fn extend<I: IntoIterator<Item = (Oid, SnmpValue)>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        let start = self.entries.len();
        self.entries.reserve_exact(iter.size_hint().0);
        self.entries.extend(iter);
        let in_order = self.entries[start.saturating_sub(1)..]
            .windows(2)
            .all(|pair| pair[0].0 < pair[1].0);
        if !in_order {
            // Stable, so of two equal names the later stays second.
            self.entries.sort_by(|a, b| a.0.cmp(&b.0));
            self.entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(&mut later.1, &mut kept.1);
                }
                same
            });
        }
    }
}

impl MibView for ScalarMib {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        let at = self.position(oid).ok()?;
        Some((&self.entries[at].1).into())
    }

    fn next_after(&self, oid: &Oid) -> Option<(&Oid, ValueRef<'_>)> {
        let at = self.entries.partition_point(|(name, _)| name <= oid);
        self.entries
            .get(at)
            .map(|(name, value)| (name, value.into()))
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
        assert_eq!(ScalarMib::new().get(&oid("1.3")), None);
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
    fn inserts_out_of_order_replacements_and_removals_keep_order() {
        let mut m = ScalarMib::new();
        for name in ["1.5", "1.1", "1.3", "1.2", "1.4"] {
            m.insert(oid(name), SnmpValue::Integer(0));
        }
        m.insert(oid("1.3"), SnmpValue::Integer(3)); // replaces in place
        assert_eq!(m.len(), 5);
        assert_eq!(m.remove(&oid("1.1")), Some(SnmpValue::Integer(0)));
        assert_eq!(m.remove(&oid("1.1")), None);
        let names: Vec<_> = m.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["1.2", "1.3", "1.4", "1.5"]);
        for (name, _) in m.iter() {
            assert!(m.get(name).is_some(), "{name}");
        }
        assert_eq!(m.get(&oid("1.3")), Some(ValueRef::Integer(3)));
    }

    #[test]
    fn a_bulk_build_sorts_once_and_the_later_duplicate_wins() {
        let mut m = sample();
        m.extend([
            (oid("1.3.6.1.2.1.2.2.1.10.1"), SnmpValue::Counter32(1)),
            (oid("1.3.6.1.2.1.1.1.0"), SnmpValue::text("descr")),
            (oid("1.3.6.1.2.1.2.2.1.10.1"), SnmpValue::Counter32(2)),
        ]);
        assert_eq!(m.len(), 6);
        assert_eq!(
            m.get(&oid("1.3.6.1.2.1.2.2.1.10.1")),
            Some(ValueRef::Counter32(2))
        );
        let (first, _) = m.next_after(&Oid::empty()).unwrap();
        assert_eq!(first, &oid("1.3.6.1.2.1.1.1.0"));
        // Appended in order: exactly the room the entries need.
        let mut built = ScalarMib::new();
        built.extend(sample().iter().map(|(k, v)| (k.clone(), v.clone())));
        assert_eq!(built.entries.capacity(), 5);
    }
}
