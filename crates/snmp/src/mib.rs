//! Management Information Base storage and lookup.
//!
//! An SNMP agent answers `Get` by exact lookup and `GetNext` by finding the
//! lexicographically next instance. [`MibView`] abstracts over those two
//! operations; [`ScalarMib`] is the standard implementation. It keeps the
//! `ifTable` cells of columns 1–21, what every poll asks for, as one row
//! per interface, so `Get` of one is a match on its name and an index.
//! Every other instance is in one vector sorted by name, where `Get` and
//! `GetNext` are each a binary search.

use crate::mib2::interfaces::{self, column, IF_ENTRY_ARCS as IF_ENTRY};
use crate::oid::Oid;
use crate::value::{SnmpValue, ValueRef};
use std::borrow::Cow;

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
    /// its value. `None` signals the end of the MIB. The name is borrowed
    /// where the view holds it, and owned where the view holds only its
    /// place (an `ifTable` cell of a [`ScalarMib`] row).
    fn next_after(&self, oid: &Oid) -> Option<(Cow<'_, Oid>, ValueRef<'_>)>;
}

/// The `ifEntry` columns a row holds: `ifIndex`(1) to `ifOutQLen`(21).
const COLUMNS: usize = column::IF_OUT_QLEN as usize;

/// One interface's cells, column `k + 1` at `k`.
type Row = [Option<SnmpValue>; COLUMNS];

const EMPTY_ROW: Row = [const { None }; COLUMNS];

/// An OID-to-value store.
///
/// The cells of `ifEntry` columns 1–21 live in rows, indexed by ifIndex;
/// reading or replacing one is an index. Every other name is in a sorted
/// vector: replacing the value of a name it holds costs a binary search,
/// and so does adding a name past the last one. Adding a name anywhere
/// else shifts the entries behind it, so a table is built in bulk:
/// through [`Extend`] (what the `mib2` installers use), which appends
/// everything and sorts once if it must.
#[derive(Debug, Clone, Default)]
pub struct ScalarMib {
    /// Every instance no row can hold, in MIB order, no name twice.
    entries: Vec<(Oid, SnmpValue)>,
    /// The cells of ifIndex `r + 1` at `r`, reserved exactly. A row is
    /// pushed when a cell of the next ifIndex arrives, and that ifIndex's
    /// cells then leave `entries`: `entries` holds no name a row can hold.
    rows: Vec<Row>,
}

/// Where a row keeps the cell `oid` names: `(row, column)`, both from 0.
fn cell_of(oid: &Oid) -> Option<(usize, usize)> {
    let (col, if_index) = interfaces::parse_instance(oid)?;
    let k = (col as usize).checked_sub(1).filter(|&k| k < COLUMNS)?;
    Some(((if_index as usize).checked_sub(1)?, k))
}

/// The first place `(column, row)`, in walk order (column by column, then
/// row by row), whose cell's name is after `oid`, or also at it when
/// `inclusive`. `(COLUMNS, 0)` is past every cell.
fn cell_bound(oid: &Oid, inclusive: bool) -> (usize, usize) {
    let arcs = oid.arcs();
    match arcs.strip_prefix(&IF_ENTRY[..]) {
        None if arcs < &IF_ENTRY[..] => (0, 0),
        None => (COLUMNS, 0),
        Some([] | [0, ..]) => (0, 0),
        Some(&[col]) => (col as usize - 1, 0),
        Some(&[col, if_index]) if inclusive => (col as usize - 1, (if_index as usize).max(1) - 1),
        // `ifEntry.col.if_index` itself, or a name under it: the next row.
        Some(&[col, if_index, ..]) => (col as usize - 1, if_index as usize),
    }
}

impl ScalarMib {
    /// Creates an empty MIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty MIB with room for `entries` instances that no row
    /// holds (every name but an `ifTable` cell of columns 1–21).
    pub fn with_capacity(entries: usize) -> Self {
        ScalarMib {
            entries: Vec::with_capacity(entries),
            rows: Vec::new(),
        }
    }

    /// Inserts or replaces an instance.
    pub fn insert(&mut self, oid: Oid, value: SnmpValue) {
        let rows = self.rows.len();
        if let Some(cell) = self.cell_mut(&oid) {
            *cell = Some(value);
            if self.rows.len() > rows {
                self.settle();
            }
            return;
        }
        match self.position(&oid) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => self.entries.insert(at, (oid, value)),
        }
    }

    /// Removes an instance.
    pub fn remove(&mut self, oid: &Oid) -> Option<SnmpValue> {
        if let Some((r, k)) = self.held_cell(oid) {
            return self.rows[r][k].take();
        }
        let at = self.position(oid).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        let cells = self.rows.iter().flatten().filter(|cell| cell.is_some());
        self.entries.len() + cells.count()
    }

    /// True when the MIB holds no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates instances in MIB order. A name is borrowed, or, for a row
    /// cell, an inline 11-arc copy.
    pub fn iter(&self) -> impl Iterator<Item = (Cow<'_, Oid>, &SnmpValue)> {
        self.merged(0, (0, 0))
    }

    /// All instances under a subtree prefix, in MIB order.
    pub fn subtree<'a>(
        &'a self,
        prefix: &'a Oid,
    ) -> impl Iterator<Item = (Cow<'a, Oid>, &'a SnmpValue)> {
        let at = self.entries.partition_point(|(name, _)| name < prefix);
        self.merged(at, cell_bound(prefix, true))
            .take_while(move |(name, _)| name.starts_with(prefix))
    }

    /// Where `oid` is in `entries`, or where it would go.
    fn position(&self, oid: &Oid) -> Result<usize, usize> {
        self.entries.binary_search_by(|(name, _)| name.cmp(oid))
    }

    /// The row and column of the cell `oid` names, if its row exists.
    fn held_cell(&self, oid: &Oid) -> Option<(usize, usize)> {
        cell_of(oid).filter(|&(r, _)| r < self.rows.len())
    }

    /// The cell `oid` names, pushing its row first when it is the next
    /// one; the caller then [settles](Self::settle) `entries`.
    fn cell_mut(&mut self, oid: &Oid) -> Option<&mut Option<SnmpValue>> {
        let (r, k) = cell_of(oid).filter(|&(r, _)| r <= self.rows.len())?;
        if r == self.rows.len() {
            self.rows.reserve_exact(1);
            self.rows.push(EMPTY_ROW);
        }
        Some(&mut self.rows[r][k])
    }

    /// Moves every cell of a row out of the sorted `entries`, first pushing
    /// the row of each next ifIndex `entries` holds a cell of. Of a name
    /// found in both, the row's value arrived later and stays.
    fn settle(&mut self) {
        let table = self
            .entries
            .partition_point(|(name, _)| name.arcs() < &IF_ENTRY[..]);
        let end = table
            + self.entries[table..].partition_point(|(name, _)| name.arcs().starts_with(&IF_ENTRY));
        let mut waiting: Vec<usize> = self.entries[table..end]
            .iter()
            .filter_map(|(name, _)| Some(cell_of(name)?.0))
            .collect();
        waiting.sort_unstable();
        let rows = waiting
            .iter()
            .fold(self.rows.len(), |rows, &r| rows + usize::from(r == rows));
        if waiting.first().is_none_or(|&r| r >= rows) {
            return;
        }
        self.rows.reserve_exact(rows - self.rows.len());
        self.rows.resize(rows, EMPTY_ROW);
        let held = &mut self.rows;
        self.entries
            .retain_mut(|(name, value)| match cell_of(name) {
                Some((r, k)) if r < held.len() => {
                    held[r][k].get_or_insert_with(|| std::mem::replace(value, SnmpValue::Null));
                    false
                }
                _ => true,
            });
    }

    /// The cells from `place` on (see [`cell_bound`]), in walk order.
    fn cells_from(&self, place: (usize, usize)) -> impl Iterator<Item = (Oid, &SnmpValue)> {
        (place.0..COLUMNS).flat_map(move |k| {
            let from = if k == place.0 { place.1 } else { 0 };
            let rows = self.rows.iter().enumerate().skip(from);
            rows.filter_map(move |(r, row)| {
                let value = row[k].as_ref()?;
                Some((interfaces::instance_oid(k as u32 + 1, r as u32 + 1), value))
            })
        })
    }

    /// `entries[at..]` and the cells from `place` on, merged into MIB
    /// order.
    fn merged(
        &self,
        at: usize,
        place: (usize, usize),
    ) -> impl Iterator<Item = (Cow<'_, Oid>, &SnmpValue)> {
        let mut flat = self.entries[at..].iter().peekable();
        let mut cells = self.cells_from(place).peekable();
        std::iter::from_fn(move || {
            let cell_first = match (flat.peek(), cells.peek()) {
                (Some((name, _)), Some((cell, _))) => cell < name,
                (_, cell) => cell.is_some(),
            };
            if cell_first {
                cells.next().map(|(name, value)| (Cow::Owned(name), value))
            } else {
                flat.next()
                    .map(|(name, value)| (Cow::Borrowed(name), value))
            }
        })
    }
}

/// The bulk build: puts each cell of an existing row or the next one in
/// its row and appends every other instance, then, unless those arrived
/// in MIB order past the last one held, sorts once. Where a name occurs
/// twice the later value wins, as with [`ScalarMib::insert`]. The vector
/// keeps no room its own growth added.
impl Extend<(Oid, SnmpValue)> for ScalarMib {
    fn extend<I: IntoIterator<Item = (Oid, SnmpValue)>>(&mut self, iter: I) {
        let start = self.entries.len();
        let room = self.entries.capacity();
        for (name, value) in iter {
            match self.cell_mut(&name) {
                Some(cell) => *cell = Some(value),
                None => self.entries.push((name, value)),
            }
        }
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
        self.settle();
        if self.entries.capacity() > room {
            self.entries.shrink_to_fit();
        }
    }
}

impl MibView for ScalarMib {
    fn get(&self, oid: &Oid) -> Option<ValueRef<'_>> {
        if let Some((r, k)) = self.held_cell(oid) {
            return self.rows[r][k].as_ref().map(Into::into);
        }
        let at = self.position(oid).ok()?;
        Some((&self.entries[at].1).into())
    }

    fn next_after(&self, oid: &Oid) -> Option<(Cow<'_, Oid>, ValueRef<'_>)> {
        let at = self.entries.partition_point(|(name, _)| name <= oid);
        let (name, value) = self.merged(at, cell_bound(oid, false)).next()?;
        Some((name, value.into()))
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
        assert_eq!(
            m.get(&oid("1.3.6.1.2.1.2.2.1.16.1")),
            Some(ValueRef::Counter32(3333))
        );
        assert_eq!(m.get(&oid("1.3.6.1.2.1.1.3")), None); // prefix ≠ instance
        assert_eq!(m.get(&oid("1.3.6.1.2.1.2.2.1.16.2")), None); // row, no cell
        assert_eq!(ScalarMib::new().get(&oid("1.3")), None);
    }

    #[test]
    fn next_after_walks_in_order() {
        let m = sample();
        let mut cur = Oid::empty();
        let mut seen = Vec::new();
        while let Some((next, _)) = m.next_after(&cur) {
            seen.push(next.to_string());
            cur = next.into_owned();
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
        assert_eq!(*next, oid("1.3.6.1.2.1.2.2.1.10.1"));
        let (next, _) = m.next_after(&oid("1.3.6.1.2.1.2.2.1.10.1.0")).unwrap();
        assert_eq!(*next, oid("1.3.6.1.2.1.2.2.1.10.2"));
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
        let cell = oid("1.3.6.1.2.1.2.2.1.10.2");
        assert_eq!(m.subtree(&cell).count(), 1);
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
            assert!(m.get(&name).is_some(), "{name}");
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
        assert_eq!(*first, oid("1.3.6.1.2.1.1.1.0"));
        // Appended in order: exactly the room the entries need, the three
        // cells in two rows.
        let mut built = ScalarMib::new();
        built.extend(sample().iter().map(|(k, v)| (k.into_owned(), v.clone())));
        assert_eq!(built.entries.capacity(), 2);
        assert_eq!(built.rows.capacity(), 2);
        assert!(built.iter().eq(sample().iter()));
    }

    #[test]
    fn a_cell_waits_in_the_vector_until_its_row_is_next() {
        let mut m = ScalarMib::new();
        m.insert(oid("1.3.6.1.2.1.2.2.1.5.3"), SnmpValue::Gauge32(3));
        m.insert(oid("1.3.6.1.2.1.2.2.1.5.2"), SnmpValue::Gauge32(2));
        assert_eq!((m.entries.len(), m.rows.len()), (2, 0));
        // Row 1 arrives; rows 2 and 3 follow it out of the vector.
        m.insert(oid("1.3.6.1.2.1.2.2.1.1.1"), SnmpValue::Integer(1));
        assert_eq!((m.entries.len(), m.rows.len()), (0, 3));
        assert_eq!(m.rows.capacity(), 3);
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.get(&oid("1.3.6.1.2.1.2.2.1.5.3")),
            Some(ValueRef::Gauge32(3))
        );
    }
}
