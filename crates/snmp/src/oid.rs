//! ASN.1 object identifiers.
//!
//! An [`Oid`] is a sequence of non-negative integer arcs, e.g.
//! `1.3.6.1.2.1.2.2.1.10.3` (`ifInOctets` of interface 3). OIDs order
//! lexicographically by arc, which is exactly the order `GetNextRequest`
//! walks a MIB.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Arcs an [`Oid`] holds without a heap allocation.
///
/// Every MIB-II `system` scalar (9 arcs) and `ifTable` instance (11 arcs)
/// fits, so the poll path never allocates for a name. Twelve words of
/// arcs, the length and the discriminant make 56 bytes: with its arcs on
/// the heap an 11-arc OID used 24 bytes plus a 64-byte allocation, so a
/// MIB entry does not grow. BRIDGE-MIB forwarding-database instances (17
/// arcs) take the heap fallback.
pub const INLINE_ARCS: usize = 12;

/// Invariant: `Inline` whenever the OID has at most [`INLINE_ARCS`] arcs
/// (nothing shortens an OID), so equal OIDs share a representation.
///
/// `len` is a full word so that the arcs follow it without padding: with
/// a one-byte length the compiler moves the variant through misaligned
/// copies, which cost more than the allocation this layout saves.
#[derive(Debug, Clone)]
enum Repr {
    Inline { len: u32, arcs: [u32; INLINE_ARCS] },
    Heap(Vec<u32>),
}

/// An object identifier: a sequence of arcs.
///
/// `Ord` is lexicographic over arcs, which is MIB ordering, so a slice of
/// entries sorted by `Oid` answers `GetNext` by binary search. Comparison, equality and
/// hashing see only the arcs, never where they are stored.
#[derive(Clone)]
pub struct Oid {
    repr: Repr,
}

impl Oid {
    /// Creates an OID from arcs.
    pub fn new(arcs: impl Into<Vec<u32>>) -> Self {
        let arcs: Vec<u32> = arcs.into();
        if arcs.len() <= INLINE_ARCS {
            Oid::from(arcs.as_slice())
        } else {
            Oid {
                repr: Repr::Heap(arcs),
            }
        }
    }

    /// The empty OID (zero arcs). Valid as a `GetNext` starting point but
    /// not encodable on the wire (BER requires at least two arcs).
    pub const fn empty() -> Self {
        Oid::zeroed(0)
    }

    /// An OID of `len` (at most [`INLINE_ARCS`]) arcs, all zero, and its
    /// arcs to fill in. Building the OID where it will live spares the
    /// copies a by-value constructor makes.
    #[inline(always)]
    pub(crate) const fn zeroed(len: usize) -> Self {
        debug_assert!(len <= INLINE_ARCS);
        Oid {
            repr: Repr::Inline {
                len: len as u32,
                arcs: [0; INLINE_ARCS],
            },
        }
    }

    /// The inline arcs, used and unused, of an OID that has no more than
    /// [`INLINE_ARCS`].
    #[inline(always)]
    pub(crate) fn inline_arcs_mut(&mut self) -> &mut [u32; INLINE_ARCS] {
        match &mut self.repr {
            Repr::Inline { arcs, .. } => arcs,
            Repr::Heap(_) => unreachable!("longer than the inline capacity"),
        }
    }

    /// The arcs of this OID.
    #[inline]
    pub fn arcs(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, arcs } => &arcs[..*len as usize],
            Repr::Heap(arcs) => arcs,
        }
    }

    /// Number of arcs.
    #[inline]
    pub fn len(&self) -> usize {
        self.arcs().len()
    }

    /// True when the OID has no arcs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.arcs().is_empty()
    }

    /// Returns a new OID with `arc` appended.
    pub fn child(&self, arc: u32) -> Oid {
        self.extend(&[arc])
    }

    /// Returns a new OID with all of `suffix` appended.
    pub fn extend(&self, suffix: &[u32]) -> Oid {
        let own = self.arcs();
        let total = own.len() + suffix.len();
        if total <= INLINE_ARCS {
            let mut oid = Oid::zeroed(total);
            let arcs = oid.inline_arcs_mut();
            arcs[..own.len()].copy_from_slice(own);
            arcs[own.len()..total].copy_from_slice(suffix);
            oid
        } else {
            let mut arcs = Vec::with_capacity(total);
            arcs.extend_from_slice(own);
            arcs.extend_from_slice(suffix);
            Oid {
                repr: Repr::Heap(arcs),
            }
        }
    }

    /// Appends an arc in place.
    pub fn push(&mut self, arc: u32) {
        match &mut self.repr {
            Repr::Inline { len, arcs } if (*len as usize) < INLINE_ARCS => {
                arcs[*len as usize] = arc;
                *len += 1;
            }
            Repr::Inline { arcs, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_ARCS);
                spilled.extend_from_slice(arcs);
                spilled.push(arc);
                self.repr = Repr::Heap(spilled);
            }
            Repr::Heap(arcs) => arcs.push(arc),
        }
    }

    /// True if `self` starts with `prefix` (a MIB subtree test).
    pub fn starts_with(&self, prefix: &Oid) -> bool {
        self.arcs().starts_with(prefix.arcs())
    }

    /// The arcs after `prefix`, or `None` if `self` is not inside that
    /// subtree. Useful for decoding table indices.
    pub fn suffix_of(&self, prefix: &Oid) -> Option<&[u32]> {
        self.arcs().strip_prefix(prefix.arcs())
    }

    /// True if the OID can be BER-encoded: at least two arcs, first arc in
    /// `0..=2`, second arc `< 40` when the first is 0 or 1, and the
    /// combined first subidentifier `40 * first + second` fits 32 bits.
    pub fn is_encodable(&self) -> bool {
        match self.arcs() {
            [0 | 1, second, ..] => *second < 40,
            [2, second, ..] => *second <= u32::MAX - 80,
            _ => false,
        }
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({self})")
    }
}

impl Default for Oid {
    fn default() -> Self {
        Oid::empty()
    }
}

impl PartialEq for Oid {
    fn eq(&self, other: &Self) -> bool {
        self.arcs() == other.arcs()
    }
}

impl Eq for Oid {}

impl PartialOrd for Oid {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Oid {
    fn cmp(&self, other: &Self) -> Ordering {
        self.arcs().cmp(other.arcs())
    }
}

impl Hash for Oid {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.arcs().hash(state);
    }
}

impl From<&[u32]> for Oid {
    fn from(arcs: &[u32]) -> Self {
        if arcs.len() <= INLINE_ARCS {
            let mut oid = Oid::zeroed(arcs.len());
            oid.inline_arcs_mut()[..arcs.len()].copy_from_slice(arcs);
            oid
        } else {
            Oid {
                repr: Repr::Heap(arcs.to_vec()),
            }
        }
    }
}

impl<const N: usize> From<[u32; N]> for Oid {
    fn from(arcs: [u32; N]) -> Self {
        Oid::from(&arcs[..])
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for arc in self.arcs() {
            if !first {
                f.write_str(".")?;
            }
            write!(f, "{arc}")?;
            first = false;
        }
        Ok(())
    }
}

/// Error parsing an OID from its dotted-decimal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOidError(pub String);

impl fmt::Display for ParseOidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid OID `{}`", self.0)
    }
}

impl std::error::Error for ParseOidError {}

impl FromStr for Oid {
    type Err = ParseOidError;

    /// Parses dotted-decimal notation, tolerating one leading dot
    /// (`.1.3.6.1` as printed by many SNMP tools).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let body = s.strip_prefix('.').unwrap_or(s);
        if body.is_empty() {
            return Err(ParseOidError(s.to_owned()));
        }
        let mut oid = Oid::empty();
        for part in body.split('.') {
            oid.push(part.parse().map_err(|_| ParseOidError(s.to_owned()))?);
        }
        Ok(oid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let s = "1.3.6.1.2.1.2.2.1.10.3";
        let oid: Oid = s.parse().unwrap();
        assert_eq!(oid.to_string(), s);
        assert_eq!(oid.len(), 11);
    }

    #[test]
    fn leading_dot_tolerated() {
        let oid: Oid = ".1.3.6".parse().unwrap();
        assert_eq!(oid, Oid::from([1, 3, 6]));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Oid>().is_err());
        assert!("1..3".parse::<Oid>().is_err());
        assert!("1.x.3".parse::<Oid>().is_err());
        assert!("-1.3".parse::<Oid>().is_err());
    }

    #[test]
    fn ordering_is_mib_order() {
        let a: Oid = "1.3.6.1.2.1.1.3.0".parse().unwrap();
        let b: Oid = "1.3.6.1.2.1.2.1.0".parse().unwrap();
        let c: Oid = "1.3.6.1.2.1.2.2.1.1.1".parse().unwrap();
        assert!(a < b && b < c);
        // A prefix sorts before any of its children.
        let p: Oid = "1.3.6".parse().unwrap();
        assert!(p < a);
    }

    #[test]
    fn subtree_tests() {
        let table: Oid = "1.3.6.1.2.1.2.2".parse().unwrap();
        let cell: Oid = "1.3.6.1.2.1.2.2.1.10.3".parse().unwrap();
        assert!(cell.starts_with(&table));
        assert!(!table.starts_with(&cell));
        assert_eq!(cell.suffix_of(&table), Some(&[1, 10, 3][..]));
        assert_eq!(table.suffix_of(&cell), None);
    }

    #[test]
    fn child_and_extend() {
        let base: Oid = "1.3".parse().unwrap();
        assert_eq!(base.child(6), "1.3.6".parse().unwrap());
        assert_eq!(base.extend(&[6, 1]), "1.3.6.1".parse().unwrap());
        let mut o = base.clone();
        o.push(9);
        assert_eq!(o, "1.3.9".parse().unwrap());
    }

    #[test]
    fn sizes_that_memory_per_mib_entry_depends_on() {
        use crate::pdu::VarBind;
        use crate::value::SnmpValue;
        assert_eq!(std::mem::size_of::<Oid>(), 56);
        assert_eq!(std::mem::size_of::<SnmpValue>(), 32);
        assert_eq!(std::mem::size_of::<VarBind>(), 88);
    }

    #[test]
    fn push_spills_to_the_heap_past_the_inline_capacity() {
        let mut oid = Oid::empty();
        let arcs: Vec<u32> = (0..2 * INLINE_ARCS as u32).collect();
        for (i, &arc) in arcs.iter().enumerate() {
            oid.push(arc);
            assert_eq!(oid.arcs(), &arcs[..=i]);
            assert_eq!(oid, Oid::new(arcs[..=i].to_vec()));
        }
    }

    #[test]
    fn encodability() {
        assert!(Oid::from([1, 3, 6]).is_encodable());
        assert!(Oid::from([0, 39]).is_encodable());
        assert!(Oid::from([2, 999]).is_encodable());
        assert!(!Oid::from([1, 40]).is_encodable());
        assert!(!Oid::from([3, 1]).is_encodable());
        assert!(!Oid::from([1]).is_encodable());
        assert!(!Oid::empty().is_encodable());
    }
}
