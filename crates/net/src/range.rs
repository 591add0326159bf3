//! Prefix ranges — the primitive of the paper's §3.2.
//!
//! A prefix range pairs a prefix with an interval of lengths. The paper's
//! examples: `(1.2.0.0/16, 16-32)` is every prefix inside `1.2.0.0/16`;
//! `(0.0.0.0/0, 0-32)` is the set of *all* prefixes; `(1.0.0.0/8, 24-24)` is
//! every `/24` whose first octet is 1.

use std::fmt;
use std::str::FromStr;

use crate::prefix::{mask, ParseNetError, Prefix};

/// A set of IPv4 prefixes described by a covering prefix plus a length
/// interval.
///
/// A prefix `p` is a **member** of range `R` when
/// 1. `p`'s address matches `R`'s prefix (on `R.prefix.len()` bits), and
/// 2. `p`'s length lies within `R`'s interval.
///
/// ```
/// use campion_net::{Prefix, PrefixRange};
/// let r: PrefixRange = "10.9.0.0/16:16-32".parse().unwrap();
/// assert!(r.member(&"10.9.1.0/24".parse::<Prefix>().unwrap()));
/// assert!(!r.member(&"10.9.0.0/8".parse::<Prefix>().unwrap()));
/// assert!(PrefixRange::universe().member_superset(&r));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixRange {
    /// The covering prefix.
    pub prefix: Prefix,
    /// Smallest member length, inclusive.
    pub min_len: u8,
    /// Largest member length, inclusive.
    pub max_len: u8,
}

impl PrefixRange {
    /// Construct a range. Lengths are clamped to `0..=32`.
    ///
    /// # Panics
    /// Panics if `min_len > max_len` — empty ranges are represented by
    /// `Option<PrefixRange>` at the API boundary instead.
    pub fn new(prefix: Prefix, min_len: u8, max_len: u8) -> Self {
        assert!(min_len <= max_len, "empty prefix range {min_len}-{max_len}");
        assert!(max_len <= 32, "prefix range length beyond /32");
        PrefixRange {
            prefix,
            min_len,
            max_len,
        }
    }

    /// The range containing exactly one prefix.
    pub fn exact(prefix: Prefix) -> Self {
        PrefixRange::new(prefix, prefix.len(), prefix.len())
    }

    /// The prefix itself and everything more specific
    /// (Juniper `orlonger`, Cisco `le 32` from the prefix's own length).
    pub fn or_longer(prefix: Prefix) -> Self {
        PrefixRange::new(prefix, prefix.len(), 32)
    }

    /// `U` in the paper: the set of all prefixes, `(0.0.0.0/0, 0-32)`.
    pub fn universe() -> Self {
        PrefixRange::new(Prefix::DEFAULT, 0, 32)
    }

    /// Is `p` a member of this range? (Definition from §3.2.)
    pub fn member(&self, p: &Prefix) -> bool {
        let addr_matches = p.bits() & mask(self.prefix.len()) == self.prefix.bits();
        addr_matches && self.min_len <= p.len() && p.len() <= self.max_len
    }

    /// Intersection of two ranges, or `None` when empty.
    ///
    /// The address constraints compose only when one covering prefix
    /// contains the other; the length interval intersects numerically.
    pub fn intersect(&self, other: &PrefixRange) -> Option<PrefixRange> {
        let (shorter, longer) = if self.prefix.len() <= other.prefix.len() {
            (self, other)
        } else {
            (other, self)
        };
        if longer.prefix.bits() & mask(shorter.prefix.len()) != shorter.prefix.bits() {
            return None;
        }
        let min_len = self.min_len.max(other.min_len);
        let max_len = self.max_len.min(other.max_len);
        if min_len > max_len {
            return None;
        }
        Some(PrefixRange::new(longer.prefix, min_len, max_len))
    }

    /// The canonical representative of this range's **member set**, or
    /// `None` when the set is empty.
    ///
    /// Structurally different ranges can denote the same set of prefixes:
    /// `(10.0.0.0/8, 0-8)` and `(10.0.0.0/16, 8-8)` both contain exactly
    /// `{10.0.0.0/8}`. Two normalizations make the representation unique:
    ///
    /// * A member of length `l < prefix.len()` is the *truncation* of the
    ///   covering prefix, and exists only when truncating to `l` bits
    ///   preserves them all — i.e. when `l ≥ significant_len(bits)`. The
    ///   nonempty member lengths therefore form the contiguous interval
    ///   `[max(min_len, significant_len), max_len]`, which becomes the
    ///   canonical interval (`None` when it is empty).
    /// * Bits of the covering prefix beyond `max_len` never constrain any
    ///   member (all members are at most `max_len` long), so the covering
    ///   prefix is truncated to `min(prefix.len(), max_len)`.
    ///
    /// After both steps, equal member sets have equal representatives: the
    /// canonical interval is exactly the set's length profile (one member
    /// per length up to the covering length, a full fan-out beyond it), so
    /// the set determines the interval, and its shortest member determines
    /// the covering prefix.
    pub fn canonical_members(&self) -> Option<PrefixRange> {
        let z = significant_len(self.prefix.bits());
        let min_len = self.min_len.max(z);
        if min_len > self.max_len {
            return None;
        }
        let plen = self.prefix.len().min(self.max_len);
        let prefix = Prefix::new(self.prefix.addr(), plen);
        Some(PrefixRange::new(prefix, min_len, self.max_len))
    }

    /// One member of this range that is a member of none of `others`, or
    /// `None` when `others` cover every member.
    ///
    /// On [`PrefixRange::canonical_members`] forms, the members of one
    /// length `l` are one interval of `l`-bit values: the truncation of
    /// the covering prefix below its length, every extension of it from
    /// there on. So is each of `others`' at `l`. Lengths are tried from
    /// the shortest, and at each the sorted intervals of `others` are
    /// swept for the first value they leave uncovered.
    pub fn member_outside(&self, others: impl IntoIterator<Item = PrefixRange>) -> Option<Prefix> {
        let own = self.canonical_members()?;
        let others: Vec<PrefixRange> = others
            .into_iter()
            .filter_map(|o| o.canonical_members())
            .collect();
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for len in own.min_len..=own.max_len {
            spans.clear();
            spans.extend(
                others
                    .iter()
                    .filter(|o| (o.min_len..=o.max_len).contains(&len))
                    .map(|o| o.members_at(len)),
            );
            spans.sort_unstable();
            let (mut next, last) = own.members_at(len);
            for &(lo, hi) in &spans {
                if lo > next || next > last {
                    break;
                }
                next = next.max(hi + 1);
            }
            if next <= last {
                let bits = (next << (32 - u32::from(len))) as u32;
                return Some(Prefix::new(bits.into(), len));
            }
        }
        None
    }

    /// The members of length `len` of a canonical range whose interval
    /// holds `len`, as an inclusive interval of `len`-bit values.
    fn members_at(&self, len: u8) -> (u64, u64) {
        let first = u64::from(self.prefix.bits()) >> (32 - u32::from(len));
        let free = len.saturating_sub(self.prefix.len());
        (first, first + (1 << free) - 1)
    }

    /// Member-set containment: is every member of `other` a member of
    /// `self`? (`other ⊆ self`, the paper's `R₁ ⊂ R₂` relation plus
    /// equality.) Structurally different ranges can denote the same set, so
    /// this compares canonical representatives and decides the relation
    /// exactly.
    pub fn member_superset(&self, other: &PrefixRange) -> bool {
        let Some(a) = other.canonical_members() else {
            return true; // ∅ ⊆ anything
        };
        let Some(b) = self.canonical_members() else {
            return false; // a is nonempty
        };
        // b's interval must cover a's, and every member of a must match
        // b's covering bits. Members of a at length ≥ a.prefix.len() all
        // share a's covering bits on the first a.prefix.len() bits but are
        // otherwise free, so when b's covering prefix is *longer* than
        // a's, containment additionally requires a to have no members
        // beyond its covering length — canonically, `a.max_len ==
        // a.prefix.len()` (a is a chain of truncations, pinned bitwise).
        b.min_len <= a.min_len
            && a.max_len <= b.max_len
            && a.prefix.bits() & mask(b.prefix.len()) == b.prefix.bits()
            && (b.prefix.len() <= a.prefix.len() || a.max_len == a.prefix.len())
    }
}

/// The shortest truncation of `bits` that preserves them all: `32 −
/// trailing_zeros`, or 0 for the all-zero address.
fn significant_len(bits: u32) -> u8 {
    if bits == 0 {
        0
    } else {
        (32 - bits.trailing_zeros()) as u8
    }
}

impl fmt::Display for PrefixRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} : {}-{}", self.prefix, self.min_len, self.max_len)
    }
}

impl FromStr for PrefixRange {
    type Err = ParseNetError;

    /// Parses `"10.9.0.0/16:16-32"` (whitespace around `:` and `-` allowed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (p, lens) = s
            .split_once(':')
            .ok_or_else(|| ParseNetError::new(format!("missing ':' in prefix range {s:?}")))?;
        let prefix: Prefix = p.trim().parse()?;
        let (lo, hi) = lens
            .split_once('-')
            .ok_or_else(|| ParseNetError::new(format!("missing '-' in prefix range {s:?}")))?;
        let min_len: u8 = lo
            .trim()
            .parse()
            .map_err(|_| ParseNetError::new(format!("bad min length in {s:?}")))?;
        let max_len: u8 = hi
            .trim()
            .parse()
            .map_err(|_| ParseNetError::new(format!("bad max length in {s:?}")))?;
        if min_len > max_len || max_len > 32 {
            return Err(ParseNetError::new(format!("bad length interval in {s:?}")));
        }
        Ok(PrefixRange::new(prefix, min_len, max_len))
    }
}
