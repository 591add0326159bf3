//! Bit-vector constants: equality, prefix, wildcard and interval
//! constraints over big-endian variable runs, the addresses under a prefix
//! outside a set of sub-prefixes ([`prefix_minus`]), and the canonical
//! first-match set of an ordered prefix-range list ([`first_match`]).
//!
//! Every encoder builds its result bottom-up with the manager's `mk`: one
//! unique-table lookup per node and no computed-table traffic. `mk`
//! requires a new node's variable to sit above its children's, so each
//! encoder asserts that its variable runs ascend.

use std::collections::HashMap;

use crate::{Bdd, Manager};

fn assert_ascending(vars: &[u32]) {
    assert!(
        vars.windows(2).all(|w| w[0] < w[1]),
        "variable run must ascend: {vars:?}"
    );
}

/// The conjunction of literals `(var, value)`, listed top variable first,
/// above `acc`.
fn cube(m: &mut Manager, lits: impl DoubleEndedIterator<Item = (u32, bool)>, mut acc: Bdd) -> Bdd {
    for (v, bit) in lits.rev() {
        acc = if bit {
            m.mk(v, Bdd::FALSE, acc)
        } else {
            m.mk(v, acc, Bdd::FALSE)
        };
    }
    acc
}

/// Constrain variables `vars[0..]` (big-endian) to equal the low `vars.len()`
/// bits of `value`.
pub fn eq_const(m: &mut Manager, vars: &[u32], value: u64) -> Bdd {
    assert_ascending(vars);
    let n = vars.len();
    cube(
        m,
        vars.iter()
            .enumerate()
            .map(|(i, &v)| (v, (value >> (n - 1 - i)) & 1 == 1)),
        Bdd::TRUE,
    )
}

/// Constrain the first `prefix_len` of the 32 `vars` to equal the top bits
/// of `bits` (a prefix-address constraint).
pub fn prefix_const(m: &mut Manager, vars: &[u32], bits: u32, prefix_len: u8) -> Bdd {
    prefix_minus(m, vars, bits, prefix_len, &[])
}

/// The addresses over the 32 `vars` whose first `prefix_len` bits equal
/// those of `bits` and that lie under none of the prefixes `holes`, each a
/// `(bits, len)` pair no shorter than the base prefix and under it. Holes
/// may nest, repeat and come in any order.
///
/// Sorted by `(bits, len)`, the holes under one address-trie node are
/// contiguous and a hole ending at that node comes first, so one recursion
/// over the sorted list builds the set bottom-up: a node holding no hole
/// keeps every address below it, a node a hole ends at keeps none, and
/// any other node splits the list on its bit.
pub fn prefix_minus(
    m: &mut Manager,
    vars: &[u32],
    bits: u32,
    prefix_len: u8,
    holes: &[(u32, u8)],
) -> Bdd {
    debug_assert_eq!(vars.len(), 32);
    assert_ascending(vars);
    assert!(
        holes
            .iter()
            .all(|&(b, len)| (prefix_len..=32).contains(&len)
                && (b ^ bits) & high_bits(prefix_len) == 0),
        "every hole must lie under the base prefix"
    );
    let mut sorted: Vec<(u32, u8)> = holes
        .iter()
        .map(|&(b, len)| (b & high_bits(len), len))
        .collect();
    sorted.sort_unstable();
    let top = usize::from(prefix_len);
    let below = outside_holes(m, vars, top, &sorted);
    cube(
        m,
        vars[..top]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (bits >> (31 - i)) & 1 == 1)),
        below,
    )
}

/// The mask of an address's first `len` bits.
fn high_bits(len: u8) -> u32 {
    u32::MAX.checked_shl(32 - u32::from(len)).unwrap_or(0)
}

/// The addresses below an address-trie node at `depth` outside `holes`:
/// the sorted holes that share the node's path, none ending above it.
fn outside_holes(m: &mut Manager, vars: &[u32], depth: usize, holes: &[(u32, u8)]) -> Bdd {
    match holes.first() {
        None => Bdd::TRUE,
        Some(&(_, len)) if usize::from(len) == depth => Bdd::FALSE,
        Some(_) => {
            let split = holes.partition_point(|&(b, _)| (b >> (31 - depth)) & 1 == 0);
            let low = outside_holes(m, vars, depth + 1, &holes[..split]);
            let high = outside_holes(m, vars, depth + 1, &holes[split..]);
            m.mk(vars[depth], low, high)
        }
    }
}

/// Constrain 32 address variables by a wildcard mask: every *care* bit must
/// equal the base address bit.
pub fn wildcard_const(m: &mut Manager, vars: &[u32], addr: u32, wildcard: u32) -> Bdd {
    debug_assert_eq!(vars.len(), 32);
    assert_ascending(vars);
    cube(
        m,
        vars.iter()
            .enumerate()
            .filter(|&(i, _)| (wildcard >> (31 - i)) & 1 == 0)
            .map(|(i, &v)| (v, (addr >> (31 - i)) & 1 == 1)),
        Bdd::TRUE,
    )
}

/// `value ≤ hi` over big-endian variables.
pub fn le_const(m: &mut Manager, vars: &[u32], hi: u64) -> Bdd {
    range_const(m, vars, 0, hi)
}

/// `lo ≤ value ≤ hi` over big-endian variables, both bounds taken to the
/// run's width.
pub fn range_const(m: &mut Manager, vars: &[u32], lo: u64, hi: u64) -> Bdd {
    assert_ascending(vars);
    let n = vars.len();
    let width = u64::MAX.checked_shr(64 - n as u32).unwrap_or(0);
    let (lo, hi) = (lo & width, hi & width);
    if lo > hi {
        return Bdd::FALSE;
    }
    let bit = |x: u64, i: usize| (x >> (n - 1 - i)) & 1 == 1;
    // Above the first bit where the bounds differ the value copies them.
    // At that bit `lo` has a 0 and `hi` a 1: a 0 there leaves only the
    // `≥ lo` suffix to meet below it, a 1 only the `≤ hi` suffix.
    let split = (0..n).find(|&i| bit(lo, i) != bit(hi, i)).unwrap_or(n);
    let mut acc = Bdd::TRUE;
    if split < n {
        let (mut ge, mut le) = (Bdd::TRUE, Bdd::TRUE);
        for i in (split + 1..n).rev() {
            let v = vars[i];
            ge = if bit(lo, i) {
                m.mk(v, Bdd::FALSE, ge)
            } else {
                m.mk(v, ge, Bdd::TRUE)
            };
            le = if bit(hi, i) {
                m.mk(v, Bdd::TRUE, le)
            } else {
                m.mk(v, le, Bdd::FALSE)
            };
        }
        acc = m.mk(vars[split], ge, le);
    }
    for i in (0..split).rev() {
        acc = if bit(lo, i) {
            m.mk(vars[i], Bdd::FALSE, acc)
        } else {
            m.mk(vars[i], acc, Bdd::FALSE)
        };
    }
    acc
}

/// One entry of an ordered prefix-range list: it holds the members whose
/// first `len` address bits equal those of `bits` and whose length lies in
/// `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeEntry {
    /// Whether the members this entry is the first to hold are permitted.
    pub permit: bool,
    /// The prefix address; bits past `len` are ignored.
    pub bits: u32,
    /// The prefix length, at most 32.
    pub len: u8,
    /// Smallest member length.
    pub lo: u8,
    /// Largest member length.
    pub hi: u8,
}

/// Lengths `0..=d`, one bit each.
fn lengths_upto(d: usize) -> u64 {
    (2 << d) - 1
}

/// The canonical first-match set of an ordered permit/deny prefix-range
/// list, over 32 address variables and the 6 length variables below them:
/// the members `(a, l)` with `l ≤ 32` and `a`'s bits at positions `≥ l` all
/// zero that the first entry holding them permits.
///
/// One pass over the entries' address trie. Each trie node carries the
/// entries still compatible with its path, in list order, and the lengths
/// its set bits leave canonical. Once no compatible entry is pending (all
/// are no longer than the depth), the rest of the set depends only on the
/// depth and the permitted lengths, a 33-bit mask memoized per call; a
/// length set becomes a chain of at most 6 levels.
pub fn first_match(
    m: &mut Manager,
    addr_vars: &[u32],
    len_vars: &[u32],
    entries: &[RangeEntry],
) -> Bdd {
    assert_eq!(addr_vars.len(), 32, "32 address variables");
    assert_eq!(len_vars.len(), 6, "6 length variables");
    assert_ascending(addr_vars);
    assert_ascending(len_vars);
    assert!(
        addr_vars[31] < len_vars[0],
        "the address run must sit above the length run"
    );
    assert!(entries.iter().all(|e| e.len <= 32), "prefix beyond /32");
    let lens: Vec<u64> = entries
        .iter()
        .map(|e| {
            let hi = e.hi.min(32);
            if e.lo > hi {
                0
            } else {
                (2 << hi) - (1 << e.lo)
            }
        })
        .collect();
    let mut stack: Vec<usize> = (0..entries.len()).filter(|&e| lens[e] != 0).collect();
    let mut b = FirstMatch {
        m,
        addr: addr_vars,
        len: len_vars,
        entries,
        lens,
        memo: HashMap::new(),
    };
    b.node(&mut stack, 0, 0, lengths_upto(32))
}

/// The state of one [`first_match`] call.
struct FirstMatch<'a> {
    m: &'a mut Manager,
    addr: &'a [u32],
    len: &'a [u32],
    entries: &'a [RangeEntry],
    /// Each entry's lengths, one bit each.
    lens: Vec<u64>,
    /// `(depth, permitted lengths)` → the set below that depth.
    memo: HashMap<(usize, u64), Bdd>,
}

impl FirstMatch<'_> {
    /// The set below a trie node at `depth` whose compatible entries are
    /// `stack[from..]` and whose path leaves lengths `open` canonical.
    fn node(&mut self, stack: &mut Vec<usize>, from: usize, depth: usize, open: u64) -> Bdd {
        let to = stack.len();
        if stack[from..]
            .iter()
            .all(|&e| usize::from(self.entries[e].len) <= depth)
        {
            let permitted = self.resolve(&stack[from..], open);
            return self.tail(depth, permitted);
        }
        let mut kids = [Bdd::FALSE; 2];
        for (b, kid) in kids.iter_mut().enumerate() {
            // A 1 at this position makes every length up to it non-canonical.
            let open = if b == 1 {
                open & !lengths_upto(depth)
            } else {
                open
            };
            for i in from..to {
                let e = stack[i];
                let entry = self.entries[e];
                let on_path =
                    usize::from(entry.len) <= depth || (entry.bits >> (31 - depth)) & 1 == b as u32;
                if on_path && self.lens[e] & open != 0 {
                    stack.push(e);
                }
            }
            *kid = self.node(stack, to, depth + 1, open);
            stack.truncate(to);
        }
        self.m.mk(self.addr[depth], kids[0], kids[1])
    }

    /// The lengths in `open` that the first of `entries` to hold them
    /// permits; every entry's address already matches.
    fn resolve(&self, entries: &[usize], mut open: u64) -> u64 {
        let mut permitted = 0;
        for &e in entries {
            let held = self.lens[e] & open;
            if self.entries[e].permit {
                permitted |= held;
            }
            open &= !held;
        }
        permitted
    }

    /// The canonical members below `depth` with a length in `lengths`:
    /// a 1 at position `d` leaves only the lengths above `d`.
    fn tail(&mut self, depth: usize, lengths: u64) -> Bdd {
        if lengths == 0 {
            return Bdd::FALSE;
        }
        if let Some(&b) = self.memo.get(&(depth, lengths)) {
            return b;
        }
        let b = if depth == 32 {
            length_set(self.m, self.len, lengths)
        } else {
            let low = self.tail(depth + 1, lengths);
            let high = self.tail(depth + 1, lengths & !lengths_upto(depth));
            self.m.mk(self.addr[depth], low, high)
        };
        self.memo.insert((depth, lengths), b);
        b
    }
}

/// `value ∈ set` over big-endian `vars`, with `set` one bit per value.
fn length_set(m: &mut Manager, vars: &[u32], set: u64) -> Bdd {
    let values = 1u32 << vars.len();
    if set == 0 {
        return Bdd::FALSE;
    }
    if set == u64::MAX >> (64 - values) {
        return Bdd::TRUE;
    }
    let half = values / 2;
    let low = length_set(m, &vars[1..], set & (u64::MAX >> (64 - half)));
    let high = length_set(m, &vars[1..], set >> half);
    m.mk(vars[0], low, high)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;
    use proptest::prelude::*;

    fn assign(n: u32, value: u64, width: usize) -> Assignment {
        let mut a = Assignment::all_false(n);
        for i in 0..width {
            a.set(i as u32, (value >> (width - 1 - i)) & 1 == 1);
        }
        a
    }

    #[test]
    fn eq_const_matches_exactly() {
        let mut m = Manager::new(4);
        let vars: Vec<u32> = (0..4).collect();
        let f = eq_const(&mut m, &vars, 0b1010);
        for v in 0..16u64 {
            assert_eq!(m.eval(f, &assign(4, v, 4)), v == 0b1010);
        }
    }

    #[test]
    fn interval_bounds_are_inclusive() {
        let mut m = Manager::new(6);
        let vars: Vec<u32> = (0..6).collect();
        let f = range_const(&mut m, &vars, 16, 32);
        for v in 0..64u64 {
            assert_eq!(m.eval(f, &assign(6, v, 6)), (16..=32).contains(&v), "v={v}");
        }
        let le = le_const(&mut m, &vars, 0);
        assert_eq!(m.sat_count(le), 1);
        let all = range_const(&mut m, &vars, 0, u64::MAX);
        assert!(m.is_true(all));
        assert_eq!(range_const(&mut m, &vars, 33, 32), Bdd::FALSE);
        // Bounds are taken to the run's width: 64 reads as 0.
        let wrapped = range_const(&mut m, &vars, 0, 64);
        assert_eq!(wrapped, le);
    }

    #[test]
    fn wildcard_const_semantics() {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        // 10.0.0.0 with wildcard 0.0.2.255: bit 22 (the "2") and the last
        // octet are free.
        let addr = u32::from(std::net::Ipv4Addr::new(10, 0, 0, 0));
        let wc = u32::from(std::net::Ipv4Addr::new(0, 0, 2, 255));
        let f = wildcard_const(&mut m, &vars, addr, wc);
        assert_eq!(m.sat_count(f), 1 << 9);
        let hit = u64::from(u32::from(std::net::Ipv4Addr::new(10, 0, 2, 77)));
        let miss = u64::from(u32::from(std::net::Ipv4Addr::new(10, 0, 1, 77)));
        assert!(m.eval(f, &assign(32, hit, 32)));
        assert!(!m.eval(f, &assign(32, miss, 32)));
    }

    #[test]
    #[should_panic(expected = "variable run must ascend")]
    fn descending_run_is_rejected() {
        let mut m = Manager::new(4);
        eq_const(&mut m, &[2, 1], 0b10);
    }

    /// Variables of the small manager the ascending runs are drawn from.
    const NV: u32 = 12;

    /// An ascending run of exactly `width` variables out of `0..NV`; bit
    /// `v` of `pick` asks for variable `v` while enough slots remain.
    fn run(width: usize, pick: u16) -> Vec<u32> {
        let mut vars = Vec::new();
        for v in 0..NV {
            let need = width - vars.len();
            if need > 0 && (need == (NV - v) as usize || pick >> v & 1 == 1) {
                vars.push(v);
            }
        }
        vars
    }

    /// The run's value under `bits` (bit `v` = variable `v`), big-endian.
    fn decode(vars: &[u32], bits: u32) -> u64 {
        vars.iter()
            .fold(0, |acc, &v| acc << 1 | u64::from(bits >> v & 1))
    }

    /// Reference conjunction of literals, built with `and`.
    fn and_cube(m: &mut Manager, lits: &[(u32, bool)]) -> Bdd {
        lits.iter().fold(Bdd::TRUE, |acc, &(v, bit)| {
            let lit = m.literal(v, bit);
            m.and(acc, lit)
        })
    }

    /// Reference `value ≤ hi` (or `≥ lo` when `ge`), built with `and`/`or`
    /// from the least-significant bit up.
    fn cmp_ref(m: &mut Manager, vars: &[u32], bound: u64, ge: bool) -> Bdd {
        let n = vars.len();
        let mut acc = Bdd::TRUE;
        for (i, &v) in vars.iter().enumerate().rev() {
            let bit = (bound >> (n - 1 - i)) & 1 == 1;
            // ≤: a 1-bit is met by a 0 here; ≥: a 0-bit is met by a 1 here.
            let lit = m.literal(v, ge);
            acc = if bit == ge {
                m.and(lit, acc)
            } else {
                m.or(lit, acc)
            };
        }
        acc
    }

    proptest! {
        /// Each `mk`-built encoder is the same handle as its literal
        /// reference and holds exactly on the values it names.
        #[test]
        fn encoders_match_literal_references(
            width in 1usize..=10,
            pick in any::<u16>(),
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let mut m = Manager::new(NV);
            let vars = run(width, pick);
            let full = (1u64 << width) - 1;
            let (x, y) = (a & full, b & full);
            let eq = eq_const(&mut m, &vars, x);
            let lits: Vec<(u32, bool)> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, x >> (width - 1 - i) & 1 == 1))
                .collect();
            let want = and_cube(&mut m, &lits);
            prop_assert_eq!(eq, want);
            let le = le_const(&mut m, &vars, y);
            let le_ref = cmp_ref(&mut m, &vars, y, false);
            prop_assert_eq!(le, le_ref);
            let ge = range_const(&mut m, &vars, x, u64::MAX);
            let ge_ref = cmp_ref(&mut m, &vars, x, true);
            prop_assert_eq!(ge, ge_ref);
            let range = range_const(&mut m, &vars, x, y);
            let want = m.and(ge_ref, le_ref);
            prop_assert_eq!(range, want);
            for bits in 0..1u32 << NV {
                let asg = Assignment::new((0..NV).map(|v| bits >> v & 1 == 1).collect());
                let val = decode(&vars, bits);
                prop_assert_eq!(m.eval(eq, &asg), val == x);
                prop_assert_eq!(m.eval(le, &asg), val <= y);
                prop_assert_eq!(m.eval(ge, &asg), val >= x);
                prop_assert_eq!(m.eval(range, &asg), x <= val && val <= y);
            }

            // The 32-bit address encoders, constrained within the top
            // `width` bits; the free bits below take `b`'s pattern.
            let mut m = Manager::new(32);
            let addr_vars: Vec<u32> = (0..32).collect();
            let addr = a as u32;
            let care = (!0u32 << (32 - width)) & (b >> 32) as u32;
            let prefix = prefix_const(&mut m, &addr_vars, addr, width as u8);
            let wild = wildcard_const(&mut m, &addr_vars, addr, !care);
            let lits: Vec<(u32, bool)> = (0..width as u32)
                .map(|i| (i, addr >> (31 - i) & 1 == 1))
                .collect();
            let want = and_cube(&mut m, &lits);
            prop_assert_eq!(prefix, want);
            let care_lits: Vec<(u32, bool)> = lits
                .iter()
                .copied()
                .filter(|&(i, _)| care >> (31 - i) & 1 == 1)
                .collect();
            let want = and_cube(&mut m, &care_lits);
            prop_assert_eq!(wild, want);
            let low = b as u32 & u32::MAX >> width;
            for top in 0..1u32 << width {
                let bits = top << (32 - width) | low;
                let asg = Assignment::new((0..32).map(|i| bits >> (31 - i) & 1 == 1).collect());
                prop_assert_eq!(m.eval(prefix, &asg), (bits ^ addr) >> (32 - width) == 0);
                prop_assert_eq!(m.eval(wild, &asg), (bits ^ addr) & care == 0);
            }
        }
    }

    /// A hole's length: /32 on purpose, else any length from the base's
    /// to /32.
    fn hole_len(base_len: u8, draw: u8) -> u8 {
        if draw == 32 {
            32
        } else {
            base_len + draw % (33 - base_len)
        }
    }

    proptest! {
        /// The hole encoder is the same handle as the base prefix with each
        /// hole's prefix `diff`ed away, and touches no computed table. The
        /// base is /0 or /32 on purpose, holes are /32 on purpose, nest
        /// often (half keep only a few bits below the base) and may repeat,
        /// and the list may be empty.
        #[test]
        fn prefix_minus_matches_the_diff_fold(
            base in any::<u32>(),
            base_len in prop_oneof![Just(0u8), Just(32u8), 0u8..=32],
            holes in proptest::collection::vec(
                (
                    prop_oneof![any::<u32>(), any::<u32>().prop_map(|b| b & 0xF0F0_0000)],
                    prop_oneof![Just(32u8), 0u8..=32],
                ),
                0..8,
            ),
        ) {
            let mut m = Manager::new(32);
            let vars: Vec<u32> = (0..32).collect();
            let keep = high_bits(base_len);
            let holes: Vec<(u32, u8)> = holes
                .iter()
                .map(|&(b, draw)| {
                    // The draw's high bits go right below the base.
                    let bits = (base & keep) | ((b >> base_len.min(31)) & !keep);
                    (bits, hole_len(base_len, draw))
                })
                .collect();
            let lookups = m.stats().apply_lookups;
            let got = prefix_minus(&mut m, &vars, base, base_len, &holes);
            prop_assert_eq!(m.stats().apply_lookups, lookups, "the encoder used apply");
            let mut want = prefix_const(&mut m, &vars, base, base_len);
            for &(b, len) in &holes {
                let hole = prefix_const(&mut m, &vars, b, len);
                want = m.diff(want, hole);
            }
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn prefix_minus_corners() {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        let everything = prefix_minus(&mut m, &vars, 0, 0, &[]);
        assert!(m.is_true(everything));
        assert_eq!(prefix_minus(&mut m, &vars, 0, 0, &[(0, 0)]), Bdd::FALSE);
        let host = 0x0A01_0203;
        let one = prefix_minus(&mut m, &vars, host, 32, &[]);
        assert_eq!(one, prefix_const(&mut m, &vars, host, 32));
        assert_eq!(m.sat_count(one), 1);
        assert_eq!(
            prefix_minus(&mut m, &vars, host, 32, &[(host, 32)]),
            Bdd::FALSE
        );
        let all_but_one = prefix_minus(&mut m, &vars, 0, 0, &[(host, 32), (host, 32)]);
        assert_eq!(m.sat_count(all_but_one), (1 << 32) - 1);
    }

    #[test]
    #[should_panic(expected = "every hole must lie under the base prefix")]
    fn prefix_minus_rejects_a_hole_outside_the_base() {
        let mut m = Manager::new(32);
        let vars: Vec<u32> = (0..32).collect();
        prefix_minus(&mut m, &vars, 0x0A00_0000, 8, &[(0x0B00_0000, 16)]);
    }

    /// The route layout the builder is written for: the address run
    /// `0..32`, then the length run `32..38`.
    fn route_runs() -> (Vec<u32>, Vec<u32>) {
        ((0..32).collect(), (32..38).collect())
    }

    /// Reference first-match set, built from literals with `and`/`or`/
    /// `diff`: per entry `prefix ∧ length ∧ canonical`, folded from the
    /// last entry back, `or` for a permit and `diff` for a deny.
    fn first_match_ref(m: &mut Manager, entries: &[RangeEntry]) -> Bdd {
        let (addr, len) = route_runs();
        let mut canon = cmp_ref(m, &len, 32, false);
        for (i, &v) in addr.iter().enumerate() {
            let unset = m.literal(v, false);
            let longer = cmp_ref(m, &len, i as u64 + 1, true);
            let implied = m.or(unset, longer);
            canon = m.and(canon, implied);
        }
        let mut acc = Bdd::FALSE;
        for e in entries.iter().rev() {
            let lits: Vec<(u32, bool)> = addr[..usize::from(e.len)]
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, e.bits >> (31 - i) & 1 == 1))
                .collect();
            let prefix = and_cube(m, &lits);
            let lo = cmp_ref(m, &len, e.lo.into(), true);
            let hi = cmp_ref(m, &len, e.hi.into(), false);
            let lens = m.and(lo, hi);
            let held = m.and(prefix, lens);
            let held = m.and(held, canon);
            acc = if e.permit {
                m.or(held, acc)
            } else {
                m.diff(acc, held)
            };
        }
        acc
    }

    /// Concrete first match: is `(a, l)` canonical, and does the first
    /// entry holding it permit it?
    fn decide(entries: &[RangeEntry], a: u32, l: u8) -> bool {
        let canonical = l <= 32 && (l == 32 || a & (u32::MAX >> l) == 0);
        canonical
            && entries
                .iter()
                .find(|e| {
                    let covered = u32::MAX.checked_shl(32 - u32::from(e.len)).unwrap_or(0);
                    (a ^ e.bits) & covered == 0 && e.lo <= l && l <= e.hi
                })
                .is_some_and(|e| e.permit)
    }

    /// The assignment of the route layout holding address `a`, length `l`.
    fn point(a: u32, l: u8) -> Assignment {
        Assignment::new(
            (0..32)
                .map(|i| a >> (31 - i) & 1 == 1)
                .chain((0..6).map(|j| l >> (5 - j) & 1 == 1))
                .collect(),
        )
    }

    /// Entries that nest often (half keep only a few high bits), with /0,
    /// /32 and `hi = 32` drawn on purpose and `lo` free to sit below the
    /// prefix length (truncation members).
    fn entry() -> impl Strategy<Value = RangeEntry> {
        (
            any::<bool>(),
            prop_oneof![any::<u32>(), any::<u32>().prop_map(|b| b & 0xF0F0_0000)],
            prop_oneof![Just(0u8), Just(32u8), 0u8..=32],
            0u8..=32,
            prop_oneof![Just(32u8), 0u8..=32],
        )
            .prop_map(|(permit, bits, len, a, b)| RangeEntry {
                permit,
                bits,
                len,
                lo: a.min(b),
                hi: a.max(b),
            })
    }

    #[test]
    fn first_match_of_the_universe_is_every_canonical_prefix() {
        let mut m = Manager::new(38);
        let (addr, len) = route_runs();
        let universe = RangeEntry {
            permit: true,
            bits: 0,
            len: 0,
            lo: 0,
            hi: 32,
        };
        let f = first_match(&mut m, &addr, &len, &[universe]);
        assert_eq!(m.sat_count(f), (1 << 33) - 1);
        assert_eq!(f, first_match_ref(&mut m, &[universe]));
        let nodes = m.node_count();
        let lookups = m.stats().apply_lookups;
        assert_eq!(first_match(&mut m, &addr, &len, &[universe]), f);
        assert_eq!(m.node_count(), nodes, "a rebuild made new nodes");
        assert_eq!(m.stats().apply_lookups, lookups, "the builder used apply");
        assert_eq!(first_match(&mut m, &addr, &len, &[]), Bdd::FALSE);
    }

    #[test]
    #[should_panic(expected = "the address run must sit above the length run")]
    fn first_match_rejects_a_length_run_above_the_address_run() {
        let mut m = Manager::new(38);
        let addr: Vec<u32> = (6..38).collect();
        let len: Vec<u32> = (0..6).collect();
        first_match(&mut m, &addr, &len, &[]);
    }

    proptest! {
        /// The trie builder is the same handle as the literal first-match
        /// fold, and holds exactly the canonical members the first holding
        /// entry permits: at each entry's bounds and truncations, with
        /// host bits set, beyond /32, and at random points.
        #[test]
        fn first_match_matches_the_literal_fold(
            mut entries in proptest::collection::vec(entry(), 0..8),
            dup in any::<u8>(),
            noise in proptest::collection::vec((any::<u32>(), 0u8..64), 8..9),
        ) {
            if !entries.is_empty() && dup % 2 == 0 {
                let copy = entries[usize::from(dup) % entries.len()];
                entries.push(copy);
            }
            let mut m = Manager::new(38);
            let (addr, len) = route_runs();
            let got = first_match(&mut m, &addr, &len, &entries);
            let want = first_match_ref(&mut m, &entries);
            prop_assert_eq!(got, want);
            let mut points = noise;
            for e in &entries {
                for l in [e.lo, e.hi, e.len, e.len.saturating_sub(1), e.lo.midpoint(e.hi)] {
                    let keep = u32::MAX.checked_shl(32 - u32::from(l.min(e.len))).unwrap_or(0);
                    points.push((e.bits & keep, l));
                    points.push((e.bits, l));
                    points.push((e.bits & keep, (l + 33).min(63)));
                }
            }
            for (a, l) in points {
                prop_assert_eq!(m.eval(got, &point(a, l)), decide(&entries, a, l), "a={:#x} l={}", a, l);
            }
        }
    }
}
