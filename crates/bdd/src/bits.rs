//! Bit-vector constants: equality, prefix, wildcard and interval
//! constraints over big-endian variable runs.
//!
//! Every encoder builds its chain bottom-up with the manager's `mk`: one
//! unique-table lookup per constrained bit and no computed-table traffic.
//! `mk` requires a new node's variable to sit above its children's, so each
//! encoder asserts that its variable run ascends.

use crate::{Bdd, Manager};

fn assert_ascending(vars: &[u32]) {
    assert!(
        vars.windows(2).all(|w| w[0] < w[1]),
        "variable run must ascend: {vars:?}"
    );
}

/// The conjunction of literals `(var, value)`, listed top variable first.
fn cube(m: &mut Manager, lits: impl DoubleEndedIterator<Item = (u32, bool)>) -> Bdd {
    let mut acc = Bdd::TRUE;
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
    )
}

/// Constrain the first `prefix_len` of the 32 `vars` to equal the top bits
/// of `bits` (a prefix-address constraint).
pub fn prefix_const(m: &mut Manager, vars: &[u32], bits: u32, prefix_len: u8) -> Bdd {
    debug_assert_eq!(vars.len(), 32);
    assert_ascending(vars);
    cube(
        m,
        vars[..usize::from(prefix_len)]
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (bits >> (31 - i)) & 1 == 1)),
    )
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
    )
}

/// `value ≤ hi` over big-endian variables.
pub fn le_const(m: &mut Manager, vars: &[u32], hi: u64) -> Bdd {
    assert_ascending(vars);
    // Build from the least-significant bit backwards:
    // le(empty) = true; prepending bit b of the bound:
    //   bound-bit 1: var=0 → anything below is fine; var=1 → rest must be ≤.
    //   bound-bit 0: var must be 0 and the rest ≤.
    let n = vars.len();
    let mut acc = Bdd::TRUE;
    for (i, &v) in vars.iter().enumerate().rev() {
        acc = if (hi >> (n - 1 - i)) & 1 == 1 {
            m.mk(v, Bdd::TRUE, acc)
        } else {
            m.mk(v, acc, Bdd::FALSE)
        };
    }
    acc
}

/// `value ≥ lo` over big-endian variables.
pub fn ge_const(m: &mut Manager, vars: &[u32], lo: u64) -> Bdd {
    assert_ascending(vars);
    let n = vars.len();
    let mut acc = Bdd::TRUE;
    for (i, &v) in vars.iter().enumerate().rev() {
        acc = if (lo >> (n - 1 - i)) & 1 == 1 {
            m.mk(v, Bdd::FALSE, acc)
        } else {
            m.mk(v, acc, Bdd::TRUE)
        };
    }
    acc
}

/// `lo ≤ value ≤ hi` over big-endian variables.
pub fn range_const(m: &mut Manager, vars: &[u32], lo: u64, hi: u64) -> Bdd {
    let a = ge_const(m, vars, lo);
    let b = le_const(m, vars, hi);
    m.and(a, b)
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
        let ge = ge_const(&mut m, &vars, 0);
        assert!(m.is_true(ge));
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
            let want = cmp_ref(&mut m, &vars, y, false);
            prop_assert_eq!(le, want);
            let ge = ge_const(&mut m, &vars, x);
            let want = cmp_ref(&mut m, &vars, x, true);
            prop_assert_eq!(ge, want);
            let range = range_const(&mut m, &vars, x, y);
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
}
