//! Bit-vector helpers: equality and interval constraints over big-endian
//! variable runs.

use campion_bdd::{Bdd, Manager};

/// Constrain variables `vars[0..]` (big-endian) to equal the low `vars.len()`
/// bits of `value`.
pub fn eq_const(m: &mut Manager, vars: &[u32], value: u64) -> Bdd {
    let n = vars.len();
    let mut acc = Bdd::TRUE;
    for (i, &v) in vars.iter().enumerate() {
        let bit = (value >> (n - 1 - i)) & 1 == 1;
        let lit = m.literal(v, bit);
        acc = m.and(acc, lit);
    }
    acc
}

/// Constrain the first `prefix_len` of the 32 `vars` to equal the top bits
/// of `bits` (a prefix-address constraint).
pub fn prefix_const(m: &mut Manager, vars: &[u32], bits: u32, prefix_len: u8) -> Bdd {
    debug_assert_eq!(vars.len(), 32);
    // Built bottom-up, one node per constrained bit. The top-down
    // `and(acc, literal)` form re-walks the whole accumulated chain on
    // every bit (quadratic apply work) and interns a partial chain per
    // step; this is the ddNF builder's per-node encode, so it runs tens
    // of thousands of times per comparison.
    let mut acc = Bdd::TRUE;
    for i in (0..usize::from(prefix_len)).rev() {
        let bit = (bits >> (31 - i)) & 1 == 1;
        let var = m.var(vars[i]);
        acc = if bit {
            m.ite(var, acc, Bdd::FALSE)
        } else {
            m.ite(var, Bdd::FALSE, acc)
        };
    }
    acc
}

/// Constrain 32 address variables by a wildcard mask: every *care* bit must
/// equal the base address bit.
pub fn wildcard_const(m: &mut Manager, vars: &[u32], addr: u32, wildcard: u32) -> Bdd {
    debug_assert_eq!(vars.len(), 32);
    let mut acc = Bdd::TRUE;
    for (i, &v) in vars.iter().enumerate() {
        let pos = 31 - i;
        if (wildcard >> pos) & 1 == 0 {
            let bit = (addr >> pos) & 1 == 1;
            let lit = m.literal(v, bit);
            acc = m.and(acc, lit);
        }
    }
    acc
}

/// `value ≤ hi` over big-endian variables.
pub fn le_const(m: &mut Manager, vars: &[u32], hi: u64) -> Bdd {
    // Build from the least-significant bit backwards:
    // le(empty) = true; prepending bit b of the bound:
    //   bound-bit 1: var=0 → anything below is fine; var=1 → rest must be ≤.
    //   bound-bit 0: var must be 0 and the rest ≤.
    let n = vars.len();
    let mut acc = Bdd::TRUE;
    for i in (0..n).rev() {
        let bound_bit = (hi >> (n - 1 - i)) & 1 == 1;
        let v = vars[i];
        let var = m.var(v);
        acc = if bound_bit {
            m.ite(var, acc, Bdd::TRUE)
        } else {
            m.ite(var, Bdd::FALSE, acc)
        };
    }
    acc
}

/// `value ≥ lo` over big-endian variables.
pub fn ge_const(m: &mut Manager, vars: &[u32], lo: u64) -> Bdd {
    let n = vars.len();
    let mut acc = Bdd::TRUE;
    for i in (0..n).rev() {
        let bound_bit = (lo >> (n - 1 - i)) & 1 == 1;
        let v = vars[i];
        let var = m.var(v);
        acc = if bound_bit {
            m.ite(var, acc, Bdd::FALSE)
        } else {
            m.ite(var, Bdd::TRUE, acc)
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
    use campion_bdd::Assignment;

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
}
