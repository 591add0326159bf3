//! Differential oracle for the BDD manager under garbage collection.
//!
//! Every operation the manager supports, and the `mk`-built constants of
//! `campion_bdd::bits`, is mirrored against a brute-force truth-table
//! evaluator over `NVARS ≤ 16` variables. Random operation
//! sequences — interleaved with `gc()` calls and root-set churn — must
//! produce BDDs whose `eval` matches the oracle on all `2^NVARS`
//! assignments, and whose `sat_count`/`first_sat` answers are unchanged by
//! collection. This is the safety net that lets the reachable-mark GC touch
//! the unique table at all.

use campion_bdd::{bits, Assignment, Bdd, GcPolicy, Manager};
use proptest::collection::vec;
use proptest::prelude::*;

/// Variable count for the exhaustive oracle: 2^8 = 256 assignments keeps
/// full truth-table comparison cheap enough to run after every step.
const NVARS: u32 = 8;
const TABLE: usize = 1 << NVARS;

/// Case budget: the `PROPTEST_CASES` env var (read by the vendored shim's
/// `Config::default`) always wins; otherwise run a heavier floor in release
/// builds (CI runs this suite with `PROPTEST_CASES=512`).
fn oracle_config() -> ProptestConfig {
    let floor = if cfg!(debug_assertions) { 64 } else { 256 };
    ProptestConfig::with_cases(ProptestConfig::default().cases.max(floor))
}

/// A function under test: the manager handle plus its ground-truth table,
/// `table[bits]` = value under the assignment encoded by `bits`.
struct Entry {
    bdd: Bdd,
    table: Vec<bool>,
}

fn assignment(bits: usize) -> Assignment {
    Assignment::new((0..NVARS).map(|v| bits >> v & 1 == 1).collect())
}

/// The ascending run of variables whose bits are set in `mask`.
fn run(mask: u16) -> Vec<u32> {
    (0..NVARS).filter(|v| mask >> v & 1 == 1).collect()
}

/// The run's big-endian value under the assignment encoded by `bits`.
fn decode(vars: &[u32], bits: usize) -> u64 {
    vars.iter()
        .fold(0, |acc, &v| acc << 1 | (bits >> v & 1) as u64)
}

fn check_entry(m: &Manager, e: &Entry) -> Result<(), TestCaseError> {
    for bits in 0..TABLE {
        let got = m.eval(e.bdd, &assignment(bits));
        prop_assert_eq!(got, e.table[bits], "eval mismatch at bits={:#010b}", bits);
    }
    let want_count = e.table.iter().filter(|&&b| b).count() as u128;
    prop_assert_eq!(m.sat_count(e.bdd), want_count);
    Ok(())
}

/// Interpret one random step against both the manager and the oracle.
/// Returns false when the step was a structural action (gc/drop) rather
/// than a function-producing operation.
fn apply_step(
    m: &mut Manager,
    built: &mut Vec<Entry>,
    op: u8,
    a: u16,
    b: u16,
    c: u16,
) -> Result<(), TestCaseError> {
    let pick = |x: u16| x as usize % built.len();
    let entry = match op % 12 {
        0 => {
            let v = a as u32 % NVARS;
            Entry {
                bdd: m.var(v),
                table: (0..TABLE).map(|bits| bits >> v & 1 == 1).collect(),
            }
        }
        1 => {
            let f = pick(a);
            Entry {
                bdd: m.not(built[f].bdd),
                table: built[f].table.iter().map(|&x| !x).collect(),
            }
        }
        2..=5 => {
            let (f, g) = (pick(a), pick(b));
            let bdd = match op % 12 {
                2 => m.and(built[f].bdd, built[g].bdd),
                3 => m.or(built[f].bdd, built[g].bdd),
                4 => m.xor(built[f].bdd, built[g].bdd),
                _ => m.diff(built[f].bdd, built[g].bdd),
            };
            let table = built[f]
                .table
                .iter()
                .zip(&built[g].table)
                .map(|(&x, &y)| match op % 12 {
                    2 => x && y,
                    3 => x || y,
                    4 => x != y,
                    _ => x && !y,
                })
                .collect();
            Entry { bdd, table }
        }
        6 => {
            // An interval over a random ascending run, built by `mk`.
            let vars = run(b);
            let full = (1u64 << vars.len()) - 1;
            let (lo, hi) = (u64::from(a) & full, u64::from(c) & full);
            Entry {
                bdd: bits::range_const(m, &vars, lo, hi),
                table: (0..TABLE)
                    .map(|bits| (lo..=hi).contains(&decode(&vars, bits)))
                    .collect(),
            }
        }
        7 => {
            // A constant over a random ascending run, built by `mk`.
            let vars = run(b);
            let value = u64::from(c) & ((1 << vars.len()) - 1);
            Entry {
                bdd: bits::eq_const(m, &vars, value),
                table: (0..TABLE)
                    .map(|bits| decode(&vars, bits) == value)
                    .collect(),
            }
        }
        8 => {
            let f = pick(a);
            let v = b as u32 % NVARS;
            Entry {
                bdd: m.exists(built[f].bdd, &[v]),
                table: (0..TABLE)
                    .map(|bits| built[f].table[bits | 1 << v] || built[f].table[bits & !(1 << v)])
                    .collect(),
            }
        }
        9 => {
            // Drop a function from the root set: it becomes collectable and
            // must never be consulted again.
            let f = pick(a);
            let dead = built.swap_remove(f);
            m.unprotect(dead.bdd);
            return Ok(());
        }
        10 => {
            // Manual collection mid-sequence. Everything in `built` is
            // protected, so sat_count/first_sat must be unchanged by it.
            let before: Vec<_> = built
                .iter()
                .map(|e| (m.sat_count(e.bdd), m.first_sat(e.bdd)))
                .collect();
            m.gc();
            m.assert_gc_invariants();
            for (e, (count, cube)) in built.iter().zip(before) {
                prop_assert_eq!(m.sat_count(e.bdd), count, "sat_count changed across gc");
                prop_assert_eq!(m.first_sat(e.bdd), cube, "first_sat changed across gc");
            }
            return Ok(());
        }
        _ => {
            // Policy-driven safe point (exercises the automatic trigger).
            m.gc_checkpoint();
            return Ok(());
        }
    };
    check_entry(m, &entry)?;
    m.protect(entry.bdd);
    built.push(entry);
    Ok(())
}

fn seed_entries(m: &mut Manager) -> Vec<Entry> {
    let mut built = vec![
        Entry {
            bdd: Bdd::FALSE,
            table: vec![false; TABLE],
        },
        Entry {
            bdd: Bdd::TRUE,
            table: vec![true; TABLE],
        },
    ];
    for v in 0..NVARS {
        let bdd = m.var(v);
        m.protect(bdd);
        built.push(Entry {
            bdd,
            table: (0..TABLE).map(|bits| bits >> v & 1 == 1).collect(),
        });
    }
    built
}

proptest! {
    #![proptest_config(oracle_config())]

    /// Random op sequences interleaved with gc() match the truth-table
    /// oracle on every assignment, with sat_count/first_sat stable across
    /// collections.
    #[test]
    fn ops_with_gc_match_oracle(
        steps in vec((0u8..=11, 0u16..4096, 0u16..4096, 0u16..4096), 4..28),
    ) {
        let mut m = Manager::new(NVARS);
        m.set_gc_policy(GcPolicy::Automatic { growth_factor: 2, min_nodes: 64 });
        let mut built = seed_entries(&mut m);
        for (op, a, b, c) in steps {
            // Keep at least the constants + vars so index picking stays sane.
            if op % 12 == 9 && built.len() <= 2 {
                continue;
            }
            apply_step(&mut m, &mut built, op, a, b, c)?;
        }
        // Final exhaustive re-check of every surviving function.
        m.gc();
        m.assert_gc_invariants();
        for e in &built {
            check_entry(&m, e)?;
        }
    }

    /// After every gc the unique table holds exactly the root-reachable
    /// nodes, and canonicity is preserved: two surviving functions have
    /// equal handles iff their oracle tables are identical.
    #[test]
    fn gc_preserves_canonicity(
        steps in vec((0u8..=9, 0u16..4096, 0u16..4096, 0u16..4096), 4..20),
    ) {
        let mut m = Manager::new(NVARS);
        let mut built = seed_entries(&mut m);
        for (op, a, b, c) in steps {
            if op % 12 == 9 && built.len() <= 2 {
                continue;
            }
            apply_step(&mut m, &mut built, op, a, b, c)?;
            m.gc();
            m.assert_gc_invariants();
        }
        for (i, e1) in built.iter().enumerate() {
            for e2 in &built[i + 1..] {
                let same_fn = e1.table == e2.table;
                prop_assert_eq!(e1.bdd == e2.bdd, same_fn, "handle equality != semantic equality");
            }
        }
    }
}

/// Build→drop-roots→collect over 1k random ACL-rule-shaped BDDs: the arena
/// must stay bounded instead of growing monotonically (the pre-GC failure
/// mode called out in ROADMAP.md).
#[test]
fn acl_rule_churn_keeps_node_count_bounded() {
    let mut m = Manager::new(16);
    m.set_gc_policy(GcPolicy::Automatic {
        growth_factor: 2,
        min_nodes: 1 << 10,
    });
    // Deterministic xorshift64* stream; no external RNG needed.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut high_water = 0usize;
    for _ in 0..1000 {
        // A random 5-conjunct rule over 16 vars, rooted while "in use".
        let bits = rng();
        let mut acc = Bdd::TRUE;
        for j in 0..5u32 {
            let v = (bits >> (j * 8)) as u32 % 16;
            let lit = m.literal(v, bits >> (40 + j) & 1 == 1);
            acc = m.and(acc, lit);
        }
        m.protect(acc);
        // Simulate the rule leaving scope, then hit a safe point.
        m.unprotect(acc);
        m.gc_checkpoint();
        high_water = high_water.max(m.node_count());
    }
    m.gc();
    assert_eq!(m.node_count(), 2, "nothing is rooted; all nodes must go");
    // The automatic policy must cap the arena well below 1k-rules-worth of
    // retained garbage: floor 2^10 nodes, trigger at 2×, so the arena never
    // legitimately exceeds ~2×floor plus one rule's worth of slack.
    assert!(
        high_water <= (1 << 11) + 64,
        "node_count unbounded under churn: high water {high_water}"
    );
    let s = m.stats();
    assert!(s.gc_runs > 0, "automatic trigger never fired");
    assert!(s.gc_nodes_freed > 0);
}
