//! Differential oracle for the BDD manager under compaction.
//!
//! Every operation the manager supports, and the `mk`-built constants of
//! `campion_bdd::bits`, is mirrored against a brute-force truth-table
//! evaluator over `NVARS ≤ 16` variables. Random operation sequences —
//! interleaved with compactions to random subsets of the functions built
//! so far — must produce BDDs whose `eval` matches the oracle on all
//! `2^NVARS` assignments. After each compaction every kept function must
//! evaluate as before, rebuild onto its rewritten handle, and the arena
//! must hold exactly the nodes the truth tables imply; later operations,
//! which a stale computed-table entry would corrupt, must still agree.

use std::collections::HashSet;

use campion_bdd::{bits, Assignment, Bdd, Manager};
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

/// The truth table's function rebuilt by Shannon expansion, one variable
/// at a time from the top: canonicity makes this the handle of any other
/// BDD of the same function.
fn rebuild(m: &mut Manager, table: &[bool]) -> Bdd {
    fn expand(m: &mut Manager, sub: &[bool], var: u32) -> Bdd {
        if let [value] = sub {
            return if *value { Bdd::TRUE } else { Bdd::FALSE };
        }
        // `sub` is indexed by the values of `var..NVARS`, `var` lowest.
        let low: Vec<bool> = sub.iter().step_by(2).copied().collect();
        let high: Vec<bool> = sub.iter().skip(1).step_by(2).copied().collect();
        let (l, h) = (expand(m, &low, var + 1), expand(m, &high, var + 1));
        let x = m.var(var);
        let on = m.and(x, h);
        let off = m.diff(l, x);
        m.or(on, off)
    }
    expand(m, table, 0)
}

/// Node count, terminals included, of the reduced ordered BDD holding
/// every table: one node per distinct subfunction, after fixing the
/// variables above some level, that depends on that level's variable.
fn robdd_size<'a>(tables: impl IntoIterator<Item = &'a [bool]>) -> usize {
    let mut nodes = HashSet::new();
    for table in tables {
        for level in 0..NVARS as usize {
            for above in 0..1usize << level {
                let sub: Vec<bool> = (0..TABLE >> level)
                    .map(|rest| table[rest << level | above])
                    .collect();
                if sub.chunks(2).any(|pair| pair[0] != pair[1]) {
                    nodes.insert((level, sub));
                }
            }
        }
    }
    2 + nodes.len()
}

/// Compact `m` to the entries `keep` selects (bit `i % 64` for entry `i`)
/// and drop the rest; then check every survivor evaluates as before,
/// rebuilds onto its rewritten handle, and the arena holds exactly the
/// nodes their tables imply.
fn compact_to(m: &mut Manager, built: &mut Vec<Entry>, keep: u64) -> Result<(), TestCaseError> {
    let mut i = 0;
    built.retain(|_| {
        i += 1;
        keep >> ((i - 1) % 64) & 1 == 1
    });
    let mut roots: Vec<Bdd> = built.iter().map(|e| e.bdd).collect();
    m.compact(&mut roots);
    for (e, r) in built.iter_mut().zip(roots) {
        e.bdd = r;
    }
    let size = robdd_size(built.iter().map(|e| e.table.as_slice()));
    prop_assert_eq!(m.node_count(), size, "arena holds unreachable nodes");
    for e in built.iter() {
        check_entry(m, e)?;
        prop_assert_eq!(rebuild(m, &e.table), e.bdd, "rebuilt function moved");
    }
    Ok(())
}

/// Interpret one random step against both the manager and the oracle.
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
            // Drop a function: it is no compaction root from now on.
            let f = pick(a);
            built.swap_remove(f);
            return Ok(());
        }
        _ => {
            // Compact to a random subset of the built functions. The first
            // always stays, so later steps still have an operand.
            let keep = 1 | u64::from(a) << 1 | u64::from(b) << 17 | u64::from(c) << 33;
            return compact_to(m, built, keep);
        }
    };
    check_entry(m, &entry)?;
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
        built.push(Entry {
            bdd,
            table: (0..TABLE).map(|bits| bits >> v & 1 == 1).collect(),
        });
    }
    built
}

proptest! {
    #![proptest_config(oracle_config())]

    /// Random op sequences interleaved with compactions to random subsets
    /// match the truth-table oracle on every assignment; each compaction
    /// keeps exactly the reachable nodes and canonical handles.
    #[test]
    fn ops_with_compaction_match_oracle(
        steps in vec((0u8..=11, 0u16..4096, 0u16..4096, 0u16..4096), 4..28),
    ) {
        let mut m = Manager::new(NVARS);
        let mut built = seed_entries(&mut m);
        for (op, a, b, c) in steps {
            // Keep at least one function so index picking stays sane.
            if op % 12 >= 9 && built.len() <= 2 {
                continue;
            }
            apply_step(&mut m, &mut built, op, a, b, c)?;
        }
        // Final exhaustive re-check of every surviving function.
        compact_to(&mut m, &mut built, u64::MAX)?;
    }

    /// Compacting to every built function after each step keeps
    /// canonicity: two surviving functions have equal handles iff their
    /// oracle tables are identical.
    #[test]
    fn compaction_preserves_canonicity(
        steps in vec((0u8..=9, 0u16..4096, 0u16..4096, 0u16..4096), 4..20),
    ) {
        let mut m = Manager::new(NVARS);
        let mut built = seed_entries(&mut m);
        for (op, a, b, c) in steps {
            if op % 12 == 9 && built.len() <= 2 {
                continue;
            }
            apply_step(&mut m, &mut built, op, a, b, c)?;
            compact_to(&mut m, &mut built, u64::MAX)?;
        }
        for (i, e1) in built.iter().enumerate() {
            for e2 in &built[i + 1..] {
                let same_fn = e1.table == e2.table;
                prop_assert_eq!(e1.bdd == e2.bdd, same_fn, "handle equality != semantic equality");
            }
        }
    }
}
