//! Unit and property tests for the BDD engine.

use crate::{Assignment, Bdd, Manager};

#[test]
fn terminals_are_distinct() {
    let m = Manager::new(3);
    assert!(m.is_true(Bdd::TRUE));
    assert!(m.is_false(Bdd::FALSE));
    assert_ne!(Bdd::TRUE, Bdd::FALSE);
}

#[test]
fn var_and_nvar_are_complements() {
    let mut m = Manager::new(3);
    let x = m.var(1);
    let nx = m.nvar(1);
    assert_eq!(m.not(x), nx);
    assert_eq!(m.not(nx), x);
    let both = m.and(x, nx);
    assert!(m.is_false(both));
    let either = m.or(x, nx);
    assert!(m.is_true(either));
}

#[test]
fn hash_consing_canonicalizes() {
    let mut m = Manager::new(4);
    let a = m.var(0);
    let b = m.var(1);
    let f1 = m.and(a, b);
    let f2 = m.and(b, a);
    assert_eq!(f1, f2, "commutativity should yield identical handles");
    let g1 = m.or(a, b);
    let na = m.not(a);
    let nb = m.not(b);
    let ng = m.and(na, nb);
    let g2 = m.not(ng);
    assert_eq!(g1, g2, "De Morgan should yield identical handles");
}

#[test]
fn reduction_rule_collapses_redundant_nodes() {
    let mut m = Manager::new(2);
    let x = m.var(0);
    // (x ∧ true) ∨ (¬x ∧ true) = true; no node should survive reduction.
    let nx = m.not(x);
    let f = m.or(x, nx);
    assert!(m.is_true(f));
    assert!(f.is_const());
}

#[test]
fn diff_is_and_not() {
    let mut m = Manager::new(3);
    let a = m.var(0);
    let b = m.var(1);
    let d = m.diff(a, b);
    let nb = m.not(b);
    let manual = m.and(a, nb);
    assert_eq!(d, manual);
}

#[test]
fn sat_count_simple() {
    let mut m = Manager::new(4);
    assert_eq!(m.sat_count(Bdd::TRUE), 16);
    assert_eq!(m.sat_count(Bdd::FALSE), 0);
    let x = m.var(0);
    assert_eq!(m.sat_count(x), 8);
    let y = m.var(3);
    assert_eq!(m.sat_count(y), 8);
    let xy = m.and(x, y);
    assert_eq!(m.sat_count(xy), 4);
    let xoy = m.or(x, y);
    assert_eq!(m.sat_count(xoy), 12);
}

#[test]
fn restrict_cofactors() {
    let mut m = Manager::new(3);
    let x = m.var(0);
    let y = m.var(1);
    let f = m.and(x, y);
    let f_x1 = m.restrict(f, 0, true);
    assert_eq!(f_x1, y);
    let f_x0 = m.restrict(f, 0, false);
    assert!(m.is_false(f_x0));
    // Restricting a variable not in the support is the identity.
    let f_z = m.restrict(f, 2, true);
    assert_eq!(f_z, f);
}

#[test]
fn exists_removes_support() {
    let mut m = Manager::new(3);
    let x = m.var(0);
    let y = m.var(1);
    let f = m.and(x, y);
    let ex = m.exists(f, &[0]);
    assert_eq!(ex, y);
    let exy = m.exists(f, &[0, 1]);
    assert!(m.is_true(exy));
}

#[test]
fn support_reports_dependencies() {
    let mut m = Manager::new(5);
    let a = m.var(1);
    let b = m.var(3);
    let f = m.xor(a, b);
    assert_eq!(m.support(f), vec![1, 3]);
    assert_eq!(m.support(Bdd::TRUE), Vec::<u32>::new());
}

#[test]
fn first_sat_prefers_low_branch() {
    let mut m = Manager::new(3);
    let x = m.var(0);
    let y = m.var(1);
    let f = m.or(x, y);
    // Lexicographically first model: x=0, y=1.
    let cube = m.first_sat(f).unwrap();
    assert_eq!(cube.get(0), Some(false));
    assert_eq!(cube.get(1), Some(true));
    assert_eq!(cube.get(2), None);
    assert!(m.first_sat(Bdd::FALSE).is_none());
}

#[test]
fn eval_follows_assignment() {
    let mut m = Manager::new(3);
    let x = m.var(0);
    let z = m.var(2);
    let f = m.and(x, z);
    let mut a = Assignment::all_false(3);
    assert!(!m.eval(f, &a));
    a.set(0, true);
    a.set(2, true);
    assert!(m.eval(f, &a));
    a.set(2, false);
    assert!(!m.eval(f, &a));
}

#[test]
fn sat_cubes_partition_the_onset() {
    let mut m = Manager::new(3);
    let x = m.var(0);
    let y = m.var(1);
    let z = m.var(2);
    let xy = m.and(x, y);
    let f = m.or(xy, z);
    let cubes: Vec<_> = m.sat_cubes(f).collect();
    assert!(!cubes.is_empty());
    // Disjoint cubes whose total weight equals the sat count.
    let total: u128 = cubes.iter().map(|c| 1u128 << (3 - c.fixed_count())).sum();
    assert_eq!(total, m.sat_count(f));
    // Every cube's completion satisfies f.
    for c in &cubes {
        assert!(m.eval(f, &c.complete_with(false)));
        assert!(m.eval(f, &c.complete_with(true)));
    }
}

#[test]
fn sat_cubes_deterministic_order() {
    let mut m = Manager::new(2);
    let x = m.var(0);
    let y = m.var(1);
    let f = m.or(x, y);
    let firsts: Vec<_> = m.sat_cubes(f).map(|c| c.complete_with(false)).collect();
    // Expect (0,1) then (1,·) — low branch first.
    assert_eq!(firsts[0].values(), &[false, true]);
    assert!(firsts[1].get(0));
}

#[test]
fn decode_be_reads_msb_first() {
    let mut a = Assignment::all_false(8);
    a.set(0, true); // msb of 0..4
    a.set(3, true); // lsb of 0..4
    assert_eq!(a.decode_be(0..4), 0b1001);
    assert_eq!(a.decode_be(4..8), 0);
}

#[test]
fn or_all_matches_linear_fold() {
    // The balanced-tree reduction must agree with the naive left fold on
    // every operand mix (hash-consing makes agreement exact handle
    // equality, not just semantic equivalence).
    let mut m = Manager::new(8);
    let lits: Vec<Bdd> = (0..8).map(|v| m.var(v)).collect();
    let mut operand_sets: Vec<Vec<Bdd>> = vec![
        vec![],
        vec![lits[3]],
        lits.clone(),
        vec![lits[0], lits[0], lits[0]],
    ];
    // A mixed set with negations and intermediate conjunctions.
    let n4 = m.not(lits[4]);
    let c01 = m.and(lits[0], lits[1]);
    operand_sets.push(vec![c01, n4, lits[7], lits[2], c01]);
    // A set containing the identity, and one containing the absorbing
    // element.
    operand_sets.push(vec![lits[1], Bdd::FALSE, lits[2]]);
    operand_sets.push(vec![lits[1], Bdd::TRUE, lits[2]]);
    for fs in &operand_sets {
        let fold_or = fs.iter().fold(Bdd::FALSE, |acc, &f| m.or(acc, f));
        assert_eq!(m.or_all(fs), fold_or, "or_all mismatch on {fs:?}");
    }
}

#[test]
fn stats_counters_track_table_activity() {
    let mut m = Manager::new(16);
    let base = m.stats();
    assert_eq!(base.nodes, 2, "fresh manager holds only the terminals");
    let mut fs = Vec::new();
    for v in 0..16 {
        fs.push(m.var(v));
    }
    let conj = fs.iter().fold(Bdd::TRUE, |acc, &f| m.and(acc, f));
    assert!(!conj.is_const_false());
    let s = m.stats();
    assert_eq!(s.nodes as usize, m.node_count());
    assert!(s.unique_lookups > 0, "mk must consult the unique table");
    assert!(s.apply_lookups > 0, "and must consult the apply cache");
    // Re-running the same conjunction is answered by caches and terminal
    // rules without allocating nodes.
    let before = m.stats();
    let again = fs.iter().fold(Bdd::TRUE, |acc, &f| m.and(acc, f));
    assert_eq!(again, conj);
    let after = m.stats();
    assert_eq!(before.nodes, after.nodes, "cached rerun must not allocate");
    assert!(after.apply_hits >= before.apply_hits);
    // Hit-rate helpers stay within [0, 1].
    assert!((0.0..=1.0).contains(&after.apply_hit_rate()));
    assert!((0.0..=1.0).contains(&after.unique_hit_rate()));
    assert!(after.unique_collisions_per_lookup() >= 0.0);
}

#[test]
fn unique_table_growth_preserves_canonicity() {
    // Allocate well past the initial 64-slot table so the open-addressing
    // table rehashes several times, then verify hash-consing still
    // canonicalizes: rebuilding any function yields the same handle.
    let mut m = Manager::new(20);
    let mut funcs = Vec::new();
    for a in 0..20u32 {
        for b in 0..20u32 {
            let x = m.var(a);
            let y = m.var(b);
            let f = m.xor(x, y);
            let g = m.and(x, f);
            funcs.push((a, b, g));
        }
    }
    let s = m.stats();
    assert!(s.unique_grows > 0, "expected at least one table doubling");
    assert!(s.nodes > 64, "workload must outgrow the initial table");
    for (a, b, g) in funcs {
        let x = m.var(a);
        let y = m.var(b);
        let f = m.xor(x, y);
        let g2 = m.and(x, f);
        assert_eq!(g2, g, "rebuild of x{a} & (x{a} ^ x{b}) changed handle");
    }
}

mod properties {
    //! Property tests compare every BDD operation against a brute-force
    //! truth-table evaluator on a small random formula language.
    use super::*;
    use proptest::prelude::*;

    /// A tiny boolean expression tree for differential testing.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(u32),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
        Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    }

    const NVARS: u32 = 6;

    fn expr_strategy() -> impl Strategy<Value = Expr> {
        let leaf = (0..NVARS).prop_map(Expr::Var);
        leaf.prop_recursive(4, 32, 3, |inner| {
            prop_oneof![
                inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Xor(Box::new(a), Box::new(b))),
                (inner.clone(), inner.clone(), inner).prop_map(|(a, b, c)| Expr::Ite(
                    Box::new(a),
                    Box::new(b),
                    Box::new(c)
                )),
            ]
        })
    }

    fn eval_expr(e: &Expr, a: &Assignment) -> bool {
        match e {
            Expr::Var(v) => a.get(*v),
            Expr::Not(x) => !eval_expr(x, a),
            Expr::And(x, y) => eval_expr(x, a) && eval_expr(y, a),
            Expr::Or(x, y) => eval_expr(x, a) || eval_expr(y, a),
            Expr::Xor(x, y) => eval_expr(x, a) != eval_expr(y, a),
            Expr::Ite(c, t, f) => {
                if eval_expr(c, a) {
                    eval_expr(t, a)
                } else {
                    eval_expr(f, a)
                }
            }
        }
    }

    fn build(m: &mut Manager, e: &Expr) -> Bdd {
        match e {
            Expr::Var(v) => m.var(*v),
            Expr::Not(x) => {
                let b = build(m, x);
                m.not(b)
            }
            Expr::And(x, y) => {
                let (a, b) = (build(m, x), build(m, y));
                m.and(a, b)
            }
            Expr::Or(x, y) => {
                let (a, b) = (build(m, x), build(m, y));
                m.or(a, b)
            }
            Expr::Xor(x, y) => {
                let (a, b) = (build(m, x), build(m, y));
                m.xor(a, b)
            }
            Expr::Ite(c, t, f) => {
                let (c, t, f) = (build(m, c), build(m, t), build(m, f));
                let then = m.and(c, t);
                let other = m.diff(f, c);
                m.or(then, other)
            }
        }
    }

    fn assignments() -> impl Iterator<Item = Assignment> {
        (0u32..(1 << NVARS))
            .map(|bits| Assignment::new((0..NVARS).map(|v| (bits >> v) & 1 == 1).collect()))
    }

    proptest! {
        #[test]
        fn bdd_matches_truth_table(e in expr_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            for a in assignments() {
                prop_assert_eq!(m.eval(f, &a), eval_expr(&e, &a));
            }
        }

        #[test]
        fn sat_count_matches_truth_table(e in expr_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let expected = assignments().filter(|a| eval_expr(&e, a)).count() as u128;
            prop_assert_eq!(m.sat_count(f), expected);
        }

        #[test]
        fn cubes_cover_exactly_the_onset(e in expr_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let cubes: Vec<_> = m.sat_cubes(f).collect();
            for a in assignments() {
                let covered = cubes.iter().any(|c| {
                    (0..NVARS).all(|v| c.get(v).is_none_or(|b| b == a.get(v)))
                });
                prop_assert_eq!(covered, eval_expr(&e, &a));
            }
        }

        #[test]
        fn exists_is_disjunction_of_cofactors(e in expr_strategy(), var in 0..NVARS) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let ex = m.exists(f, &[var]);
            let c0 = m.restrict(f, var, false);
            let c1 = m.restrict(f, var, true);
            let manual = m.or(c0, c1);
            prop_assert_eq!(ex, manual);
        }

        #[test]
        fn double_negation_is_identity(e in expr_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            let nn = m.not(f);
            let nn = m.not(nn);
            prop_assert_eq!(nn, f);
        }

        #[test]
        fn first_sat_satisfies(e in expr_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build(&mut m, &e);
            if let Some(a) = m.first_sat_assignment(f) {
                prop_assert!(m.eval(f, &a));
            } else {
                prop_assert!(m.is_false(f));
            }
        }
    }
}

mod wide_properties {
    //! Wider differential tests (12 variables) sized to push the
    //! open-addressing unique table through several growth/rehash cycles
    //! and to cycle the direct-mapped computed tables, while staying
    //! brute-forceable (2^12 assignments).
    use super::*;
    use proptest::prelude::*;

    const NVARS: u32 = 12;

    /// A flat random formula: a disjunction of random cubes. Wide enough
    /// to allocate thousands of nodes, cheap to evaluate concretely.
    #[derive(Debug, Clone)]
    struct Dnf {
        /// Each cube: (mask of constrained vars, polarity bits).
        cubes: Vec<(u16, u16)>,
    }

    fn dnf_strategy() -> impl Strategy<Value = Dnf> {
        proptest::collection::vec((any::<u16>(), any::<u16>()), 1..24).prop_map(|cubes| Dnf {
            cubes: cubes
                .into_iter()
                .map(|(m, p)| (m & 0x0FFF, p & 0x0FFF))
                .collect(),
        })
    }

    fn eval_dnf(d: &Dnf, bits: u16) -> bool {
        d.cubes.iter().any(|&(mask, pol)| (bits ^ pol) & mask == 0)
    }

    fn build_dnf(m: &mut Manager, d: &Dnf) -> Bdd {
        let mut cube_bdds = Vec::with_capacity(d.cubes.len());
        for &(mask, pol) in &d.cubes {
            let mut lits = Vec::new();
            for v in 0..NVARS {
                if mask >> v & 1 == 1 {
                    lits.push(if pol >> v & 1 == 1 {
                        m.var(v)
                    } else {
                        m.nvar(v)
                    });
                }
            }
            let c = lits.iter().fold(Bdd::TRUE, |acc, &l| m.and(acc, l));
            cube_bdds.push(c);
        }
        m.or_all(&cube_bdds)
    }

    proptest! {
        #[test]
        fn wide_bdd_matches_truth_table(d in dnf_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build_dnf(&mut m, &d);
            for bits in 0u16..(1 << NVARS) {
                let a = Assignment::new(
                    (0..NVARS).map(|v| bits >> v & 1 == 1).collect(),
                );
                prop_assert_eq!(m.eval(f, &a), eval_dnf(&d, bits));
            }
            // The counters must be coherent regardless of workload shape.
            let s = m.stats();
            prop_assert!(s.unique_hits <= s.unique_lookups);
            prop_assert!(s.apply_hits <= s.apply_lookups);
            prop_assert_eq!(s.nodes as usize, m.node_count());
        }

        #[test]
        fn wide_ops_consistent_after_growth(d1 in dnf_strategy(), d2 in dnf_strategy()) {
            let mut m = Manager::new(NVARS);
            let f = build_dnf(&mut m, &d1);
            let g = build_dnf(&mut m, &d2);
            let and = m.and(f, g);
            let or = m.or(f, g);
            let xor = m.xor(f, g);
            let diff = m.diff(f, g);
            for bits in 0u16..(1 << NVARS) {
                let a = Assignment::new(
                    (0..NVARS).map(|v| bits >> v & 1 == 1).collect(),
                );
                let (vf, vg) = (eval_dnf(&d1, bits), eval_dnf(&d2, bits));
                prop_assert_eq!(m.eval(and, &a), vf && vg);
                prop_assert_eq!(m.eval(or, &a), vf || vg);
                prop_assert_eq!(m.eval(xor, &a), vf != vg);
                prop_assert_eq!(m.eval(diff, &a), vf && !vg);
            }
            prop_assert_eq!(
                m.sat_count(and),
                (0u16..(1 << NVARS))
                    .filter(|&b| eval_dnf(&d1, b) && eval_dnf(&d2, b))
                    .count() as u128
            );
        }
    }
}

mod gc {
    use crate::manager::GcPolicy;
    use crate::{Assignment, Bdd, Manager};

    /// A small ACL-rule-shaped conjunction over a window of variables.
    fn rule(m: &mut Manager, seed: u64) -> Bdd {
        let mut acc = Bdd::TRUE;
        for v in 0..8u32 {
            let lit = m.literal(v, seed >> v & 1 == 1);
            acc = m.and(acc, lit);
        }
        acc
    }

    #[test]
    fn gc_frees_unreachable_nodes() {
        let mut m = Manager::new(16);
        let keep = rule(&mut m, 0b1010_1010);
        m.protect(keep);
        for seed in 0..64 {
            let _ = rule(&mut m, seed);
        }
        let before = m.node_count();
        let freed = m.gc();
        assert!(freed > 0, "expected garbage to be freed");
        assert!(m.node_count() < before);
        m.assert_gc_invariants();
        // The protected function must still evaluate correctly.
        let a = Assignment::new((0..16).map(|v| 0b1010_1010u32 >> v & 1 == 1).collect());
        assert!(m.eval(keep, &a));
        assert_eq!(m.sat_count(keep), 1 << 8);
    }

    #[test]
    fn gc_preserves_canonicity_and_recycles_slots() {
        let mut m = Manager::new(16);
        let keep = rule(&mut m, 3);
        m.protect(keep);
        for seed in 4..40 {
            let _ = rule(&mut m, seed);
        }
        let allocated = {
            m.gc();
            m.node_count()
        };
        // Rebuilding the same functions after collection must hash-cons to
        // identical handles (canonicity) and reuse freed arena slots rather
        // than growing the arena.
        let again = rule(&mut m, 3);
        assert_eq!(again, keep, "canonicity broken after gc");
        for seed in 4..40 {
            let _ = rule(&mut m, seed);
        }
        let _ = allocated;
        let peak = m.stats().peak_nodes;
        for _ in 0..8 {
            m.gc();
            for seed in 4..40 {
                let _ = rule(&mut m, seed);
            }
        }
        assert_eq!(
            m.stats().peak_nodes,
            peak,
            "arena kept growing across gc cycles"
        );
    }

    #[test]
    fn protect_is_refcounted() {
        let mut m = Manager::new(8);
        let f = rule(&mut m, 7);
        m.protect(f);
        m.protect(f);
        assert_eq!(m.root_count(), 1);
        m.unprotect(f);
        m.gc();
        m.assert_gc_invariants();
        // Still protected by the second reference.
        assert_eq!(rule(&mut m, 7), f);
        m.unprotect(f);
        assert_eq!(m.root_count(), 0);
        let freed = m.gc();
        assert!(freed > 0);
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn checkpoint_honours_policy() {
        let mut m = Manager::new(16);
        // Disabled: never collects.
        for seed in 0..32 {
            let _ = rule(&mut m, seed);
        }
        assert!(!m.gc_checkpoint());
        assert_eq!(m.stats().gc_runs, 0);

        // Aggressive: collects at every checkpoint.
        m.set_gc_policy(GcPolicy::Aggressive);
        assert!(m.gc_checkpoint());
        assert_eq!(m.stats().gc_runs, 1);
        assert_eq!(m.node_count(), 2);

        // Automatic with a tiny floor: collects once in-use doubles.
        m.set_gc_policy(GcPolicy::Automatic {
            growth_factor: 2,
            min_nodes: 4,
        });
        for seed in 0..32 {
            let _ = rule(&mut m, seed);
        }
        assert!(m.gc_checkpoint());
        let runs = m.stats().gc_runs;
        // Immediately after a collection the trigger must not re-fire.
        assert!(!m.gc_checkpoint());
        assert_eq!(m.stats().gc_runs, runs);
    }

    #[test]
    fn stats_track_gc_counters() {
        let mut m = Manager::new(16);
        let keep = rule(&mut m, 1);
        m.protect(keep);
        for seed in 2..20 {
            let _ = rule(&mut m, seed);
        }
        let peak_before = m.stats().peak_nodes;
        let freed = m.gc();
        let s = m.stats();
        assert_eq!(s.gc_runs, 1);
        assert_eq!(s.gc_nodes_freed, freed as u64);
        assert_eq!(s.post_gc_nodes, s.nodes);
        assert_eq!(s.peak_nodes, peak_before);
        assert_eq!(s.nodes as usize, m.node_count());
    }

    #[test]
    fn ops_work_after_many_collections() {
        let mut m = Manager::new(16);
        m.set_gc_policy(GcPolicy::Aggressive);
        let mut acc = Bdd::FALSE;
        for seed in 0..32 {
            let r = rule(&mut m, seed * 37 % 256);
            let next = m.or(acc, r);
            m.unprotect(acc); // no-op on the first (constant) accumulator
            m.protect(next);
            acc = next;
            m.gc_checkpoint();
            m.assert_gc_invariants();
        }
        // Spot-check the accumulated union against direct reconstruction.
        let mut fresh = Manager::new(16);
        let mut want = Bdd::FALSE;
        for seed in 0..32 {
            let r = rule(&mut fresh, seed * 37 % 256);
            want = fresh.or(want, r);
        }
        assert_eq!(m.sat_count(acc), fresh.sat_count(want));
    }
}
