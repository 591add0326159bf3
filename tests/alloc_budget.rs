//! Allocation budget of the configuration front end.
//!
//! The JunOS parser borrows every token from the input text into one flat
//! statement tree and copies out only the names the typed AST keeps, the
//! Cisco parser reads a prefix-list line's words in place, and a lowered
//! model shares its config's source buffer instead of copying it line by
//! line. These assertions pin that: a tree that allocates per statement
//! makes more than two allocations each, a prefix-list line that copies
//! its words or its list's name allocates more than twice, and a
//! line-by-line copy allocates once per line.
//!
//! The counting allocator sees every thread of the process, so this file
//! holds a single test and runs alone in its own binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use campion_cfg::juniper::tree::{parse_tree, Stmt};
use campion_cfg::{parse_config, VendorConfig};
use campion_gen::capirca_acl_pair;
use campion_ir::lower;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method passes its arguments unchanged to the system
// allocator, so each upholds the `GlobalAlloc` contract exactly as `System`
// does. The counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result with the allocations it made.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn count_statements<'t>(stmts: impl Iterator<Item = Stmt<'t>>) -> usize {
    stmts.map(|s| 1 + count_statements(s.children())).sum()
}

#[test]
fn front_end_allocates_per_statement_and_line_within_budget() {
    let (_, juniper) = capirca_acl_pair(2000, 10, 0x5EED_2000);
    let statements = count_statements(
        parse_tree(&juniper)
            .expect("generated JunOS parses")
            .roots(),
    );
    let lines = juniper.lines().count();

    let (cfg, parse_allocs) =
        allocations_during(|| parse_config(&juniper).expect("generated JunOS parses"));
    let (router, lower_allocs) = allocations_during(|| lower(&cfg).expect("lowerable"));
    assert_eq!(router.acls["ACL-GEN"].rules.len(), 2001);

    // The flat tree allocates only as its two vectors grow, so nearly all
    // of the 0.65 per statement measured here are the typed AST's names and
    // lists; the budget leaves about 20 % headroom over that. A tree that
    // allocates per statement (2.43 each) fails it.
    let per_statement = parse_allocs as f64 / statements as f64;
    assert!(
        per_statement < 0.8,
        "parse made {parse_allocs} allocations for {statements} statements \
         ({per_statement:.2} each, budget < 0.8)"
    );
    assert!(
        lower_allocs < lines,
        "lower made {lower_allocs} allocations for a {lines}-line config (budget < 1 per line)"
    );

    // 10,000 Cisco prefix-list entries over 50 lists.
    let entries = 10_000u32;
    let cisco: String = (0..entries)
        .map(|i| {
            format!(
                "ip prefix-list PL-{} seq {} permit 10.{}.{}.0/24 le 32\n",
                i % 50,
                5 * (i / 50 + 1),
                i >> 8,
                i & 0xFF
            )
        })
        .collect();
    let (cfg, parse_allocs) =
        allocations_during(|| parse_config(&cisco).expect("generated Cisco parses"));
    let VendorConfig::Cisco(cfg) = cfg else {
        panic!("prefix-list lines read as JunOS");
    };
    let parsed: usize = cfg.prefix_lists.values().map(|l| l.entries.len()).sum();
    assert_eq!((cfg.prefix_lists.len(), parsed), (50, entries as usize));
    // Each line allocates its word vector once; the lists' names and the
    // growth of their entry vectors bring the 1.05 per line measured here,
    // and the budget leaves about 20 % headroom over that. A line that
    // regrows its word vector, copies its words into a second one and
    // allocates its list's name (5.04 each) fails it.
    let per_line = parse_allocs as f64 / f64::from(entries);
    assert!(
        per_line < 1.25,
        "parse made {parse_allocs} allocations for {entries} prefix-list lines \
         ({per_line:.2} each, budget < 1.25)"
    );
}
