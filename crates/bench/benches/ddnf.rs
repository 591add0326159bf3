//! Microbench for header localization (§3.2), isolated from parsing and
//! the diff engine:
//!
//! * `ddnf_build`: `RangeDag::build` over 10²–10⁴ `or_longer` address
//!   ranges, as an ACL pair's destination space builds it: dedup by
//!   prefix, one sort by `(bits, len)`, and each node's parent from a
//!   stack of its ancestors. No closure runs, because address sets nest
//!   or are disjoint.
//! * `ddnf_build_route`: the same over route-map-shaped member ranges
//!   (prefix-list entries /16–/28, half with an `le` bound), which run the
//!   route-space builder: the intersection closure and the cover edges,
//!   decided structurally on `(bits, len, lo-hi)` through a
//!   first-octet-bucketed prefix trie.
//! * `ddnf_getmatch`: fixed targets localized against the 10⁴-range
//!   address DAG, reported as GetMatch calls/s. Every sample starts from a
//!   fresh snapshot of the DAG with no witness found, so it pays what a
//!   pair's queries pay, witness searches included.
//! * `ddnf_getmatch_route`: the same against the route-space DAG over
//!   5·10³ member ranges, the size of an `rmap-10k` pair's, whose root has
//!   thousands of children.
//!
//! Neither builder encodes a BDD, and no query encodes a node's set either:
//! overlap is decided by walking the target, and "cell ⊆ S" by evaluating
//! the target at a witness of the cell. A regression here is a builder or
//! GetMatch regression and not a parser or SemanticDiff one.
//!
//! Inputs are generated with a fixed-seed LCG and squeezed into four first
//! octets, so the address DAG is deep rather than a flat forest and the
//! route-space closure produces real intersections.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use campion_bdd::Bdd;
use campion_core::{header_localize_with, DstAddrSpace, RangeDag};
use campion_net::{Prefix, PrefixRange};
use campion_symbolic::{PacketSpace, RouteSpace};

/// The fixed-seed LCG the inputs are drawn from (no `rand` dependency).
fn lcg() -> impl FnMut() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    move || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x
    }
}

/// `n` deterministic or-longer ranges over a crowded corner of the
/// address space.
fn gen_ranges(n: usize) -> Vec<PrefixRange> {
    let mut next = lcg();
    (0..n)
        .map(|_| {
            let x = next();
            let len = 8 + ((x >> 59) % 17) as u8;
            let octet = 10 + ((x >> 32) & 0x3) as u32;
            let bits = (octet << 24) | (x as u32 & 0x00FF_FFFF);
            PrefixRange::or_longer(Prefix::new(bits.into(), len))
        })
        .collect()
}

/// `n` deterministic prefix-list entries as a route map's lists hold them:
/// /16–/28 in the same crowded corner, half exact and half with an `le`
/// bound above the prefix length.
fn gen_member_ranges(n: usize) -> Vec<PrefixRange> {
    let mut next = lcg();
    (0..n)
        .map(|_| {
            let x = next();
            let len = 16 + ((x >> 59) % 13) as u8;
            let octet = 10 + ((x >> 32) & 0x3) as u32;
            let bits = (octet << 24) | (x as u32 & 0x00FF_FFFF);
            let le = if (x >> 40) & 1 == 1 {
                len + 1 + ((x >> 41) % u64::from(32 - len)) as u8
            } else {
                len
            };
            PrefixRange::new(Prefix::new(bits.into(), len), len, le)
        })
        .collect()
}

fn ddnf_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddnf_build");
    group.sample_size(10);
    for size in [100usize, 1000, 10000] {
        let ranges = gen_ranges(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| {
                // Fresh space per iteration: a shared manager would let the
                // second build ride the first one's unique table and measure
                // cache luck instead of the builder.
                let mut packets = PacketSpace::new();
                let dag = RangeDag::build(&mut DstAddrSpace(&mut packets), &ranges);
                std::hint::black_box(dag.len())
            })
        });
    }
    group.finish();
}

fn ddnf_build_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddnf_build_route");
    group.sample_size(10);
    // The builder encodes nothing, so one space serves every iteration.
    let policy = campion_ir::RoutePolicy::permit_all("bench");
    let mut routes = RouteSpace::for_policies(&[&policy]);
    for size in [100usize, 1000, 10000] {
        let ranges = gen_member_ranges(size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| std::hint::black_box(RangeDag::build(&mut routes, &ranges).len()))
        });
    }
    group.finish();
}

/// Targets: every 500th input range's address block, and their union.
fn ddnf_getmatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddnf_getmatch");
    group.sample_size(10);
    let size = 10_000;
    let ranges = gen_ranges(size);
    let mut packets = PacketSpace::new();
    let dag = RangeDag::build(&mut DstAddrSpace(&mut packets), &ranges);
    let mut targets: Vec<Bdd> = ranges
        .iter()
        .step_by(500)
        .map(|r| packets.dst_prefix_bdd(&r.prefix))
        .collect();
    let union = targets
        .iter()
        .fold(Bdd::FALSE, |acc, &t| packets.manager.or(acc, t));
    targets.push(union);
    group.throughput(Throughput::Elements(targets.len() as u64));
    group.bench_function(BenchmarkId::from_parameter(size), |b| {
        b.iter_batched(
            || (packets.clone(), dag.clone()),
            |(mut space, dag)| {
                for &s in &targets {
                    std::hint::black_box(header_localize_with(
                        &mut DstAddrSpace(&mut space),
                        s,
                        &dag,
                    ));
                }
                (space, dag)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Targets: every 250th input range's member set, and their union.
fn ddnf_getmatch_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("ddnf_getmatch_route");
    group.sample_size(10);
    let size = 5_000;
    let ranges = gen_member_ranges(size);
    let policy = campion_ir::RoutePolicy::permit_all("bench");
    let mut routes = RouteSpace::for_policies(&[&policy]);
    let dag = RangeDag::build(&mut routes, &ranges);
    let mut targets: Vec<Bdd> = ranges
        .iter()
        .step_by(250)
        .map(|r| routes.prefix_range_bdd(r))
        .collect();
    let union = targets
        .iter()
        .fold(Bdd::FALSE, |acc, &t| routes.manager.or(acc, t));
    targets.push(union);
    group.throughput(Throughput::Elements(targets.len() as u64));
    group.bench_function(BenchmarkId::from_parameter(size), |b| {
        b.iter_batched(
            || (routes.clone(), dag.clone()),
            |(mut space, dag)| {
                for &s in &targets {
                    std::hint::black_box(header_localize_with(&mut space, s, &dag));
                }
                (space, dag)
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    ddnf_build,
    ddnf_build_route,
    ddnf_getmatch,
    ddnf_getmatch_route
);
criterion_main!(benches);
