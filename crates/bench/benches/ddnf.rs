//! Microbench for header localization (§3.2), isolated from parsing and
//! the diff engine:
//!
//! * `ddnf_build`: `RangeDag::build` over 10²–10⁴ input ranges. The
//!   builder closes the input set under intersection, deduplicates by
//!   denoted set, and wires cover edges, all decided structurally on
//!   `(bits, len, lo-hi)` through a first-octet-bucketed prefix trie. It
//!   encodes no BDD: node sets are materialized later, by the queries that
//!   read them. A regression here is a builder regression and not a parser
//!   or SemanticDiff one.
//! * `ddnf_getmatch`: fixed targets localized against the 10⁴-range DAG,
//!   reported as GetMatch calls/s. Every sample starts from a fresh
//!   snapshot of the unmaterialized DAG, so it pays the lazy encodes a
//!   pair's queries pay, not just memo hits.
//!
//! Inputs are generated with a fixed-seed LCG and squeezed into four first
//! octets so the closure produces real intersections instead of a forest
//! of disjoint blocks.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};

use campion_bdd::Bdd;
use campion_core::{header_localize_with, DstAddrSpace, RangeDag};
use campion_net::{Prefix, PrefixRange};
use campion_symbolic::PacketSpace;

/// `n` deterministic or-longer ranges over a crowded corner of the
/// address space (fixed-seed LCG; no `rand` dependency).
fn gen_ranges(n: usize) -> Vec<PrefixRange> {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let len = 8 + ((x >> 59) % 17) as u8;
        let octet = 10 + ((x >> 32) & 0x3) as u32;
        let bits = (octet << 24) | (x as u32 & 0x00FF_FFFF);
        out.push(PrefixRange::or_longer(Prefix::new(bits.into(), len)));
    }
    out
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
                let nodes = dag.len();
                dag.release(&mut packets.manager);
                std::hint::black_box(nodes)
            })
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

criterion_group!(benches, ddnf_build, ddnf_getmatch);
criterion_main!(benches);
