//! Criterion bench for the configuration front end (§5.4 reports Batfish
//! parse time comparable to SemanticDiff at 10 000 rules; this measures our
//! parse + lower on the same generated inputs). Each row also prints its
//! median throughput in MB/s of configuration text.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use campion_cfg::parse_config;
use campion_gen::capirca_acl_pair;
use campion_ir::lower;

fn parse_and_lower(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse");
    group.sample_size(10);
    for size in [100usize, 1000, 5000, 10000] {
        let (cisco, juniper) = capirca_acl_pair(size, 10.min(size / 2), 0xC0FFEE + size as u64);
        for (vendor, text) in [("cisco", &cisco), ("juniper", &juniper)] {
            group.throughput(Throughput::Bytes(text.len() as u64));
            group.bench_with_input(BenchmarkId::new(vendor, size), text, |b, text| {
                b.iter(|| {
                    let r = lower(&parse_config(text).expect("valid")).expect("lowerable");
                    std::hint::black_box(r.acls.len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, parse_and_lower);
criterion_main!(benches);
