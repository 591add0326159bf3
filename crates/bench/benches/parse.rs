//! Criterion bench for the configuration front end (§5.4 reports Batfish
//! parse time comparable to SemanticDiff at 10 000 rules; this measures our
//! parse + lower on the same generated inputs). Each row also prints its
//! median throughput in MB/s of configuration text. The `prefix_list`
//! group parses and lowers one Cisco prefix list of growing length behind
//! a route map, so it shows whether that path scales linearly.

use std::fmt::Write;

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

/// A Cisco config with one `entries`-entry prefix list, in sequence
/// order, matched by a one-clause route map.
fn prefix_list_config(entries: usize) -> String {
    let mut text = String::from("hostname r\n");
    for i in 0..entries {
        let (hi, lo) = (i / 256, i % 256);
        let seq = (i + 1) * 5;
        writeln!(
            text,
            "ip prefix-list BIG seq {seq} permit 10.{hi}.{lo}.0/24"
        )
        .expect("write");
    }
    text.push_str("route-map RM permit 10\n match ip address prefix-list BIG\n");
    text
}

fn prefix_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_list");
    group.sample_size(10);
    for entries in [1000usize, 5000, 20000] {
        let text = prefix_list_config(entries);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_with_input(BenchmarkId::new("cisco", entries), &text, |b, text| {
            b.iter(|| {
                let r = lower(&parse_config(text).expect("valid")).expect("lowerable");
                std::hint::black_box(r.policies.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, parse_and_lower, prefix_list);
criterion_main!(benches);
