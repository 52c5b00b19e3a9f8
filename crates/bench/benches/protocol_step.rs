//! Cost of a single protocol active step in isolation (no engine, no
//! membership): the marginal CPU a node spends per period.
//!
//! This isolates the algorithmic difference the paper discusses: mod-JK's
//! gain maximization is O(c log c) against JK's O(c) scan, and the ranking
//! algorithm's per-neighbor sample folding plus boundary search.
//!
//! `robust_admit` times one outlier-robust admission decision
//! (`RobustFilter::admit` on a full window), which the defended ranking
//! variants pay once per gossiped sample.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dslice_algorithms::{Ordering, Ranking, RobustFilter};
use dslice_core::protocol::{MockContext, SliceProtocol};
use dslice_core::{Attribute, NodeId, Partition, View, ViewEntry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn view(c: usize, seed: u64) -> View {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v = View::new(c).unwrap();
    for i in 0..c {
        v.insert(ViewEntry::new(
            NodeId::new(i as u64 + 10),
            Attribute::new(rng.gen_range(0.0..1e6)).unwrap(),
            rng.gen_range(0.0001..1.0),
        ));
    }
    v
}

fn bench_active_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_active_step");
    let part = Partition::equal(100).unwrap();
    for &vs in &[10usize, 20, 40] {
        let v = view(vs, 3);
        group.bench_with_input(BenchmarkId::new("jk", vs), &v, |b, v| {
            let mut node = Ordering::jk(NodeId::new(1), Attribute::new(5e5).unwrap(), 0.5);
            let mut ctx = MockContext::new(StdRng::seed_from_u64(4));
            b.iter(|| {
                node.on_active(v, &mut ctx);
                ctx.sent.clear();
            });
        });
        group.bench_with_input(BenchmarkId::new("mod-jk", vs), &v, |b, v| {
            let mut node = Ordering::mod_jk(NodeId::new(1), Attribute::new(5e5).unwrap(), 0.5);
            let mut ctx = MockContext::new(StdRng::seed_from_u64(5));
            b.iter(|| {
                node.on_active(v, &mut ctx);
                ctx.sent.clear();
            });
        });
        group.bench_with_input(BenchmarkId::new("ranking", vs), &v, |b, v| {
            let mut node = Ranking::new(
                NodeId::new(1),
                Attribute::new(5e5).unwrap(),
                0.5,
                part.clone(),
            );
            let mut ctx = MockContext::new(StdRng::seed_from_u64(6));
            b.iter(|| {
                node.on_active(v, &mut ctx);
                ctx.sent.clear();
                ctx.events.clear();
            });
        });
    }
    group.finish();
}

fn bench_robust_admit(c: &mut Criterion) {
    let mut group = c.benchmark_group("robust_admit");
    // An honest spread with a far outlier every 17th sample, cycled so the
    // window keeps turning over.
    let mut rng = StdRng::seed_from_u64(7);
    let stream: Vec<f64> = (0..4096)
        .map(|i| {
            let v = rng.gen_range(0.0..1e3);
            if i % 17 == 0 {
                v * 1e3
            } else {
                v
            }
        })
        .collect();
    for &w in &[64usize, 128] {
        let cases = [
            ("fence", RobustFilter::new(w)),
            ("trim", RobustFilter::trimmed(w, 0.1)),
            ("fence-trim", RobustFilter::fenced_trimmed(w, 0.1)),
        ];
        for (name, mut filter) in cases {
            group.bench_with_input(BenchmarkId::new(name, w), &stream, move |b, stream| {
                for &v in &stream[..w] {
                    filter.admit(v);
                }
                let mut i = w;
                b.iter(|| {
                    let admitted = filter.admit(stream[i % stream.len()]);
                    i += 1;
                    black_box(admitted)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_active_step, bench_robust_admit);
criterion_main!(benches);
