//! The §3.2 microbenchmark: flat cross-attention aggregation vs
//! hierarchical trees vs linear channel mixing, forward + backward, as the
//! channel count grows — the wall-clock analogue of the paper's Fig. 9
//! memory sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dchag_model::config::{TreeConfig, UnitKind};
use dchag_model::HierarchicalAggregator;
use dchag_tensor::prelude::*;

fn fwd_bwd(channels: usize, tree: TreeConfig) -> f32 {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(7);
    let agg = HierarchicalAggregator::new(&mut store, &mut rng, "agg", channels, tree, 32, 4);
    let x = Tensor::randn([64, channels, 32], 1.0, &mut Rng::new(1));
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, &store);
    let xv = tape.leaf(x);
    let y = agg.forward(&bind, &xv);
    let loss = tape.sum_all(&tape.mul(&y, &y));
    let grads = tape.backward(&loss);
    grads.get(&xv).map(|g| g.at(0)).unwrap_or(0.0)
}

fn bench_aggregation_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregation_fwd_bwd");
    for &channels in &[8usize, 16, 32, 64] {
        for (name, tree) in [
            ("flat-C", TreeConfig::tree0(UnitKind::CrossAttention)),
            ("tree4-C", TreeConfig::tree(4, UnitKind::CrossAttention)),
            ("flat-L", TreeConfig::tree0(UnitKind::Linear)),
            ("tree4-L", TreeConfig::tree(4, UnitKind::Linear)),
        ] {
            g.bench_with_input(BenchmarkId::new(name, channels), &channels, |bench, &ch| {
                bench.iter(|| black_box(fwd_bwd(ch, tree)))
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_aggregation_sweep
}
criterion_main!(benches);
