//! Ablation of the Algorithm 3 communication–computation overlap: the
//! protected parallel scheme with blocking vs pipelined transposes, at two
//! network latencies. The overlap's win grows with the latency it hides.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftfft::prelude::*;

fn bench(c: &mut Criterion) {
    let n = 1 << 18;
    let p = 2;
    let mut group = c.benchmark_group("ablation_overlap");
    group.sample_size(10);
    let nets: &[(&str, NetworkModel)] = &[
        (
            "lowlat",
            NetworkModel { latency: Duration::from_micros(5), per_word: Duration::from_nanos(2) },
        ),
        ("cluster", NetworkModel::cluster()),
    ];
    for (net_label, net) in nets {
        for scheme in [ParallelScheme::FtFftw, ParallelScheme::OptFtFftw] {
            let plan = ParallelFft::new(n, p, scheme, Some(*net), 3);
            let x = uniform_signal(n, 42);
            let id = format!("{net_label}/{}", scheme.label());
            group.bench_function(BenchmarkId::from_parameter(id), |b| {
                b.iter(|| {
                    let (out, _) = plan.run(&x, &NoFaults);
                    std::hint::black_box(out);
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
