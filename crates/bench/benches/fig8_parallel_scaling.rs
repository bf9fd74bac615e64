//! Criterion companion to Fig 8: the four parallel schemes at one size and
//! rank count, with the calibrated network model. The `fig8` binary prints
//! the paper-style scaling series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftfft::prelude::*;

fn bench(c: &mut Criterion) {
    let n = 1 << 18;
    let p = 2;
    let mut group = c.benchmark_group("fig8_parallel_scaling");
    group.sample_size(10);
    for scheme in ParallelScheme::ALL {
        let plan = ParallelFft::new(n, p, scheme, Some(NetworkModel::cluster()), 3);
        let x = uniform_signal(n, 42);
        group.bench_function(BenchmarkId::from_parameter(scheme.label()), |b| {
            b.iter(|| {
                let (out, rep) = plan.run(&x, &NoFaults);
                assert_eq!(rep.uncorrectable, 0);
                std::hint::black_box(out);
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
