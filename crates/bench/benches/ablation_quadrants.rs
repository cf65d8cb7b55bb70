//! Ablation E-x2 (software side): quadrant-decomposed QRM planning vs
//! the whole-array typical procedure on identical instances. The
//! hardware-side 4x parallelism ablation (modelled cycles) is printed by
//! `experiments -- ablations`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrm_bench::paper_instance;
use qrm_core::scheduler::{Planner, QrmConfig, QrmScheduler};
use qrm_core::typical::TypicalScheduler;

fn bench_quadrants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_quadrants");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let qrm = QrmScheduler::new(QrmConfig::paper());
    let typical = TypicalScheduler::default();
    for size in [20usize, 40] {
        let (grid, target) = paper_instance(size, 4000 + size as u64);
        group.bench_with_input(BenchmarkId::new("qrm_quadrants", size), &size, |b, _| {
            b.iter(|| qrm.plan(&grid, &target).expect("plan"))
        });
        group.bench_with_input(BenchmarkId::new("typical_whole", size), &size, |b, _| {
            b.iter(|| typical.plan(&grid, &target).expect("plan"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quadrants);
criterion_main!(benches);
