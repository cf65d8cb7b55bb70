//! Ablation E-x3: planning cost with and without cross-quadrant command
//! merging (the schedule-length effect is printed by
//! `experiments -- ablations`).

use criterion::{criterion_group, criterion_main, Criterion};
use qrm_bench::paper_instance;
use qrm_core::scheduler::{Planner, QrmConfig, QrmScheduler};

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_merge_50x50");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_millis(1200));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let (grid, target) = paper_instance(50, 11);
    let merged = QrmScheduler::new(QrmConfig::default().with_merge_quadrants(true));
    let unmerged = QrmScheduler::new(QrmConfig::default().with_merge_quadrants(false));
    group.bench_function("merge_on", |b| {
        b.iter(|| merged.plan(&grid, &target).expect("plan"))
    });
    group.bench_function("merge_off", |b| {
        b.iter(|| unmerged.plan(&grid, &target).expect("plan"))
    });
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
