//! Criterion bench for the parallel planning engine: serial mapped
//! `plan` vs batched `plan_batch` on the acceptance workload (100x100
//! array, 16-shot batch) plus a smaller 50x50 batch.
//!
//! On a multi-core host the parallel rows beat the serial baseline (the
//! software analogue of the paper's four parallel QPMs); on a
//! single-core host they measure the engine's queueing overhead. Either
//! way the plans are bit-identical — see `tests/engine_parallel.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrm_bench::engine_workload;
use qrm_core::engine::PlanEngine;
use qrm_core::scheduler::{Planner, QrmConfig, QrmScheduler};

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(2000));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for (size, shots) in [(50usize, 8usize), (100, 16)] {
        let jobs = engine_workload(size, shots);
        let label = format!("{size}x{size}x{shots}");

        let serial = QrmScheduler::new(QrmConfig::default());
        group.bench_with_input(BenchmarkId::new("serial_plan", &label), &jobs, |b, jobs| {
            b.iter(|| {
                jobs.iter()
                    .map(|(g, t)| serial.plan(g, t).expect("plan"))
                    .collect::<Vec<_>>()
            })
        });

        for workers in [2usize, 4, cores] {
            let engine = PlanEngine::new(QrmConfig::default()).with_workers(workers);
            group.bench_with_input(
                BenchmarkId::new(format!("plan_batch_w{workers}"), &label),
                &jobs,
                |b, jobs| b.iter(|| engine.plan_batch(jobs).expect("plan")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
