//! Criterion bench for Fig. 7(b): analysis time of all rearrangement
//! planners on the 20x20 benchmark setting.

use criterion::{criterion_group, criterion_main, Criterion};
use qrm_baselines::{Mta1Scheduler, PscaScheduler, TetrisScheduler};
use qrm_bench::paper_instance;
use qrm_core::scheduler::{Planner, QrmConfig, QrmScheduler};
use qrm_core::typical::TypicalScheduler;
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};

fn bench_fig7b(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_20x20");
    group.sample_size(15);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let (grid, target) = paper_instance(20, 7);

    let qrm = QrmScheduler::new(QrmConfig::paper());
    group.bench_function("qrm_cpu", |b| {
        b.iter(|| qrm.plan(&grid, &target).expect("plan"))
    });
    let typical = TypicalScheduler::default();
    group.bench_function("typical", |b| {
        b.iter(|| typical.plan(&grid, &target).expect("plan"))
    });
    let tetris = TetrisScheduler::default();
    group.bench_function("tetris", |b| {
        b.iter(|| tetris.plan(&grid, &target).expect("plan"))
    });
    let psca = PscaScheduler::default();
    group.bench_function("psca", |b| {
        b.iter(|| psca.plan(&grid, &target).expect("plan"))
    });
    let mta1 = Mta1Scheduler::default();
    group.bench_function("mta1", |b| {
        b.iter(|| mta1.plan(&grid, &target).expect("plan"))
    });
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    group.bench_function("fpga_sim", |b| {
        b.iter(|| accel.run(&grid, &target).expect("run"))
    });
    group.finish();
}

criterion_group!(benches, bench_fig7b);
criterion_main!(benches);
