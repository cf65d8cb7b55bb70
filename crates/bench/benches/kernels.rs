//! Microbenchmarks of the kernel primitives: bit-line operations, a
//! single kernel pass, the cycle-accurate shift-unit simulation at the
//! headline quadrant size (Qw = 25), the 50x50 grid transpose, the
//! cross-quadrant merge of one 50x50 paper instance and the whole paper
//! plan of it. The imaging stages have their own bench, `imaging`.

use criterion::{criterion_group, criterion_main, Criterion};
use qrm_core::bitline;
use qrm_core::engine::{decompose, kernel_config_for};
use qrm_core::geometry::Axis;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{plan_row_windows, run_pass, KernelOutcome, KernelStrategy, ShiftKernel};
use qrm_core::loading::seeded_rng;
use qrm_core::merge::{merge_outcomes, MergeConfig};
use qrm_core::planner::Planner;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_fpga::shift_unit::{LineJob, ShiftUnit};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(1000));
    group.warm_up_time(std::time::Duration::from_millis(200));

    // bitline suffix shift on a 25-bit quadrant row
    let mut rng = seeded_rng(1);
    let quadrant = AtomGrid::random(25, 25, 0.5, &mut rng);
    group.bench_function("bitline_suffix_shift", |b| {
        let mut bits = quadrant.row_bits(0).to_vec();
        b.iter(|| {
            let mut line = bits.clone();
            if let Some(h) = bitline::lowest_zero_in(&line, 0, 25) {
                bitline::suffix_shift(&mut line, h, 25);
            }
            bits = line.clone();
            line
        })
    });

    // one software kernel pass over a 25x25 quadrant
    let windows = plan_row_windows(&quadrant, KernelStrategy::Greedy, 15, 15);
    group.bench_function("kernel_row_pass_25", |b| {
        b.iter(|| {
            let mut g = quadrant.clone();
            run_pass(&mut g, Axis::Row, &windows, None)
        })
    });

    // the cycle-accurate shift-unit simulation of the same pass
    let jobs: Vec<LineJob> = (0..25)
        .map(|l| LineJob {
            line: l,
            bits: quadrant.row_bits(l).to_vec(),
            window: windows[l],
            enabled: true,
        })
        .collect();
    let unit = ShiftUnit::new(25);
    group.bench_function("shift_unit_sim_25", |b| {
        b.iter(|| unit.run(Axis::Row, &jobs))
    });

    // the 50x50 transpose a merge runs at every pass-axis change
    let (grid, target) = qrm_bench::paper_instance(50, 0);
    let mut transposed = AtomGrid::new(50, 50).expect("50x50 grid");
    group.bench_function("transpose_50", |b| {
        b.iter(|| grid.transpose_into(&mut transposed))
    });

    // the merge of one paper instance's four quadrant outcomes
    let work = decompose(&grid, &target).expect("paper instance decomposes");
    let kernel = ShiftKernel::new(kernel_config_for(&QrmConfig::paper(), &work));
    let outcomes: [KernelOutcome; 4] = work
        .quadrants
        .each_ref()
        .map(|q| kernel.run(q).expect("kernel run"));
    group.bench_function("merge_paper_50", |b| {
        b.iter(|| merge_outcomes(&grid, &work.map, &outcomes, &MergeConfig::default()))
    });

    // the whole paper plan of the same instance: split, kernels, merge
    let planner = QrmScheduler::new(QrmConfig::paper());
    group.bench_function("plan_paper_50", |b| b.iter(|| planner.plan(&grid, &target)));

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
