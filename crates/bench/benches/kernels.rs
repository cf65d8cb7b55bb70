//! Microbenchmarks of the kernel primitives: bit-line operations, a
//! single kernel pass, the cycle-accurate shift-unit simulation at the
//! headline quadrant size (Qw = 25), the cross-quadrant merge of one
//! 50x50 paper instance, and the synthetic imaging of that instance
//! (frame rendering and atom detection, default imaging regime).

use criterion::{criterion_group, criterion_main, Criterion};
use qrm_core::bitline;
use qrm_core::engine::{decompose, kernel_config_for};
use qrm_core::geometry::Axis;
use qrm_core::grid::AtomGrid;
use qrm_core::kernel::{plan_row_windows, run_pass, KernelOutcome, KernelStrategy, ShiftKernel};
use qrm_core::loading::seeded_rng;
use qrm_core::merge::{merge_outcomes, MergeConfig};
use qrm_core::scheduler::QrmConfig;
use qrm_fpga::shift_unit::{LineJob, ShiftUnit};
use qrm_vision::prelude::{render, Detector, ImagingConfig, TrapLayout};

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

    // the merge of one paper instance's four quadrant outcomes
    let (grid, target) = qrm_bench::paper_instance(50, 0);
    let work = decompose(&grid, &target).expect("paper instance decomposes");
    let kernel = ShiftKernel::new(kernel_config_for(&QrmConfig::paper(), &work));
    let outcomes: [KernelOutcome; 4] = work
        .quadrants
        .each_ref()
        .map(|q| kernel.run(q).expect("kernel run"));
    group.bench_function("merge_paper_50", |b| {
        b.iter(|| merge_outcomes(&grid, &work.map, &outcomes, &MergeConfig::default()))
    });

    // one camera frame of the same instance, at the pipeline's geometry
    let layout = TrapLayout::new(50, 50, 6.0, 4.0);
    let imaging = ImagingConfig::default();
    let mut frame_rng = seeded_rng(2);
    group.bench_function("vision_render_50", |b| {
        b.iter(|| render(&grid, &layout, &imaging, &mut frame_rng))
    });
    let frame = render(&grid, &layout, &imaging, &mut seeded_rng(2));
    group.bench_function("vision_detect_50", |b| {
        b.iter(|| Detector::default().detect(&frame, &layout))
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
