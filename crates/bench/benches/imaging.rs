//! Microbenchmarks of the synthetic imaging stages at the closed loop's
//! geometry: one 50×50 array at fill 0.55, pitch 6 px and margin 4 px
//! (a 303×303-pixel frame), default imaging regime.
//!
//! * `render_50` — [`render`]: spots, background and read noise.
//! * `detect_50` — [`Detector::detect`] on one rendered frame.

use criterion::{criterion_group, criterion_main, Criterion};
use qrm_core::grid::AtomGrid;
use qrm_core::loading::seeded_rng;
use qrm_vision::prelude::{render, Detector, ImagingConfig, TrapLayout};

fn bench_imaging(c: &mut Criterion) {
    let mut group = c.benchmark_group("imaging");
    group.sample_size(30);
    group.measurement_time(std::time::Duration::from_millis(1500));
    group.warm_up_time(std::time::Duration::from_millis(300));

    let truth = AtomGrid::random(50, 50, 0.55, &mut seeded_rng(1));
    let layout = TrapLayout::new(50, 50, 6.0, 4.0);
    let imaging = ImagingConfig::default();
    let mut frame_rng = seeded_rng(2);
    group.bench_function("render_50", |b| {
        b.iter(|| render(&truth, &layout, &imaging, &mut frame_rng))
    });
    let frame = render(&truth, &layout, &imaging, &mut seeded_rng(2));
    let detector = Detector::default();
    group.bench_function("detect_50", |b| b.iter(|| detector.detect(&frame, &layout)));

    group.finish();
}

criterion_group!(benches, bench_imaging);
criterion_main!(benches);
