//! `analysis_50`: the paper's measurement scope. One caller runs QRM's
//! `Planner::plan` (`QrmConfig::paper()`) over a cycled, fixed set of
//! 50×50 instances from `qrm_bench::paper_instance`, the generator the
//! `headline` and `fig7a` experiments use. Vision, server and network do
//! no work here; the kernels and the merge do nearly all of it.
//!
//! The window cycles over the first [`TIMED`] instances, so each is
//! planned many times, and an instance's latency is the fastest of its
//! plans. Planning an instance is the same work every time, but on a
//! shared host the same plan takes up to 1.7× longer for spells of
//! seconds to minutes, and whole 20 s windows can fall in such a spell.
//! Even then about one plan in ten runs at full speed, so the fastest
//! of ~70 plans of an instance does not depend on how much of the
//! window a spell covered, as the median of all plans does. It still
//! follows slower drifts of the host's full speed between runs.

use std::time::{Duration, Instant};

use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::planner::Planner;
use qrm_core::scheduler::{Plan, QrmConfig, QrmScheduler};
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};

use crate::trace::{save_spans, Layers, Tracer};
use crate::{
    item_seed, motion_us, pool_layers, timed_setups, us_since, Args, Outcome, Phase, Quality,
    Window,
};

const SIZE: usize = 50;
/// Distinct instances. The deterministic metrics cover all of them: at
/// the paper kernel's ≈10% fill rate this many keeps the seed-to-seed
/// spread of `fill_rate` near 5%.
const SET: usize = 4096;
/// Instances the accelerator model runs on; its mean latency varies far
/// less between instances than the fill rate does.
const FPGA_SET: usize = 256;
/// Instances the measured window cycles over: few enough that each is
/// planned ~70 times in a 20 s window, enough that their median and
/// 90th percentile have 25 instances beyond them.
const TIMED: usize = 256;

struct Setup {
    planner: QrmScheduler,
    instances: Vec<(AtomGrid, Rect)>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let instances: Vec<_> = (0..SET as u64)
        .map(|i| qrm_bench::paper_instance(SIZE, item_seed(seed, i)))
        .collect();
    let planner = QrmScheduler::new(QrmConfig::paper());
    // One plan warms the planner's context pool.
    let (grid, target) = &instances[0];
    Planner::plan(&planner, grid, target).map_err(|e| format!("warm-up plan: {e}"))?;
    Ok(Setup { planner, instances })
}

/// What every plan of an instance must reproduce: its predicted grid
/// and schedule length (whole plans of the set would take ~200 MB).
type Fingerprint = (AtomGrid, usize);

fn fingerprint(plan: &Plan) -> Fingerprint {
    (plan.predicted.clone(), plan.schedule.len())
}

/// Plans the first [`TIMED`] instances round-robin until `window`
/// passes, and returns the phase with its window reduced to one pass
/// over them at each instance's fastest plan ([`Window::fastest_pass`]).
/// The first plan of each instance leaves its fingerprint; every later
/// plan of it must match. With a tracer, each plan is a `core.plan`
/// span and the same instance's kernel pass
/// (`QrmScheduler::quadrant_outcomes`, the paper's CPU scope) a
/// `core.kernel` span.
fn drive(
    s: &Setup,
    refs: &mut [Option<Fingerprint>],
    window: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let planner: &dyn Planner = &s.planner;
    let mut phase = Phase::default();
    let mut fastest_us = [f64::INFINITY; TIMED];
    let start = Instant::now();
    while start.elapsed() < window {
        let index = phase.attempted as usize % TIMED;
        let (grid, target) = &s.instances[index];
        let request = phase.attempted;
        phase.attempted += 1;
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => t.span(request, "core.plan", "request", || {
                planner.plan(grid, target)
            }),
            None => planner.plan(grid, target),
        };
        let us = us_since(t0);
        if let Some(t) = tracer.as_deref_mut() {
            let kernel = t.span(request, "core.kernel", "core.plan", || {
                s.planner.quadrant_outcomes(grid, target)
            });
            phase.failed += u64::from(kernel.is_err());
        }
        let Ok(plan) = result else {
            phase.failed += 1;
            continue;
        };
        fastest_us[index] = fastest_us[index].min(us);
        let print = fingerprint(&plan);
        match &refs[index] {
            Some(reference) => phase.failed += u64::from(*reference != print),
            None => refs[index] = Some(print),
        }
    }
    phase.window = Window::fastest_pass(&fastest_us);
    phase
}

/// Runs the workload; see the module docs.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (s, setup_s) = timed_setups(|| setup(args.seed))?;
    let mut tracer = Tracer::new(Instant::now());
    let mut refs: Vec<Option<Fingerprint>> = vec![None; SET];
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };

    let pool_before = rayon::global_pool_stats();
    let base = drive(
        &s,
        &mut refs,
        if args.trace {
            args.window / 2
        } else {
            args.window
        },
        None,
    );
    let pool_after = rayon::global_pool_stats();
    let traced = args
        .trace
        .then(|| drive(&s, &mut refs, args.window / 2, Some(&mut tracer)));
    for phase in std::iter::once(&base).chain(&traced) {
        out.attempted += phase.attempted;
        out.failed += phase.failed;
    }
    out.shots_per_request = 1;

    // Correctness and quality over the whole fixed set, whatever the
    // window reached: each instance is planned again, must match its
    // fingerprint, and its schedule must run under the planner's own
    // executor and reproduce the predicted grid.
    let planner: &dyn Planner = &s.planner;
    let executor = planner.executor();
    let mut quality = Quality::default();
    for (index, (reference, (grid, target))) in refs.iter().zip(&s.instances).enumerate() {
        let request = index as u64;
        let plan = planner
            .plan(grid, target)
            .map_err(|e| format!("plan: {e}"))?;
        out.failed += u64::from(reference.as_ref().is_some_and(|r| *r != fingerprint(&plan)));
        let executed = tracer
            .span(request, "core.executor", "check", || {
                executor.run(grid, &plan.schedule)
            })
            .map_err(|e| format!("execute: {e}"))?;
        out.failed += u64::from(executed.final_grid != plan.predicted);
        let filled = executed
            .final_grid
            .is_filled(target)
            .map_err(|e| e.to_string())?;
        let motion = tracer
            .span(request, "control.awg", "check", || {
                motion_us(&plan.schedule)
            })
            .map_err(|e| format!("compile: {e}"))?;
        quality.add_plan(filled, plan.schedule.len(), motion);
    }
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    for (index, (grid, target)) in s.instances.iter().take(FPGA_SET).enumerate() {
        let report = tracer
            .span(index as u64, "fpga.model", "check", || {
                accel.run(grid, target)
            })
            .map_err(|e| format!("accelerator model: {e}"))?;
        quality.add_fpga(&report);
    }

    if let Some(traced) = traced {
        let mut layers = Layers::new();
        let plan_us = tracer.mean_us("core.plan");
        let kernel_us = tracer.mean_us("core.kernel");
        layers.set("core.plan.us", plan_us);
        layers.set("core.kernel.us", kernel_us);
        layers.set("core.merge.self_us", plan_us - kernel_us);
        layers.set("core.executor.us", tracer.mean_us("core.executor"));
        layers.set("control.awg.us", tracer.mean_us("control.awg"));
        quality.set_layers(&mut layers, &tracer);
        pool_layers(&mut layers, &pool_before, &pool_after, base.attempted);
        layers.set_path(vec![
            ("core.kernel", kernel_us),
            ("core.merge.self", plan_us - kernel_us),
        ]);
        layers.set_overhead(&traced.window, &base.window);
        layers.set("trace.requests", traced.attempted as f64);
        save_spans(&tracer, args, &mut layers)?;
        out.layers = Some(layers);
    }
    out.window = base.window;
    out.quality = quality;
    Ok(out)
}
