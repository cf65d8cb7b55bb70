//! Adversarial-schedule determinism of the shot-level dataflow
//! scheduler (`qrm_core::engine::dataflow` driving
//! `Pipeline::run_batch`).
//!
//! Each shot advances through its own observe → plan → execute task
//! chain, planning is group-formation on readiness, and a fast shot may
//! run round `k + 1` while a slow shot is still planning round `k`.
//! The determinism argument (docs/ARCHITECTURE.md, "Shot-level
//! dataflow") is that per-shot RNG streams and the `plan_batch ==
//! mapped plan` planner contract make the schedule unobservable in the
//! reports. This suite attacks that argument directly: it *injects
//! stragglers* — forced stalls of chosen shots at chosen stages of
//! chosen rounds, via the `test-hooks`-only
//! `PipelineConfig::debug_stage_delay` — and asserts the reports stay
//! bit-identical to the serial inline path for any delay placement and
//! any worker count, for every planner.
//!
//! Run under `QRM_POOL_THREADS ∈ {2, 8}` by the CI `dataflow-stress`
//! job, so real preemption gets a chance to reorder tasks too.

use atom_rearrange::prelude::*;
use proptest::prelude::*;
use qrm_bench::planner_choices;
use qrm_control::pipeline::{BatchRun, DelayStage, StageDelay, Zone};

fn truths(shots: usize, size: usize, fill: f64, seed: u64) -> Vec<AtomGrid> {
    let mut rng = qrm_core::loading::seeded_rng(seed);
    (0..shots)
        .map(|_| AtomGrid::random(size, size, fill, &mut rng))
        .collect()
}

fn pipeline_for(choice: &PlannerChoice, workers: usize, delays: Vec<StageDelay>) -> Pipeline {
    Pipeline::new(PipelineConfig {
        planner: choice.clone(),
        workers,
        // Transport loss exercises the executor's RNG draws — the part
        // of a round most sensitive to a cross-shot stream mixup under
        // a reordered schedule.
        loss_prob: 0.01,
        max_rounds: 3,
        debug_stage_delay: delays,
        ..PipelineConfig::default()
    })
}

/// One adversarial placement: every (shot, stage) pair of round `round`
/// is a candidate straggler; `mask` picks a subset.
fn delays_from_mask(shots: usize, round: usize, mask: u32, millis: u64) -> Vec<StageDelay> {
    let stages = [DelayStage::Observe, DelayStage::Plan, DelayStage::Execute];
    let mut delays = Vec::new();
    for shot in 0..shots {
        for (j, &stage) in stages.iter().enumerate() {
            if mask & (1 << (shot * stages.len() + j)) != 0 {
                delays.push(StageDelay {
                    shot,
                    round,
                    stage,
                    millis,
                });
            }
        }
    }
    delays
}

/// The four determinism legs' straggler extension, all seven planners:
/// a fixed adversarial placement (the batch's *first* shot stalls at
/// every stage of every round, so every other shot runs ahead) must
/// leave reports bit-identical to the undelayed single-worker run at
/// workers ∈ {1, 2, 4, 8}.
#[test]
fn straggling_lead_shot_never_changes_reports_for_any_planner() {
    let truths = truths(3, 12, 0.6, 1501);
    let target = Rect::centered(12, 12, 6, 6).unwrap();
    let straggler: Vec<StageDelay> = (0..3)
        .flat_map(|round| {
            [DelayStage::Observe, DelayStage::Plan, DelayStage::Execute]
                .into_iter()
                .map(move |stage| StageDelay {
                    shot: 0,
                    round,
                    stage,
                    millis: 2,
                })
        })
        .collect();
    for (name, choice) in planner_choices() {
        let baseline = pipeline_for(&choice, 1, Vec::new())
            .run_batch(&truths, &target, 271)
            .unwrap();
        for workers in [1usize, 2, 4, 8] {
            let delayed = pipeline_for(&choice, workers, straggler.clone())
                .run_batch(&truths, &target, 271)
                .unwrap();
            assert_eq!(
                delayed, baseline,
                "{name}: straggling shot 0 at workers={workers} changed reports"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any delay placement (subset of (shot, stage) pairs in a random
    /// round, random stall length) at any worker count reports
    /// bit-identically to the serial inline path with no delays.
    #[test]
    fn any_straggler_schedule_is_bit_identical_to_serial(
        mask in 0u32..512,          // 3 shots x 3 stages = 9 candidate bits
        round in 0usize..3,
        millis in 1u64..3,
        workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 8][workers_idx];
        let truths = truths(3, 12, 0.6, 1502);
        let target = Rect::centered(12, 12, 6, 6).unwrap();
        let (_, choice) = planner_choices().remove(0);
        let baseline = pipeline_for(&choice, 1, Vec::new())
            .run_batch(&truths, &target, 626)
            .unwrap();
        let delays = delays_from_mask(3, round, mask, millis);
        let delayed = pipeline_for(&choice, workers, delays)
            .run_batch(&truths, &target, 626)
            .unwrap();
        prop_assert_eq!(delayed, baseline);
    }
}

/// The dataflow scheduler on heterogeneous per-shot targets
/// (`run_shots_with`, the workload shape the skewed benchmark uses)
/// agrees bit-for-bit with running each shot alone through the serial
/// `run` loop with its derived RNG.
#[test]
fn dataflow_shots_match_serial_runs_on_heterogeneous_targets() {
    let mut rng = qrm_core::loading::seeded_rng(88);
    let jobs: Vec<(AtomGrid, Rect)> = [(16usize, 8usize), (12, 6), (16, 10), (12, 4)]
        .iter()
        .map(|&(size, side)| {
            (
                AtomGrid::random(size, size, 0.65, &mut rng),
                Rect::centered(size, size, side, side).unwrap(),
            )
        })
        .collect();
    let (_, choice) = planner_choices().remove(0);
    let planner = choice.resolve(4);
    let pipeline = pipeline_for(&choice, 4, Vec::new());

    let dataflow: BatchRun = pipeline.run_shots_with(&*planner, &jobs, 909).unwrap();
    assert_eq!(dataflow.reports.len(), jobs.len());
    for (i, (truth, target)) in jobs.iter().enumerate() {
        let single = pipeline
            .run(truth, target, &mut Pipeline::shot_rng(909, i))
            .unwrap();
        assert_eq!(
            dataflow.reports[i], single,
            "shot {i}: scheduler leaked into reports"
        );
    }

    // Counter sanity: every shot was planned at least once, the task
    // count covers each shot's observe/plan/execute chain plus its
    // terminal observe, and completion stamps exist for every shot.
    let stats = dataflow.stats;
    assert!(stats.planned_shots >= jobs.len() as u64);
    assert!(stats.plan_groups >= 1);
    assert!(stats.tasks_dispatched > 2 * stats.planned_shots);
    assert_eq!(dataflow.completion_us.len(), jobs.len());
    assert!(dataflow.completion_us.iter().all(|&us| us > 0.0));
}

/// At one worker the scheduler takes the inline path: singleton plan
/// groups, in shot order — `plan_groups == planned_shots`.
#[test]
fn inline_path_plans_singleton_groups() {
    let truths = truths(2, 12, 0.6, 1601);
    let target = Rect::centered(12, 12, 6, 6).unwrap();
    let (_, choice) = planner_choices().remove(0);
    let pipeline = pipeline_for(&choice, 1, Vec::new());
    let planner = choice.resolve(1);
    let zones = [Zone::full_array(12, 12, target)];
    let run = pipeline
        .run_batch_zones_tracked(&*planner, &truths, &zones, 33)
        .unwrap();
    assert_eq!(run.stats.plan_groups, run.stats.planned_shots);
    assert!(run.stats.plan_groups >= truths.len() as u64);
    assert_eq!(run.stats.rounds_overlapped, 0);
    assert_eq!(run.stats.max_shot_lag, 0);
}
