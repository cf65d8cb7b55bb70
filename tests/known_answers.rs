//! Known-answer tests: checked-in FNV-64 hashes of the deterministic
//! fields of plans on fixed instances.
//!
//! The determinism and equivalence suites are *relative* (workers vs
//! serial, FPGA model vs software kernel); a change that moves every
//! configuration the same way passes them all. These hashes pin the
//! absolute answer instead: any rewrite of the kernel, the merge or the
//! AOD batcher that changes a single move, a predicted grid word, the
//! fill flag or the iteration count fails here.
//!
//! A plan's hash covers, in order: every move's rows, columns and
//! `(dr, dc)`; every word of the predicted grid; `filled`; `iterations`.
//! Accelerator cases hash only the schedule of `QrmAccelerator::run`.
//!
//! Two report-level families pin the closed loop around the planners:
//!
//! * `imaging/…` hashes a rendered frame's pixel bits, the detected
//!   grid's words, the threshold and signal bits, and the next word of
//!   the RNG stream after the frame — so a rewrite of `render` or
//!   `Detector::detect` that changes one pixel, one decision or the
//!   number of random draws fails here.
//! * `service/…` hashes the JSON encodings of a `PlanService::submit`
//!   response's `reports` and `trace` (never its `wall_us`) for the
//!   `qrm` and `fpga` planners under every `Scenario` variant.
//!
//! The fixture `tests/fixtures/known_answers.txt` was produced by
//! [`regenerate_known_answers`] and frozen. Regenerating it is a
//! deliberate change of planner output and must be declared as such in
//! the change that commits it.

use std::collections::BTreeMap;

use atom_rearrange::prelude::*;
use qrm_bench::{paper_instance, planner_matrix};
use qrm_core::scheduler::Plan;
use qrm_server::Scenario;
use rand::RngCore;

const FIXTURE: &str = include_str!("fixtures/known_answers.txt");

/// 64-bit FNV-1a.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn isize(&mut self, v: isize) {
        self.bytes(&(v as i64).to_le_bytes());
    }

    fn schedule(&mut self, schedule: &Schedule) {
        self.usize(schedule.len());
        for mv in schedule {
            self.usize(mv.rows().len());
            mv.rows().iter().for_each(|&r| self.usize(r));
            self.usize(mv.cols().len());
            mv.cols().iter().for_each(|&c| self.usize(c));
            let (dr, dc) = mv.delta();
            self.isize(dr);
            self.isize(dc);
        }
    }

    fn grid(&mut self, grid: &AtomGrid) {
        self.usize(grid.height());
        self.usize(grid.width());
        for r in 0..grid.height() {
            grid.row_bits(r).iter().for_each(|&w| self.u64(w));
        }
    }
}

fn plan_hash(plan: &Plan) -> u64 {
    let mut h = Fnv64::new();
    h.schedule(&plan.schedule);
    h.grid(&plan.predicted);
    h.bytes(&[u8::from(plan.filled)]);
    h.usize(plan.iterations);
    h.0
}

/// The four QRM configurations every instance is planned under.
fn qrm_configs() -> [(&'static str, QrmConfig); 4] {
    [
        ("paper", QrmConfig::paper()),
        ("default", QrmConfig::default()),
        (
            "target_only",
            QrmConfig::paper().with_strategy(KernelStrategy::GreedyTargetOnly),
        ),
        ("unmerged", QrmConfig::paper().with_merge_quadrants(false)),
    ]
}

/// `count` uniformly loaded `size x size` grids with a centred
/// `side x side` target.
fn random_instances(size: usize, side: usize, seed: u64, count: usize) -> Vec<(AtomGrid, Rect)> {
    let mut rng = qrm_core::loading::seeded_rng(seed);
    let target = Rect::centered(size, size, side, side).expect("target fits");
    (0..count)
        .map(|_| (AtomGrid::random(size, size, 0.5, &mut rng), target))
        .collect()
}

type Cases = BTreeMap<String, u64>;

/// QRM under every configuration on the 64 first paper-scale instances.
fn paper_50_cases() -> Cases {
    let mut cases = Cases::new();
    for (name, cfg) in qrm_configs() {
        let planner = QrmScheduler::new(cfg);
        for seed in 0..64u64 {
            let (grid, target) = paper_instance(50, seed);
            let plan = planner.plan(&grid, &target).expect("plan");
            cases.insert(format!("qrm50/{name}/{seed}"), plan_hash(&plan));
        }
    }
    cases
}

/// QRM under every configuration on small random arrays.
fn random_qrm_cases() -> Cases {
    let mut cases = Cases::new();
    for (size, side, seed) in [(16, 10, 1601), (20, 12, 2001)] {
        let instances = random_instances(size, side, seed, 16);
        for (name, cfg) in qrm_configs() {
            let planner = QrmScheduler::new(cfg);
            for (i, (grid, target)) in instances.iter().enumerate() {
                let plan = planner.plan(grid, target).expect("plan");
                cases.insert(format!("qrm{size}/{name}/{i}"), plan_hash(&plan));
            }
        }
    }
    cases
}

/// Every planner of the benchmark matrix (the AOD batcher's other
/// callers among them) on small random arrays.
fn planner_matrix_cases() -> Cases {
    let mut cases = Cases::new();
    let instances = random_instances(16, 10, 1602, 4);
    for planner in planner_matrix() {
        for (i, (grid, target)) in instances.iter().enumerate() {
            let plan = planner.plan(grid, target).expect("plan");
            cases.insert(format!("matrix/{}/{i}", planner.name()), plan_hash(&plan));
        }
    }
    cases
}

/// The accelerator model's schedule on the first 8 paper instances.
fn accelerator_cases() -> Cases {
    let accel = QrmAccelerator::new(AcceleratorConfig::paper());
    let mut cases = Cases::new();
    for seed in 0..8u64 {
        let (grid, target) = paper_instance(50, seed);
        let report = accel.run(&grid, &target).expect("accelerator run");
        let mut h = Fnv64::new();
        h.schedule(&report.plan.schedule);
        cases.insert(format!("fpga50/paper/{seed}"), h.0);
    }
    cases
}

/// Imaging regimes crossed with layouts: the pipeline's own geometry
/// (pitch 6, margin 4) at two sizes, a fractional pitch and margin on a
/// non-square array, and a zero margin whose PSF windows clip the frame
/// edge.
fn imaging_cases() -> Cases {
    let regimes = [
        ("default", ImagingConfig::default()),
        ("low_snr", ImagingConfig::low_snr()),
    ];
    let layouts = [
        ("12", TrapLayout::new(12, 12, 6.0, 4.0), 4u64),
        ("50", TrapLayout::new(50, 50, 6.0, 4.0), 2),
        ("frac", TrapLayout::new(10, 14, 6.5, 4.25), 4),
        ("edge", TrapLayout::new(12, 12, 6.0, 0.0), 4),
    ];
    let mut cases = Cases::new();
    for (regime, config) in regimes {
        for (shape, layout, seeds) in layouts {
            for seed in 0..seeds {
                let mut rng = qrm_core::loading::seeded_rng(0x1a6e + seed);
                let truth = AtomGrid::random(layout.rows(), layout.cols(), 0.55, &mut rng);
                let frame = render(&truth, &layout, &config, &mut rng);
                let report = Detector::default().detect(&frame, &layout).expect("detect");
                let mut h = Fnv64::new();
                h.usize(frame.height());
                h.usize(frame.width());
                for &px in frame.pixels() {
                    h.bytes(&px.to_bits().to_le_bytes());
                }
                h.grid(&report.grid);
                h.u64(report.threshold.to_bits());
                report.signals.iter().for_each(|s| h.u64(s.to_bits()));
                h.u64(rng.next_u64());
                cases.insert(format!("imaging/{regime}/{shape}/{seed}"), h.0);
            }
        }
    }
    cases
}

/// One representative of every [`Scenario`] variant.
fn scenarios() -> [(&'static str, Scenario); 5] {
    [
        ("uniform", Scenario::UniformFill),
        (
            "defects",
            Scenario::DefectMap {
                dead_fraction: 0.15,
            },
        ),
        ("loss", Scenario::AtomLoss { loss_prob: 0.08 }),
        ("zones", Scenario::Zones { rows: 2, cols: 2 }),
        (
            "correlated",
            Scenario::CorrelatedFill {
                grain: 2,
                flip_prob: 0.1,
            },
        ),
    ]
}

/// Traced `PlanService::submit` responses for the `qrm` and `fpga`
/// planners: every scenario, three seeds, 16x16 arrays, two shots.
/// Each case hashes the JSON encodings of `reports` and `trace`.
fn service_cases() -> Cases {
    let base = PipelineConfig {
        workers: 2,
        loss_prob: 0.01,
        max_rounds: 2,
        ..PipelineConfig::default()
    };
    let planners = [
        ("qrm", PlannerChoice::Software(QrmConfig::paper())),
        ("fpga", PlannerChoice::Fpga(AcceleratorConfig::paper())),
    ];
    let mut builder = PlanService::builder();
    for (name, choice) in planners.clone() {
        builder = builder.register(name, choice, base.clone());
    }
    let service = builder.build();
    let mut cases = Cases::new();
    for (planner, _) in planners {
        for (scenario, variant) in scenarios() {
            for seed in [3u64, 17, 92] {
                let spec = BatchSpec::new(2, 16, seed).with_scenario(variant);
                let request = SubmitBatch::new(planner, spec).with_trace(true);
                let report = service.submit(&request).expect("submit");
                let mut h = Fnv64::new();
                h.bytes(report.reports.to_json().as_bytes());
                h.bytes(report.trace.to_json().as_bytes());
                cases.insert(format!("service/{planner}/{scenario}/{seed}"), h.0);
            }
        }
    }
    cases
}

fn fixture() -> Cases {
    FIXTURE
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (name, hash) = l.rsplit_once(' ').expect("`name hash` line");
            let hash = u64::from_str_radix(hash, 16).expect("hex hash");
            (name.to_string(), hash)
        })
        .collect()
}

/// Compares computed cases against the fixture entries with the same
/// family prefix, listing every mismatch.
fn assert_known(prefix: &str, computed: &Cases) {
    let expected: Cases = fixture()
        .into_iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .collect();
    assert!(
        !expected.is_empty(),
        "fixture has no `{prefix}` cases; run `regenerate_known_answers`"
    );
    let mismatched: Vec<&String> = expected
        .keys()
        .chain(computed.keys().filter(|name| name.starts_with(prefix)))
        .filter(|name| expected.get(*name) != computed.get(*name))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(
        mismatched.is_empty(),
        "{} of {} `{prefix}` cases differ from the fixture, e.g. {:?}",
        mismatched.len(),
        expected.len(),
        &mismatched[..mismatched.len().min(8)]
    );
}

#[test]
fn qrm_paper_instances_match_known_answers() {
    assert_known("qrm50/", &paper_50_cases());
}

#[test]
fn qrm_random_instances_match_known_answers() {
    let cases = random_qrm_cases();
    assert_known("qrm16/", &cases);
    assert_known("qrm20/", &cases);
}

#[test]
fn planner_matrix_matches_known_answers() {
    assert_known("matrix/", &planner_matrix_cases());
}

#[test]
fn accelerator_schedules_match_known_answers() {
    assert_known("fpga50/", &accelerator_cases());
}

#[test]
fn imaging_frames_and_detections_match_known_answers() {
    assert_known("imaging/", &imaging_cases());
}

#[test]
fn service_reports_match_known_answers() {
    assert_known("service/", &service_cases());
}

/// Rewrites the fixture from the current planners. Run only for a
/// deliberate change of planner output:
/// `cargo test --test known_answers -- --ignored regenerate_known_answers`.
#[test]
#[ignore = "writes tests/fixtures/known_answers.txt; run only for a deliberate output change"]
fn regenerate_known_answers() {
    let mut all = paper_50_cases();
    all.extend(random_qrm_cases());
    all.extend(planner_matrix_cases());
    all.extend(accelerator_cases());
    all.extend(imaging_cases());
    all.extend(service_cases());
    let text: String = all
        .iter()
        .map(|(name, hash)| format!("{name} {hash:016x}\n"))
        .collect();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/known_answers.txt"
    );
    std::fs::write(path, text).expect("write fixture");
}
