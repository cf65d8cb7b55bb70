//! Executable end-to-end rearrangement cycles (paper Fig. 1).
//!
//! One cycle: synthesise a fluorescence frame from the true occupancy,
//! detect atoms, plan with the chosen scheduler, execute the schedule on
//! the trap array (optionally with per-move transport loss), and check
//! the target. Real systems iterate — lost or missed atoms are repaired
//! after re-imaging — so the driver supports multi-round operation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use qrm_baselines::{HybridScheduler, Mta1Scheduler, PscaScheduler, TetrisScheduler};
use qrm_core::engine::dataflow::{DataflowStats, ShotProgram, ShotScheduler};
use qrm_core::engine::resolve_workers;
use qrm_core::error::Error;
use qrm_core::executor::{CollisionPolicy, Executor};
use qrm_core::geometry::Rect;
use qrm_core::grid::AtomGrid;
use qrm_core::loading::seeded_rng;
use qrm_core::planner::Planner;
use qrm_core::schedule::MotionModel;
use qrm_core::scheduler::{QrmConfig, QrmScheduler};
use qrm_core::trace::ShotTrace;
use qrm_core::typical::TypicalScheduler;
use qrm_fpga::accelerator::{AcceleratorConfig, QrmAccelerator};
use qrm_vision::prelude::*;

use crate::awg::{AodCalibration, ToneProgram};

/// Which planner drives the cycle — the pipeline's config surface over
/// the workspace's planners. Every variant resolves to a
/// `Box<dyn Planner>` ([`resolve`](PlannerChoice::resolve)); the
/// pipeline itself dispatches only through the trait, so adding a
/// planner here is a one-line construction, not a new code path.
///
/// (Previously named `Planner`; that name now refers to the trait in
/// [`qrm_core::planner`].)
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum PlannerChoice {
    /// Software QRM on the host (Fig. 2(a) role).
    Software(QrmConfig),
    /// The cycle-accurate FPGA accelerator model (Fig. 2(b) role).
    Fpga(AcceleratorConfig),
    /// The "typical rearrangement procedure" of paper §III-A.
    Typical,
    /// The Tetris baseline (Wang et al. 2023).
    Tetris,
    /// The PSCA baseline (Tian et al. 2023).
    Psca,
    /// The MTA1 single-tweezer baseline (Ebadi et al. 2021).
    Mta1,
    /// QRM followed by targeted single-tweezer repair (extension).
    Hybrid,
}

impl Default for PlannerChoice {
    fn default() -> Self {
        PlannerChoice::Software(QrmConfig::default())
    }
}

impl PlannerChoice {
    /// The seven canonical CLI names, in registry order — the strings
    /// [`Display`](std::fmt::Display) produces and
    /// [`FromStr`](std::str::FromStr) accepts.
    pub const NAMES: [&'static str; 7] =
        ["qrm", "typical", "tetris", "psca", "mta1", "hybrid", "fpga"];

    /// The choice's canonical CLI name (config parameters are not part
    /// of the name: every `Software` config displays as `"qrm"`, every
    /// `Fpga` config as `"fpga"`).
    pub fn name(&self) -> &'static str {
        match self {
            PlannerChoice::Software(_) => "qrm",
            PlannerChoice::Typical => "typical",
            PlannerChoice::Tetris => "tetris",
            PlannerChoice::Psca => "psca",
            PlannerChoice::Mta1 => "mta1",
            PlannerChoice::Hybrid => "hybrid",
            PlannerChoice::Fpga(_) => "fpga",
        }
    }

    /// Builds the chosen planner. `workers` is the batch worker count
    /// for planners with a parallel core (`0` = automatic, one per
    /// core); serial planners ignore it.
    pub fn resolve(&self, workers: usize) -> Box<dyn Planner> {
        match self {
            PlannerChoice::Software(cfg) => {
                Box::new(QrmScheduler::new(cfg.clone()).with_workers(workers))
            }
            PlannerChoice::Fpga(cfg) => Box::new(QrmAccelerator::new(*cfg).with_workers(workers)),
            PlannerChoice::Typical => Box::new(TypicalScheduler::default()),
            PlannerChoice::Tetris => Box::new(TetrisScheduler::default()),
            PlannerChoice::Psca => Box::new(PscaScheduler::default()),
            PlannerChoice::Mta1 => Box::new(Mta1Scheduler::default()),
            PlannerChoice::Hybrid => Box::new(HybridScheduler::default()),
        }
    }
}

impl std::fmt::Display for PlannerChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`PlannerChoice`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPlannerName {
    /// The rejected name.
    pub name: String,
}

impl std::fmt::Display for UnknownPlannerName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown planner {:?}; use one of {:?}",
            self.name,
            PlannerChoice::NAMES
        )
    }
}

impl std::error::Error for UnknownPlannerName {}

impl std::str::FromStr for PlannerChoice {
    type Err = UnknownPlannerName;

    /// Parses a canonical CLI name into the choice with **default
    /// configuration** (`Display` → `FromStr` round-trips the name,
    /// not the config: `"qrm"` always parses to the default
    /// [`QrmConfig`], `"fpga"` to the balanced accelerator the
    /// benchmark registry uses).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "qrm" => Ok(PlannerChoice::Software(QrmConfig::default())),
            "typical" => Ok(PlannerChoice::Typical),
            "tetris" => Ok(PlannerChoice::Tetris),
            "psca" => Ok(PlannerChoice::Psca),
            "mta1" => Ok(PlannerChoice::Mta1),
            "hybrid" => Ok(PlannerChoice::Hybrid),
            "fpga" => Ok(PlannerChoice::Fpga(AcceleratorConfig::balanced())),
            other => Err(UnknownPlannerName {
                name: other.to_string(),
            }),
        }
    }
}

/// The stage of a shot's round a straggler delay attaches to.
///
/// Used by the `test-hooks` straggler-injection machinery
/// (`StageDelay`, which exists only with that feature); defined
/// unconditionally so the pipeline's dataflow shot program can name
/// stages without feature gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayStage {
    /// Before the shot's frame synthesis + detection.
    Observe,
    /// After observation, before the shot's job joins a plan group —
    /// delays group formation for this shot.
    Plan,
    /// Before the shot's AWG compilation + schedule execution.
    Execute,
}

/// A test-only straggler injection: sleep `millis` when `shot` reaches
/// `stage` of `round`. Drives the adversarial-schedule determinism
/// suite; compiled only with the `test-hooks` feature, never in
/// production builds.
#[cfg(feature = "test-hooks")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDelay {
    /// Batch index of the delayed shot.
    pub shot: usize,
    /// Round (0-based, counted in completed rounds) to delay.
    pub round: usize,
    /// Stage of the round to delay.
    pub stage: DelayStage,
    /// Sleep duration in milliseconds.
    pub millis: u64,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Imaging physics.
    pub imaging: ImagingConfig,
    /// Detector settings.
    pub detector: Detector,
    /// Trap-to-pixel geometry pitch (pixels).
    pub pitch_px: f64,
    /// Planner choice.
    pub planner: PlannerChoice,
    /// Batch worker count for planners with a parallel core (`0` =
    /// automatic, one per core). Workers are jobs on the persistent
    /// global pool — raising this spawns no OS threads after pool
    /// initialisation.
    pub workers: usize,
    /// Physical motion model for AWG compilation.
    pub motion: MotionModel,
    /// Per-move atom-loss probability during transport.
    pub loss_prob: f64,
    /// Maximum image→plan→move rounds.
    pub max_rounds: usize,
    /// Record a replayable [`ShotTrace`] per shot (reported through
    /// [`BatchRun::traces`]). Tracing only observes — reports are
    /// bit-identical with it on or off.
    pub record_trace: bool,
    /// Straggler injections for the adversarial-schedule determinism
    /// suite (test builds only): each entry stalls one shot at one
    /// stage of one round. Reports must be bit-identical with any
    /// contents here — that is the property the suite asserts.
    #[cfg(feature = "test-hooks")]
    pub debug_stage_delay: Vec<StageDelay>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            imaging: ImagingConfig::default(),
            detector: Detector::default(),
            pitch_px: 6.0,
            planner: PlannerChoice::default(),
            workers: 0,
            motion: MotionModel::typical(),
            loss_prob: 0.0,
            max_rounds: 3,
            record_trace: false,
            #[cfg(feature = "test-hooks")]
            debug_stage_delay: Vec::new(),
        }
    }
}

/// Report of one cycle round.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoundReport {
    /// Detection fidelity against the true occupancy.
    pub detection_fidelity: f64,
    /// Parallel moves planned.
    pub moves: usize,
    /// Atoms lost in transport this round.
    pub atoms_lost: usize,
    /// Physical tweezer time of the round's AWG program (µs).
    pub motion_us: f64,
    /// True occupancy after the round.
    pub state: AtomGrid,
    /// Whether the target is defect-free after the round.
    pub filled: bool,
}

/// Report of a full multi-round run.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PipelineReport {
    /// Per-round details.
    pub rounds: Vec<RoundReport>,
    /// Final true occupancy.
    pub final_state: AtomGrid,
    /// Whether the target ended defect-free.
    pub filled: bool,
}

impl PipelineReport {
    /// Total physical motion time across rounds (µs).
    pub fn total_motion_us(&self) -> f64 {
        self.rounds.iter().map(|r| r.motion_us).sum()
    }

    /// Total atoms lost across rounds.
    pub fn total_lost(&self) -> usize {
        self.rounds.iter().map(|r| r.atoms_lost).sum()
    }
}

/// A batched run's reports plus its schedule diagnostics — what the
/// instrumented entry points ([`Pipeline::run_batch_zones_tracked`],
/// [`Pipeline::run_shots_with`]) return. The reports are bit-identical
/// across entry points and worker counts; the diagnostics describe the
/// particular schedule that produced them.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Per-shot reports, in input order.
    pub reports: Vec<PipelineReport>,
    /// Dataflow-scheduler counters.
    pub stats: DataflowStats,
    /// Per-shot completion time in µs from batch start — the moment the
    /// runner knew the shot's report was final. The tail-latency
    /// quantity the skewed-workload benchmark reports.
    pub completion_us: Vec<f64>,
    /// Per-shot replayable move traces, in input order — present iff
    /// the pipeline ran with
    /// [`record_trace`](PipelineConfig::record_trace). Replaying a
    /// shot's trace on its initial occupancy reproduces its report's
    /// `final_state` bit-exactly
    /// ([`qrm_core::trace::TraceReplayer`]).
    pub traces: Option<Vec<ShotTrace>>,
}

/// One zone of a multi-zone target pattern: a `target` rectangle to
/// assemble, and the `tile` sub-array whose atoms source it.
///
/// Planning for a zone runs on the tile's sub-grid with the target in
/// tile-local coordinates, and the resulting schedule is translated
/// back to full-array coordinates for execution. Planners therefore
/// see an ordinary (grid, centred target) problem per zone — which is
/// what keeps multi-zone patterns compatible with *every* planner,
/// including QRM's centred-even-target contract — and moves for a zone
/// never leave its tile. When the tile covers the whole array this
/// reduces exactly to the classic single-target path (no sub-grid, no
/// translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// The sub-array the zone's planning rounds see (full-array
    /// coordinates). Atoms are sourced only from this tile.
    pub tile: Rect,
    /// The target rectangle to assemble, in full-array coordinates.
    /// Must lie inside `tile`; planners that require centred targets
    /// additionally need it centred *within the tile*.
    pub target: Rect,
}

impl Zone {
    /// The single-zone wrapper: the whole `height x width` array as the
    /// tile — today's classic target semantics, byte-identical to the
    /// pre-zone pipeline.
    pub fn full_array(height: usize, width: usize, target: Rect) -> Self {
        Zone {
            tile: Rect::new(0, 0, height, width),
            target,
        }
    }

    /// Whether the tile covers all of `grid` (planning needs no
    /// sub-grid extraction or schedule translation).
    fn covers(&self, grid: &AtomGrid) -> bool {
        self.tile.row == 0
            && self.tile.col == 0
            && self.tile.height == grid.height()
            && self.tile.width == grid.width()
    }

    /// The target in tile-local coordinates.
    fn local_target(&self) -> Rect {
        Rect::new(
            self.target.row - self.tile.row,
            self.target.col - self.tile.col,
            self.target.height,
            self.target.width,
        )
    }

    /// The planning job for this zone on `detected` occupancy: the
    /// grid the planner sees and the target in that grid's frame.
    fn plan_job(&self, detected: AtomGrid) -> Result<(AtomGrid, Rect), Error> {
        if self.covers(&detected) {
            Ok((detected, self.target))
        } else {
            Ok((detected.subgrid(&self.tile)?, self.local_target()))
        }
    }
}

/// The first zone of `zones` whose target is not yet defect-free in
/// `state` — the zone the next round plans against. `None` means the
/// whole multi-zone pattern is assembled. With a single full-array
/// zone this is exactly the classic `is_filled` check.
fn first_unfilled(state: &AtomGrid, zones: &[Zone]) -> Result<Option<Zone>, Error> {
    for zone in zones {
        if !state.is_filled(&zone.target)? {
            return Ok(Some(*zone));
        }
    }
    Ok(None)
}

/// Translates a tile-local schedule into full-array coordinates
/// (`height x width`): every selected row/column is offset by the
/// tile origin; displacements are unchanged.
fn translate_schedule(
    schedule: &qrm_core::schedule::Schedule,
    tile: &Rect,
    height: usize,
    width: usize,
) -> qrm_core::schedule::Schedule {
    let mut out = qrm_core::schedule::Schedule::new(height, width);
    for mv in schedule.iter() {
        let rows = mv.rows().iter().map(|r| r + tile.row).collect();
        let cols = mv.cols().iter().map(|c| c + tile.col).collect();
        let (dr, dc) = mv.delta();
        out.push(
            qrm_core::moves::ParallelMove::new(rows, cols, dr, dc)
                .expect("translation preserves move validity"),
        );
    }
    out
}

/// The end-to-end pipeline driver.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The pipeline's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The configured planner as a trait object, so single-shot and
    /// batched paths share one construction. The returned planner is
    /// long-lived for a whole run, so its internal plan context (QRM,
    /// FPGA) recycles scratch across rounds.
    fn planner(&self) -> Box<dyn Planner> {
        self.config.planner.resolve(self.config.workers)
    }

    /// The observation half of one round: synthesise a frame from the
    /// true occupancy and detect atoms. Shared by [`run`](Self::run) and
    /// [`run_batch`](Self::run_batch) so the two stay report-identical.
    fn observe<R: Rng + ?Sized>(
        &self,
        state: &AtomGrid,
        layout: &TrapLayout,
        rng: &mut R,
    ) -> Result<(DetectionReport, f64), Error> {
        let frame = render(state, layout, &self.config.imaging, rng);
        let detection = self.config.detector.detect(&frame, layout)?;
        let fidelity = detection.fidelity(state)?;
        Ok((detection, fidelity))
    }

    /// The actuation half of one round: compile the plan for the AWG
    /// (validates the move encoding) and execute it on the true
    /// occupancy with transport loss, advancing `state` and producing
    /// the round report. Shared by [`run`](Self::run) and
    /// [`run_batch`](Self::run_batch).
    ///
    /// Detection errors can make a planned move land on an atom the
    /// detector missed; physically that light-assisted collision ejects
    /// both atoms, and the control loop recovers by re-imaging — hence
    /// the executor's eject collision policy.
    #[allow(clippy::too_many_arguments)] // one closed-loop round's full physics state
    fn execute_round<R: Rng + ?Sized>(
        &self,
        executor: &Executor,
        state: &mut AtomGrid,
        zones: &[Zone],
        schedule: &qrm_core::schedule::Schedule,
        detection_fidelity: f64,
        rng: &mut R,
        trace: Option<&mut ShotTrace>,
    ) -> Result<RoundReport, Error> {
        let program =
            ToneProgram::compile(schedule, &AodCalibration::default(), &self.config.motion)?;
        // The traced and untraced executor paths share one
        // implementation, so the RNG stream (and therefore the report)
        // is identical whether or not a trace is recorded.
        let report = if let Some(trace) = trace {
            let (report, round) =
                executor.run_with_loss_traced(state, schedule, self.config.loss_prob, rng)?;
            trace.rounds.push(round);
            report
        } else {
            executor.run_with_loss(state, schedule, self.config.loss_prob, rng)?
        };
        let atoms_lost = report.lost_atoms + report.ejected_atoms;
        *state = report.final_grid;
        let filled = first_unfilled(state, zones)?.is_none();
        Ok(RoundReport {
            detection_fidelity,
            moves: schedule.len(),
            atoms_lost,
            motion_us: program.total_duration_us(),
            state: state.clone(),
            filled,
        })
    }

    /// Runs up to `max_rounds` image→detect→plan→move rounds on the true
    /// occupancy `truth`, stopping early once `target` is defect-free.
    ///
    /// # Errors
    ///
    /// Propagates planner and executor failures; detection errors cannot
    /// occur for matching layouts.
    pub fn run<R: Rng + ?Sized>(
        &self,
        truth: &AtomGrid,
        target: &Rect,
        rng: &mut R,
    ) -> Result<PipelineReport, Error> {
        let zones = [Zone::full_array(truth.height(), truth.width(), *target)];
        self.run_zones(truth, &zones, rng).map(|(report, _)| report)
    }

    /// [`run`](Self::run) against a **multi-zone** target pattern: each
    /// round plans against the first [`Zone`] whose target is not yet
    /// defect-free (earlier zones are repaired before later ones are
    /// attempted), and the run is `filled` once every zone is. A single
    /// full-array zone is byte-identical to [`run`](Self::run). Also
    /// returns the shot's replayable trace when the pipeline records
    /// traces ([`PipelineConfig::record_trace`]).
    ///
    /// An empty `zones` slice is trivially filled: no rounds run.
    ///
    /// # Errors
    ///
    /// Identical to [`run`](Self::run).
    pub fn run_zones<R: Rng + ?Sized>(
        &self,
        truth: &AtomGrid,
        zones: &[Zone],
        rng: &mut R,
    ) -> Result<(PipelineReport, Option<ShotTrace>), Error> {
        let mut state = truth.clone();
        let mut rounds = Vec::new();
        let mut trace = self.config.record_trace.then(ShotTrace::default);
        let layout = TrapLayout::new(state.height(), state.width(), self.config.pitch_px, 4.0);
        let planner = self.planner();
        // The planner's transport contract (strict AOD sweeps, or
        // endpoints-only for single-tweezer planners) plus the control
        // loop's eject-on-collision recovery policy.
        let executor = planner
            .executor()
            .with_collision_policy(CollisionPolicy::Eject);

        for _ in 0..self.config.max_rounds {
            let Some(zone) = first_unfilled(&state, zones)? else {
                break;
            };
            // Image + detect, plan on the *detected* occupancy (in the
            // zone's tile frame), execute on the true one.
            let (detection, detection_fidelity) = self.observe(&state, &layout, rng)?;
            let covers = zone.covers(&detection.grid);
            let (plan_grid, plan_target) = zone.plan_job(detection.grid)?;
            let plan = planner.plan(&plan_grid, &plan_target)?;
            let translated;
            let schedule = if covers {
                &plan.schedule
            } else {
                translated =
                    translate_schedule(&plan.schedule, &zone.tile, state.height(), state.width());
                &translated
            };
            let round = self.execute_round(
                &executor,
                &mut state,
                zones,
                schedule,
                detection_fidelity,
                rng,
                trace.as_mut(),
            )?;
            let filled = round.filled;
            rounds.push(round);
            if filled {
                break;
            }
        }

        let filled = first_unfilled(&state, zones)?.is_none();
        Ok((
            PipelineReport {
                rounds,
                final_state: state,
                filled,
            },
            trace,
        ))
    }

    /// The RNG driving shot `index` of a batched run with `base_seed`.
    ///
    /// Exposed so callers can reproduce any single shot of
    /// [`run_batch`](Self::run_batch) through [`run`](Self::run): the two
    /// are report-identical for the same shot.
    pub fn shot_rng(base_seed: u64, index: usize) -> StdRng {
        seeded_rng(base_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Runs a batch of independent shots (one camera frame / trap array
    /// each) against a common target, scheduling rounds as **shot-level
    /// dataflow** on the persistent worker pool
    /// ([`qrm_core::engine::dataflow`]): every shot advances through
    /// its own observe → plan → execute task chain, each task spawning
    /// its successor, so a fast shot can be executing round *k + 1*
    /// while a slow shot is still planning round *k* — no stage
    /// barriers, no straggler stalls.
    ///
    /// Planning stays batched: shots reaching the plan stage within the
    /// pool's natural drain window are planned together through the
    /// planner's batched entry point ([`Planner::plan_batch`]) and its
    /// warm context pool. Because `plan_batch` is observationally equal
    /// to per-job planning (the workspace planner contract), group
    /// membership is invisible in the results: each shot draws from its
    /// own deterministic RNG ([`shot_rng`](Self::shot_rng)) and lands
    /// in its own result slot, so reports are **bit-identical** for any
    /// `workers` setting and any straggler schedule, independent of
    /// batch composition, and equal to running the shot alone through
    /// [`run`](Self::run). With `workers <= 1` (counting the automatic
    /// policy on a 1-core host) the whole batch runs inline, shot by
    /// shot in index order — the reference schedule the parallel ones
    /// reproduce. All scheduling only *enqueues* onto the
    /// process-global pool; no OS threads are spawned after pool
    /// initialisation.
    ///
    /// # Errors
    ///
    /// Propagates planner and executor failures: the first error by
    /// shot index among the failures the schedule observed (a
    /// plan-group failure counts against the group's lowest-indexed
    /// shot), after which remaining work is abandoned.
    pub fn run_batch(
        &self,
        truths: &[AtomGrid],
        target: &Rect,
        base_seed: u64,
    ) -> Result<Vec<PipelineReport>, Error> {
        self.run_shots_iter(
            &*self.planner(),
            truths.iter().map(|truth| {
                (
                    truth,
                    vec![Zone::full_array(truth.height(), truth.width(), *target)],
                )
            }),
            base_seed,
        )
        .map(|run| run.reports)
    }

    /// [`run_batch`](Self::run_batch) against a **multi-zone** target
    /// shared by every shot, with a caller-owned planner, returning the
    /// schedule's diagnostics and per-shot completion times alongside
    /// the reports: the batched counterpart of
    /// [`run_zones`](Self::run_zones), bit-identical to running each
    /// shot alone through it. A single full-array zone is
    /// byte-identical to [`run_batch`](Self::run_batch).
    ///
    /// Only `config.planner` is ignored — everything else applies
    /// unchanged: imaging, loss, rounds and trace recording as
    /// configured, and the dataflow schedule still uses
    /// `config.workers` (the planner's own batch worker count is
    /// whatever the caller resolved it with). This is the long-lived
    /// service entry point: a planning server (`qrm_server`) resolves
    /// each registered [`PlannerChoice`] **once** and reuses the
    /// instance across submissions, so every call plans warm through
    /// the planner's internal context pool, and aggregates the
    /// [`DataflowStats`] counters into its `/v1/stats` wire surface.
    /// Planners carry no mutable planning state across calls, only
    /// recycled allocations, so reports do not depend on the reuse.
    ///
    /// # Errors
    ///
    /// Identical to [`run_batch`](Self::run_batch).
    pub fn run_batch_zones_tracked(
        &self,
        planner: &dyn Planner,
        truths: &[AtomGrid],
        zones: &[Zone],
        base_seed: u64,
    ) -> Result<BatchRun, Error> {
        self.run_shots_iter(
            planner,
            truths.iter().map(|truth| (truth, zones.to_vec())),
            base_seed,
        )
    }

    /// Runs a **heterogeneous** batch with a caller-owned planner: each
    /// shot brings its own true occupancy *and its own target*, so
    /// deliberately imbalanced workloads (the skewed benchmark: a few
    /// large arrays among many small ones) go through the same dataflow
    /// schedule. Reports are bit-identical to running each shot alone
    /// through [`run`](Self::run) with its own target and
    /// [`shot_rng`](Self::shot_rng); the [`BatchRun`] adds schedule
    /// diagnostics and per-shot completion times.
    ///
    /// # Errors
    ///
    /// Identical to [`run_batch`](Self::run_batch).
    pub fn run_shots_with(
        &self,
        planner: &dyn Planner,
        jobs: &[(AtomGrid, Rect)],
        base_seed: u64,
    ) -> Result<BatchRun, Error> {
        self.run_shots_iter(
            planner,
            jobs.iter().map(|(truth, target)| {
                (
                    truth,
                    vec![Zone::full_array(truth.height(), truth.width(), *target)],
                )
            }),
            base_seed,
        )
    }

    /// The shared dataflow run: build one [`DataflowShot`] program per
    /// shot and hand the batch to the [`ShotScheduler`].
    fn run_shots_iter<'a>(
        &self,
        planner: &dyn Planner,
        jobs: impl Iterator<Item = (&'a AtomGrid, Vec<Zone>)>,
        base_seed: u64,
    ) -> Result<BatchRun, Error> {
        let executor = planner
            .executor()
            .with_collision_policy(CollisionPolicy::Eject);
        let started = Instant::now();
        let shots: Vec<DataflowShot<'_>> = jobs
            .enumerate()
            .map(|(i, (truth, zones))| DataflowShot {
                pipeline: self,
                executor: &executor,
                zones,
                // Grid dimensions never change across rounds, so the
                // trap-to-pixel layout is per-shot, not per-round.
                layout: TrapLayout::new(truth.height(), truth.width(), self.config.pitch_px, 4.0),
                state: truth.clone(),
                rounds: Vec::new(),
                trace: self.config.record_trace.then(ShotTrace::default),
                rng: Self::shot_rng(base_seed, i),
                fidelity: 0.0,
                pending_zone: None,
                rounds_left: self.config.max_rounds,
                started,
                completed_us: 0.0,
                #[cfg(feature = "test-hooks")]
                index: i,
            })
            .collect();
        let scheduler = ShotScheduler::new(resolve_workers(self.config.workers, shots.len()));
        let (shots, stats) = scheduler.run(shots, |group| planner.plan_batch(group))?;
        let mut reports = Vec::with_capacity(shots.len());
        let mut completion_us = Vec::with_capacity(shots.len());
        let mut traces = self
            .config
            .record_trace
            .then(|| Vec::with_capacity(shots.len()));
        for shot in shots {
            let filled = first_unfilled(&shot.state, &shot.zones)?.is_none();
            completion_us.push(shot.completed_us);
            if let Some(traces) = traces.as_mut() {
                traces.push(shot.trace.unwrap_or_default());
            }
            reports.push(PipelineReport {
                rounds: shot.rounds,
                final_state: shot.state,
                filled,
            });
        }
        Ok(BatchRun {
            reports,
            stats,
            completion_us,
            traces,
        })
    }
}

/// One shot's program for the dataflow scheduler: owns the shot's true
/// occupancy, RNG stream, and accumulated round reports; borrows the
/// pipeline (configuration) and the run's shared executor. The stage
/// methods reproduce [`Pipeline::run`]'s loop body exactly, so the
/// scheduler's per-shot chains are report-identical to the serial path.
struct DataflowShot<'a> {
    pipeline: &'a Pipeline,
    executor: &'a Executor,
    zones: Vec<Zone>,
    layout: TrapLayout,
    state: AtomGrid,
    rounds: Vec<RoundReport>,
    trace: Option<ShotTrace>,
    rng: StdRng,
    /// Detection fidelity of the round in flight (observe → execute).
    fidelity: f64,
    /// The zone the round in flight planned against (observe →
    /// execute), for schedule translation out of its tile frame.
    pending_zone: Option<Zone>,
    rounds_left: usize,
    started: Instant,
    completed_us: f64,
    #[cfg(feature = "test-hooks")]
    index: usize,
}

impl DataflowShot<'_> {
    /// Applies any matching straggler injections for the current round.
    #[cfg(feature = "test-hooks")]
    fn stage_delay(&self, stage: DelayStage) {
        for delay in &self.pipeline.config.debug_stage_delay {
            if delay.shot == self.index && delay.round == self.rounds.len() && delay.stage == stage
            {
                std::thread::sleep(std::time::Duration::from_millis(delay.millis));
            }
        }
    }

    #[cfg(not(feature = "test-hooks"))]
    fn stage_delay(&self, _stage: DelayStage) {}
}

impl ShotProgram for DataflowShot<'_> {
    type Job = (AtomGrid, Rect);
    type Plan = qrm_core::scheduler::Plan;

    fn observe(&mut self) -> Result<Option<(AtomGrid, Rect)>, Error> {
        let zone = if self.rounds_left == 0 {
            None
        } else {
            first_unfilled(&self.state, &self.zones)?
        };
        let Some(zone) = zone else {
            self.completed_us = self.started.elapsed().as_secs_f64() * 1e6;
            return Ok(None);
        };
        self.stage_delay(DelayStage::Observe);
        let (detection, fidelity) =
            self.pipeline
                .observe(&self.state, &self.layout, &mut self.rng)?;
        self.fidelity = fidelity;
        self.pending_zone = Some(zone);
        // A `Plan`-stage delay runs after observation but before the
        // job joins a plan group, stalling group formation for this
        // shot specifically.
        self.stage_delay(DelayStage::Plan);
        Ok(Some(zone.plan_job(detection.grid)?))
    }

    fn execute(&mut self, plan: qrm_core::scheduler::Plan) -> Result<(), Error> {
        self.stage_delay(DelayStage::Execute);
        let zone = self.pending_zone.take().expect("observe precedes execute");
        let translated;
        let schedule = if zone.covers(&self.state) {
            &plan.schedule
        } else {
            translated = translate_schedule(
                &plan.schedule,
                &zone.tile,
                self.state.height(),
                self.state.width(),
            );
            &translated
        };
        let round = self.pipeline.execute_round(
            self.executor,
            &mut self.state,
            &self.zones,
            schedule,
            self.fidelity,
            &mut self.rng,
            self.trace.as_mut(),
        )?;
        self.rounds.push(round);
        self.rounds_left -= 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::loading::seeded_rng;

    #[test]
    fn planner_choice_display_parse_round_trips() {
        // Every canonical name parses, and the parsed choice displays
        // the same name again; the name list and the enum stay in sync.
        for name in PlannerChoice::NAMES {
            let choice: PlannerChoice = name.parse().unwrap();
            assert_eq!(choice.to_string(), name);
            assert_eq!(choice.name(), name);
        }
        // Display → FromStr also round-trips for non-default configs
        // (the *name* is the round-trip unit, not the config).
        let custom = PlannerChoice::Software(QrmConfig::paper());
        let reparsed: PlannerChoice = custom.to_string().parse().unwrap();
        assert_eq!(reparsed.name(), custom.name());
        let err = "warp-drive".parse::<PlannerChoice>().unwrap_err();
        assert_eq!(err.name, "warp-drive");
        assert!(err.to_string().contains("qrm"));
    }

    #[test]
    fn single_round_fills_at_high_snr_no_loss() {
        let mut rng = seeded_rng(40);
        let mut done = 0;
        let mut tried = 0;
        for _ in 0..5 {
            let truth = AtomGrid::random(20, 20, 0.5, &mut rng);
            if truth.atom_count() < 170 {
                continue;
            }
            tried += 1;
            let target = Rect::centered(20, 20, 12, 12).unwrap();
            let report = Pipeline::default().run(&truth, &target, &mut rng).unwrap();
            assert_eq!(
                report.final_state.atom_count(),
                truth.atom_count(),
                "no loss configured"
            );
            if report.filled && report.rounds.len() == 1 {
                done += 1;
            }
        }
        assert!(tried >= 3);
        assert!(done * 10 >= tried * 7, "done {done}/{tried}");
    }

    #[test]
    fn loss_requires_extra_rounds() {
        let mut rng = seeded_rng(41);
        let truth = AtomGrid::random(20, 20, 0.55, &mut rng);
        let target = Rect::centered(20, 20, 10, 10).unwrap();
        let config = PipelineConfig {
            loss_prob: 0.02,
            max_rounds: 5,
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(config)
            .run(&truth, &target, &mut rng)
            .unwrap();
        // with 2% per-move loss some atoms vanish...
        assert!(report.total_lost() > 0);
        // ...and the pipeline still assembles the target by retrying
        assert!(report.filled, "rounds {}", report.rounds.len());
    }

    #[test]
    fn fpga_planner_path() {
        let mut rng = seeded_rng(42);
        let truth = AtomGrid::random(20, 20, 0.55, &mut rng);
        let target = Rect::centered(20, 20, 12, 12).unwrap();
        let config = PipelineConfig {
            planner: PlannerChoice::Fpga(AcceleratorConfig::balanced()),
            ..PipelineConfig::default()
        };
        let report = Pipeline::new(config)
            .run(&truth, &target, &mut rng)
            .unwrap();
        assert!(!report.rounds.is_empty());
        assert!(report.rounds[0].detection_fidelity > 0.99);
    }

    #[test]
    fn already_filled_target_needs_no_rounds() {
        let mut truth = AtomGrid::new(8, 8).unwrap();
        let target = Rect::centered(8, 8, 2, 2).unwrap();
        for p in target.positions() {
            truth.set_unchecked(p.row, p.col, true);
        }
        let mut rng = seeded_rng(43);
        let report = Pipeline::default().run(&truth, &target, &mut rng).unwrap();
        assert!(report.filled);
        assert!(report.rounds.is_empty());
        assert_eq!(report.total_motion_us(), 0.0);
    }

    #[test]
    fn run_batch_matches_single_shot_runs() {
        // Batched rounds must be observationally identical per shot to
        // running each shot alone with its derived RNG — for both the
        // software and FPGA planners.
        let mut rng = seeded_rng(50);
        let truths: Vec<AtomGrid> = (0..3)
            .map(|_| AtomGrid::random(16, 16, 0.6, &mut rng))
            .collect();
        let target = Rect::centered(16, 16, 8, 8).unwrap();
        for config in [
            PipelineConfig {
                loss_prob: 0.02,
                max_rounds: 4,
                ..PipelineConfig::default()
            },
            PipelineConfig {
                planner: PlannerChoice::Fpga(AcceleratorConfig::balanced()),
                ..PipelineConfig::default()
            },
        ] {
            let pipeline = Pipeline::new(config);
            let batched = pipeline.run_batch(&truths, &target, 777).unwrap();
            assert_eq!(batched.len(), truths.len());
            for (i, truth) in truths.iter().enumerate() {
                let mut shot_rng = Pipeline::shot_rng(777, i);
                let single = pipeline.run(truth, &target, &mut shot_rng).unwrap();
                assert_eq!(single, batched[i], "shot {i}");
            }
        }
    }

    #[test]
    fn run_batch_handles_empty_and_prefilled() {
        let pipeline = Pipeline::default();
        let target = Rect::centered(8, 8, 2, 2).unwrap();
        assert!(pipeline.run_batch(&[], &target, 1).unwrap().is_empty());

        let mut full = AtomGrid::new(8, 8).unwrap();
        for p in target.positions() {
            full.set_unchecked(p.row, p.col, true);
        }
        let reports = pipeline.run_batch(&[full], &target, 1).unwrap();
        assert!(reports[0].filled);
        assert!(reports[0].rounds.is_empty());
    }

    #[test]
    fn run_zones_single_zone_matches_run_and_trace_replays() {
        // A single-zone `run_zones` call is byte-identical to `run`,
        // tracing does not perturb the run, and the recorded trace
        // replays to the report's final occupancy.
        use qrm_core::trace::TraceReplayer;
        let mut rng = seeded_rng(45);
        let truth = AtomGrid::random(16, 16, 0.6, &mut rng);
        let target = Rect::centered(16, 16, 8, 8).unwrap();
        let plain = Pipeline::default();
        let traced = Pipeline::new(PipelineConfig {
            loss_prob: 0.02,
            record_trace: true,
            ..PipelineConfig::default()
        });
        let lossy = Pipeline::new(PipelineConfig {
            loss_prob: 0.02,
            ..PipelineConfig::default()
        });

        let zones = [Zone::full_array(16, 16, target)];
        let mut a = seeded_rng(9);
        let mut b = seeded_rng(9);
        let single = plain.run(&truth, &target, &mut a).unwrap();
        let (zoned, no_trace) = plain.run_zones(&truth, &zones, &mut b).unwrap();
        assert_eq!(single, zoned);
        assert!(no_trace.is_none());

        let mut c = seeded_rng(9);
        let mut d = seeded_rng(9);
        let (with_trace, trace) = traced.run_zones(&truth, &zones, &mut c).unwrap();
        let (without, _) = lossy.run_zones(&truth, &zones, &mut d).unwrap();
        assert_eq!(with_trace, without, "tracing must not perturb the run");
        let trace = trace.unwrap();
        assert_eq!(
            TraceReplayer::replay(&truth, &trace).unwrap(),
            with_trace.final_state
        );
    }

    #[test]
    fn multi_zone_run_fills_every_zone() {
        let mut rng = seeded_rng(46);
        let truth = AtomGrid::random(20, 20, 0.6, &mut rng);
        // Three quadrant tiles, each with a 4x4 target centred in its
        // 10x10 tile — the QRM-compatible multi-zone shape.
        let zones = [
            Zone {
                tile: Rect::new(0, 0, 10, 10),
                target: Rect::new(3, 3, 4, 4),
            },
            Zone {
                tile: Rect::new(0, 10, 10, 10),
                target: Rect::new(3, 13, 4, 4),
            },
            Zone {
                tile: Rect::new(10, 0, 10, 10),
                target: Rect::new(13, 3, 4, 4),
            },
        ];
        let config = PipelineConfig {
            max_rounds: 9,
            ..PipelineConfig::default()
        };
        let (report, _) = Pipeline::new(config)
            .run_zones(&truth, &zones, &mut rng)
            .unwrap();
        assert!(report.filled, "rounds {}", report.rounds.len());
        for zone in &zones {
            assert!(report.final_state.is_filled(&zone.target).unwrap());
        }
        // The batched entry point reproduces the serial shot.
        let pipeline = Pipeline::new(PipelineConfig {
            max_rounds: 9,
            ..PipelineConfig::default()
        });
        let batch = pipeline
            .run_batch_zones_tracked(
                &*pipeline.planner(),
                std::slice::from_ref(&truth),
                &zones,
                31,
            )
            .unwrap();
        let mut shot_rng = Pipeline::shot_rng(31, 0);
        let (single, _) = pipeline.run_zones(&truth, &zones, &mut shot_rng).unwrap();
        assert_eq!(batch.reports[0], single);
    }

    #[test]
    fn motion_time_accumulates() {
        let mut rng = seeded_rng(44);
        let truth = AtomGrid::random(16, 16, 0.6, &mut rng);
        let target = Rect::centered(16, 16, 8, 8).unwrap();
        let report = Pipeline::default().run(&truth, &target, &mut rng).unwrap();
        if !report.rounds.is_empty() && report.rounds[0].moves > 0 {
            assert!(report.total_motion_us() > 0.0);
        }
    }
}
