//! The canonical per-quadrant shift kernel (paper §III-A, §IV-C).
//!
//! The kernel operates on a canonically-oriented quadrant grid
//! (compression corner at `(0, 0)`, see [`crate::quadrant`]) and emits a
//! sequence of *passes*; each pass scans every line along one axis and
//! produces *waves* of simultaneous unit suffix shifts — exactly what the
//! FPGA pipeline of Fig. 6 computes with its row buffer / column buffer /
//! shift-command buffer datapath. Passes alternate row-wise and
//! column-wise, repeated for a bounded number of iterations (the paper
//! uses four).
//!
//! Two strategies are provided:
//!
//! * [`KernelStrategy::Greedy`] — the paper-faithful kernel: every line is
//!   compacted flush toward the corner on each pass. Simple and fast, but
//!   greedy corner compaction can reach a "Young-diagram" fixed point that
//!   leaves the far corner of aggressive targets under-filled.
//! * [`KernelStrategy::Balanced`] — a deficit-aware extension: supply
//!   lines (rows outside the target band) are flushed only down to the
//!   leftmost *deficient* target column, parking their atoms above the
//!   columns that still need them before the vertical pass drains them in.
//!   This preserves the same pass/wave structure (and therefore the same
//!   hardware pipeline) while reliably filling paper-scale targets.
//!
//! The paper's `sen` manual-control signal (blocking selected lines from
//! shifting, §IV-C) is exposed as [`KernelConfig::row_enable`] /
//! [`KernelConfig::col_enable`].
//!
//! The hardware scans every position of every line; software computes
//! the same waves event-driven. Each line jumps from one eligible hole
//! to the next ([`bitline::eligible_hole`]), so a pass costs time in
//! proportion to the shifts it emits rather than to `lines x positions`,
//! and the logged shifts are counting-sorted into waves by hole
//! afterwards (see [`run_pass`]). A [`LocalPass`] stores its waves flat
//! — one wave-major shift vector plus wave end offsets — so each pass
//! allocates two vectors, not one per wave. Column passes run on a
//! transposed copy of the grid (a 64 x 64 block transpose, see
//! [`AtomGrid::transpose_into`]).

use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Rect};
use crate::grid::AtomGrid;

/// One unit suffix shift: in line `line`, every atom at positions
/// `> hole` moves one site toward position 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LocalShift {
    /// Line index (row for a row pass, column for a column pass).
    pub line: usize,
    /// Hole position along the line; must be empty when the shift fires.
    pub hole: usize,
}

/// One pass: all waves produced by scanning every line along `axis` until
/// no line can shift further.
///
/// A wave holds suffix shifts on distinct lines that execute
/// simultaneously (same direction, same unit step — the multi-tweezer
/// parallelism of §II-B). The waves are stored flat: every shift of the
/// pass in one wave-major vector, plus the end offset of each wave in
/// it, so a pass costs two allocations however many waves it has.
/// Interior empty waves are kept (wave `k` is scan position `k`);
/// trailing empty waves are trimmed.
///
/// ```
/// use qrm_core::geometry::Axis;
/// use qrm_core::kernel::{LocalPass, LocalShift};
///
/// let shift = |line, hole| LocalShift { line, hole };
/// let pass = LocalPass::from_waves(
///     Axis::Row,
///     &[vec![shift(0, 0), shift(2, 0)], vec![], vec![shift(1, 2)], vec![]],
/// );
/// assert_eq!(pass.wave_count(), 3);
/// assert_eq!(pass.wave(1), Some(&[][..]));
/// assert_eq!(pass.wave(2), Some(&[shift(1, 2)][..]));
/// assert_eq!(pass.shift_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LocalPass {
    /// Scan axis: [`Axis::Row`] compresses columns westward (toward local
    /// column 0), [`Axis::Col`] compresses rows northward (toward local
    /// row 0).
    pub axis: Axis,
    /// Every shift of the pass, wave by wave.
    shifts: Vec<LocalShift>,
    /// `ends[k]` is the end of wave `k` in `shifts`; the last is nonzero
    /// and all are nondecreasing.
    ends: Vec<usize>,
}

impl LocalPass {
    /// A pass from its waves in execution order (`waves[k]` holds the
    /// shifts that fired at scan position `k`), trimming trailing empty
    /// waves.
    pub fn from_waves<W: AsRef<[LocalShift]>>(axis: Axis, waves: &[W]) -> LocalPass {
        let nwaves = waves
            .iter()
            .rposition(|w| !w.as_ref().is_empty())
            .map_or(0, |k| k + 1);
        let waves = &waves[..nwaves];
        let mut shifts = Vec::with_capacity(waves.iter().map(|w| w.as_ref().len()).sum());
        let mut ends = Vec::with_capacity(nwaves);
        for wave in waves {
            shifts.extend_from_slice(wave.as_ref());
            ends.push(shifts.len());
        }
        LocalPass { axis, shifts, ends }
    }

    /// Number of waves, interior empty ones included.
    pub fn wave_count(&self) -> usize {
        self.ends.len()
    }

    /// The shifts of wave `k`, in line order, or `None` past the last
    /// wave.
    pub fn wave(&self, k: usize) -> Option<&[LocalShift]> {
        let end = *self.ends.get(k)?;
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        Some(&self.shifts[start..end])
    }

    /// The waves in execution order.
    pub fn waves(&self) -> impl ExactSizeIterator<Item = &[LocalShift]> + '_ {
        (0..self.wave_count()).map(|k| self.wave(k).expect("k < wave_count"))
    }

    /// Total number of unit shifts in the pass.
    pub fn shift_count(&self) -> usize {
        self.shifts.len()
    }
}

/// Kernel scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum KernelStrategy {
    /// Paper-faithful greedy compaction: flush every line to the corner.
    Greedy,
    /// Greedy, but only holes inside the target band trigger shifts
    /// (a `sen`-style restriction of shifting "far from the center").
    GreedyTargetOnly,
    /// Deficit-aware supply parking (extension; default).
    #[default]
    Balanced,
}

/// Configuration of a [`ShiftKernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelConfig {
    /// Target extent along the row axis (canonical rows `0..target_height`).
    pub target_height: usize,
    /// Target extent along the column axis (canonical cols `0..target_width`).
    pub target_width: usize,
    /// Iteration budget; each iteration is one row pass plus one column
    /// pass. The paper uses a static 4 (§V-B); the library default is 12.
    pub max_iterations: usize,
    /// Scheduling strategy.
    pub strategy: KernelStrategy,
    /// Per-row shift enable (`sen`): rows mapped to `false` never shift in
    /// row passes. `None` enables all rows.
    pub row_enable: Option<Vec<bool>>,
    /// Per-column shift enable for column passes. `None` enables all.
    pub col_enable: Option<Vec<bool>>,
    /// Run exactly `max_iterations` iterations with no early exit — the
    /// behaviour of the FPGA, whose pass schedule is static ("it is also
    /// statically known which shift commands finish at which time",
    /// §IV-C). Software defaults to `false` (stop once the target fills
    /// or no shift fires).
    pub static_iterations: bool,
}

impl KernelConfig {
    /// A config for a `target_height x target_width` corner target with
    /// library defaults: balanced strategy, a 12-iteration budget, all
    /// lines enabled.
    ///
    /// The paper's hardware runs a *static* 4 iterations with the greedy
    /// kernel; at 50 % load that fully assembles ~2/3 of paper-scale
    /// targets and leaves 1–3 defects otherwise (see EXPERIMENTS.md,
    /// E-x1). The balanced strategy reaches ~100 % assembly within ~5
    /// iterations on average (more for larger arrays); the 12-iteration
    /// budget is a safety margin — software exits early once the target
    /// fills.
    pub fn new(target_height: usize, target_width: usize) -> Self {
        KernelConfig {
            target_height,
            target_width,
            max_iterations: 12,
            strategy: KernelStrategy::default(),
            row_enable: None,
            col_enable: None,
            static_iterations: false,
        }
    }

    /// Enables or disables the hardware-style static iteration schedule.
    #[must_use]
    pub fn with_static_iterations(mut self, enabled: bool) -> Self {
        self.static_iterations = enabled;
        self
    }

    /// Replaces the strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: KernelStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }
}

/// Result of running the kernel on one canonical quadrant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelOutcome {
    /// Passes in execution order (alternating row/column, starting with
    /// rows). A quadrant that finishes early simply has fewer passes.
    pub passes: Vec<LocalPass>,
    /// Quadrant occupancy after all passes.
    pub final_grid: AtomGrid,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the corner target is defect-free.
    pub filled: bool,
}

impl KernelOutcome {
    /// Total unit shifts across all passes.
    pub fn shift_count(&self) -> usize {
        self.passes.iter().map(LocalPass::shift_count).sum()
    }
}

/// In-flight state of an incremental kernel run (see
/// [`ShiftKernel::start`] / [`ShiftKernel::step`] /
/// [`ShiftKernel::finish`]). The parallel planning engine holds one per
/// quadrant and schedules iterations as individual work-queue tasks.
#[derive(Debug, Clone)]
pub struct KernelState {
    grid: AtomGrid,
    passes: Vec<LocalPass>,
    scratch: PassScratch,
    iterations: usize,
    done: bool,
}

impl KernelState {
    /// Iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the run has reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.done
    }
}

/// Recycled kernel buffers (grid words plus the pass vector), reclaimed
/// from a finished [`KernelOutcome`] and only consumable by
/// [`ShiftKernel::start_in`], which reinitialises them in place. The
/// type is deliberately inert — it cannot be stepped or finished — so
/// stale data from the previous run is unreachable by construction.
/// The engine's [`PlanContext`](crate::engine::PlanContext) pools these
/// across `plan_batch` rounds.
#[derive(Debug)]
pub struct KernelScratch {
    grid: AtomGrid,
    passes: Vec<LocalPass>,
}

impl KernelScratch {
    /// Reclaims the buffers of a finished outcome as reusable scratch.
    pub fn reclaim(outcome: KernelOutcome) -> KernelScratch {
        KernelScratch {
            grid: outcome.final_grid,
            passes: outcome.passes,
        }
    }
}

/// Recycled per-pass working buffers: the transposed view a column pass
/// scans in place of the grid, and the log of the pass's shifts. With a
/// warm `PassScratch`, [`run_pass_in`] (and therefore
/// [`ShiftKernel::step`]) allocates only the returned pass's two flat
/// vectors, each at its exact size; results are bit-identical to a cold
/// one. Recovered from a finished run with
/// [`ShiftKernel::finish_split`] and fed back in through
/// [`ShiftKernel::start_with`] — the engine's
/// [`PlanContext`](crate::engine::PlanContext) pools these alongside
/// [`KernelScratch`].
#[derive(Debug, Clone)]
pub struct PassScratch {
    view: AtomGrid,
    log: ShiftLog,
    windows: Windows,
}

/// The `(floor, limit)` windows of an iteration's two passes, and the
/// balanced row planner's working buffers, kept across iterations and
/// runs so planning the windows does not allocate once warm.
#[derive(Debug, Clone, Default)]
struct Windows {
    rows: Vec<(usize, usize)>,
    cols: Vec<(usize, usize)>,
    /// Projected atom supply per target column.
    supply: Vec<usize>,
    /// One row's words, shifted by the simulated pass.
    line: Vec<u64>,
}

/// The shifts of one pass in the order they fire (line-major), and a
/// per-hole cursor used to group them into waves.
#[derive(Debug, Clone, Default)]
struct ShiftLog {
    shifts: Vec<LocalShift>,
    cursors: Vec<usize>,
}

impl ShiftLog {
    /// Counting-sorts the logged shifts by hole straight into a pass:
    /// wave `k` holds the shifts at hole `k` in line order, up to the
    /// highest hole. The pass's two vectors are allocated once each, at
    /// their exact sizes.
    fn group_waves(&mut self, axis: Axis) -> LocalPass {
        let nwaves = self.shifts.iter().map(|s| s.hole + 1).max().unwrap_or(0);
        let mut ends = vec![0usize; nwaves];
        for s in &self.shifts {
            ends[s.hole] += 1;
        }
        // `cursors[k]` starts at the beginning of wave `k`; `ends` turns
        // from per-wave counts into end offsets.
        self.cursors.clear();
        let mut total = 0;
        for end in &mut ends {
            self.cursors.push(total);
            total += *end;
            *end = total;
        }
        let mut shifts = vec![LocalShift { line: 0, hole: 0 }; total];
        for &s in &self.shifts {
            shifts[self.cursors[s.hole]] = s;
            self.cursors[s.hole] += 1;
        }
        LocalPass { axis, shifts, ends }
    }
}

impl PassScratch {
    /// A cold scratch (placeholder buffers; grown on first use).
    #[must_use]
    pub fn new() -> PassScratch {
        PassScratch {
            view: AtomGrid::new(1, 1).expect("1x1 placeholder grid"),
            log: ShiftLog::default(),
            windows: Windows::default(),
        }
    }
}

impl Default for PassScratch {
    fn default() -> Self {
        PassScratch::new()
    }
}

/// The per-quadrant scheduler.
///
/// ```
/// use qrm_core::kernel::{KernelConfig, ShiftKernel};
/// use qrm_core::grid::AtomGrid;
///
/// // 4x4 canonical quadrant, 2x2 corner target.
/// let q = AtomGrid::parse(
///     ".#..\n\
///      ...#\n\
///      #...\n\
///      ..#.",
/// )?;
/// let kernel = ShiftKernel::new(KernelConfig::new(2, 2));
/// let out = kernel.run(&q)?;
/// assert!(out.filled);
/// assert_eq!(out.final_grid.atom_count(), q.atom_count());
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShiftKernel {
    config: KernelConfig,
}

impl ShiftKernel {
    /// Creates a kernel with the given configuration.
    pub fn new(config: KernelConfig) -> Self {
        ShiftKernel { config }
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Runs the kernel on a canonical quadrant grid.
    ///
    /// Equivalent to [`start`](Self::start), [`step`](Self::step) until
    /// exhausted, then [`finish`](Self::finish) — the decomposition the
    /// parallel planning engine ([`crate::engine`]) schedules one
    /// iteration at a time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the target extent exceeds the
    /// quadrant.
    pub fn run(&self, quadrant: &AtomGrid) -> Result<KernelOutcome, Error> {
        let mut state = self.start(quadrant)?;
        while !self.step(&mut state)? {}
        self.finish(state)
    }

    /// Validates the quadrant against the configured target and prepares
    /// an incremental kernel run.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the target extent exceeds the
    /// quadrant or is zero.
    pub fn start(&self, quadrant: &AtomGrid) -> Result<KernelState, Error> {
        self.start_in(quadrant, None)
    }

    /// [`start`](Self::start), optionally reusing recycled buffers (see
    /// [`KernelScratch::reclaim`]): the grid words and the pass vector
    /// are reinitialised in place instead of freshly allocated.
    /// Behaviour is bit-identical to `start` either way.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the target extent exceeds the
    /// quadrant or is zero.
    pub fn start_in(
        &self,
        quadrant: &AtomGrid,
        recycled: Option<KernelScratch>,
    ) -> Result<KernelState, Error> {
        self.start_with(quadrant, recycled, None)
    }

    /// [`start_in`](Self::start_in) that additionally accepts a recycled
    /// per-pass working buffer (see [`PassScratch`]), completing the
    /// allocation-free steady state: with both scratches warm, the whole
    /// start/step/finish cycle reuses previously allocated memory.
    /// Behaviour is bit-identical regardless of which scratches are
    /// supplied.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] when the target extent exceeds the
    /// quadrant or is zero.
    pub fn start_with(
        &self,
        quadrant: &AtomGrid,
        recycled: Option<KernelScratch>,
        pass: Option<PassScratch>,
    ) -> Result<KernelState, Error> {
        let (qh, qw) = quadrant.dims();
        let (th, tw) = (self.config.target_height, self.config.target_width);
        if th > qh || tw > qw {
            return Err(Error::InvalidTarget {
                reason: "target extent exceeds quadrant",
            });
        }
        if th == 0 || tw == 0 {
            return Err(Error::InvalidTarget {
                reason: "target has zero extent",
            });
        }
        let (grid, passes) = match recycled {
            Some(mut scrap) => {
                scrap.grid.clone_from(quadrant);
                scrap.passes.clear();
                (scrap.grid, scrap.passes)
            }
            None => (quadrant.clone(), Vec::new()),
        };
        Ok(KernelState {
            grid,
            passes,
            scratch: pass.unwrap_or_default(),
            iterations: 0,
            done: self.config.max_iterations == 0,
        })
    }

    /// Advances an incremental run by **one iteration** (one row pass
    /// plus one column pass), honouring the same early-exit rules as
    /// [`run`](Self::run). Returns `true` once the run is complete (no
    /// further `step` will change the state).
    ///
    /// # Errors
    ///
    /// Propagates fill-check failures (impossible for states produced by
    /// [`start`](Self::start)).
    pub fn step(&self, state: &mut KernelState) -> Result<bool, Error> {
        if state.done {
            return Ok(true);
        }
        let target = Rect::new(0, 0, self.config.target_height, self.config.target_width);
        if !self.config.static_iterations && state.grid.is_filled(&target)? {
            state.done = true;
            return Ok(true);
        }
        let (qh, qw) = state.grid.dims();
        let (th, tw) = (self.config.target_height, self.config.target_width);
        state.iterations += 1;
        let strategy = self.config.strategy;
        let mut windows = std::mem::take(&mut state.scratch.windows);
        row_windows_into(&state.grid, strategy, th, tw, &mut windows);
        let row_pass = run_pass_in(
            &mut state.grid,
            Axis::Row,
            &windows.rows,
            self.config.row_enable.as_deref(),
            &mut state.scratch,
        );
        col_windows_into(strategy, qh, qw, th, tw, &mut windows.cols);
        let col_pass = run_pass_in(
            &mut state.grid,
            Axis::Col,
            &windows.cols,
            self.config.col_enable.as_deref(),
            &mut state.scratch,
        );
        state.scratch.windows = windows;
        let progressed = row_pass.shift_count() + col_pass.shift_count() > 0;
        state.passes.push(row_pass);
        state.passes.push(col_pass);
        if (!progressed && !self.config.static_iterations)
            || state.iterations >= self.config.max_iterations
        {
            state.done = true;
        }
        Ok(state.done)
    }

    /// Consumes an incremental run and produces the outcome.
    ///
    /// # Errors
    ///
    /// Propagates fill-check failures (impossible for states produced by
    /// [`start`](Self::start)).
    pub fn finish(&self, state: KernelState) -> Result<KernelOutcome, Error> {
        self.finish_split(state).map(|(outcome, _)| outcome)
    }

    /// [`finish`](Self::finish) that also hands back the run's per-pass
    /// working buffer for recycling into a later
    /// [`start_with`](Self::start_with) — the outcome itself cannot
    /// carry it ([`KernelOutcome`] is a plain value type compared
    /// structurally by tests and constructed literally by the FPGA
    /// model).
    ///
    /// # Errors
    ///
    /// Propagates fill-check failures (impossible for states produced by
    /// [`start`](Self::start)).
    pub fn finish_split(&self, state: KernelState) -> Result<(KernelOutcome, PassScratch), Error> {
        let target = Rect::new(0, 0, self.config.target_height, self.config.target_width);
        let filled = state.grid.is_filled(&target)?;
        Ok((
            KernelOutcome {
                passes: state.passes,
                final_grid: state.grid,
                iterations: state.iterations,
                filled,
            },
            state.scratch,
        ))
    }
}

/// Computes the per-row `(floor, limit)` hole windows for a horizontal
/// pass — the strategy-specific planning step of the kernel. Exposed so
/// the cycle-accurate FPGA model (`qrm-fpga`) drives its pipelined shift
/// units with exactly the same windows.
///
/// The balanced strategy plans *quota parking*: each row is flushed only
/// down to a *floor* chosen over the columns whose projected atom supply
/// is still short of the target height. Because atoms only ever move
/// toward column 0, deficits to the **right** are the scarce resource —
/// only atoms still east of them can ever serve them — so the floor is
/// picked to maximise the number of deficient columns covered by the
/// row's resulting pile, breaking ties toward the east. Floors are chosen
/// sequentially, simulating each row's pass and updating the per-column
/// supply, so each deficient column receives parked atoms from as many
/// distinct rows as it still needs. Atoms right of the target band that
/// are not yet needed stay parked there as a reserve for later iterations
/// (the balanced vertical pass deliberately leaves those columns
/// untouched).
pub fn plan_row_windows(
    grid: &AtomGrid,
    strategy: KernelStrategy,
    th: usize,
    tw: usize,
) -> Vec<(usize, usize)> {
    let mut windows = Windows::default();
    row_windows_into(grid, strategy, th, tw, &mut windows);
    windows.rows
}

/// [`plan_row_windows`] into `windows.rows`, reusing its buffers.
fn row_windows_into(
    grid: &AtomGrid,
    strategy: KernelStrategy,
    th: usize,
    tw: usize,
    windows: &mut Windows,
) {
    let (qh, qw) = grid.dims();
    let limits = &mut windows.rows;
    limits.clear();
    match strategy {
        KernelStrategy::Greedy => limits.resize(qh, (0, qw)),
        KernelStrategy::GreedyTargetOnly => limits.resize(qh, (0, tw)),
        KernelStrategy::Balanced => {
            // Live supply per target column: every atom already in
            // column c can be drained into the target band by the
            // vertical pass, so a column is satisfied once its total
            // supply reaches the target height.
            let supply = &mut windows.supply;
            supply.clear();
            supply.extend((0..tw).map(|c| grid.col_count(c)));
            let line = &mut windows.line;
            for r in 0..qh {
                let floor = best_floor(grid.row_bits(r), supply, th, tw);
                let limit = if r < th { tw } else { qw };
                limits.push((floor.min(limit), limit));
                // Simulate this row's single-traversal pass to keep
                // the supply projection accurate for the remaining
                // rows (same semantics as `run_pass`).
                line.clear();
                line.extend_from_slice(grid.row_bits(r));
                for k in floor.min(limit)..limit {
                    if !bitline::get(line, k)
                        && bitline::highest_one(line).is_some_and(|top| top > k)
                    {
                        bitline::suffix_shift(line, k, qw);
                    }
                }
                for_each_one_below(grid.row_bits(r), tw, |p| supply[p] -= 1);
                for_each_one_below(line, tw, |p| supply[p] += 1);
            }
        }
    }
}

/// Calls `f` on every set bit of `words` below `end`, in ascending
/// order; [`bitline::ones`] without the vector.
fn for_each_one_below(words: &[u64], end: usize, mut f: impl FnMut(usize)) {
    for (i, &word) in words.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            let p = i * bitline::WORD_BITS + rest.trailing_zeros() as usize;
            if p >= end {
                return;
            }
            f(p);
            rest &= rest - 1;
        }
    }
}

/// Picks the parking floor for one row under the balanced strategy: the
/// floor whose resulting pile covers the most still-deficient columns,
/// preferring larger floors on ties (right deficits can only be served
/// by atoms still east of them; left deficits keep more options open).
/// Returns `tw` (hold the reserve right of the band) when the row cannot
/// serve any deficit.
fn best_floor(bits: &[u64], supply: &[usize], th: usize, tw: usize) -> usize {
    let deficient = |c: usize| supply[c] < th;
    let Some(top) = bitline::highest_one(bits) else {
        return tw; // empty row: window is irrelevant
    };
    // Rightmost deficit this row can reach with at least one atom.
    let Some(rd) = (0..tw).rev().find(|&c| deficient(c) && top >= c) else {
        return tw;
    };
    // Evaluate candidate floors: a pile anchored at `floor` holds the
    // row's atoms at positions >= floor and covers floor..floor+n-1.
    // Ascending iteration with `>=` keeps the largest floor among the
    // maxima, so atoms are never flushed past a right deficit needlessly.
    let mut best = tw;
    let mut best_cover = 0usize;
    for floor in 0..=rd {
        let n = (floor..=top).filter(|&p| bitline::get(bits, p)).count();
        if n == 0 {
            continue;
        }
        let hi = (floor + n).min(tw);
        let cover = (floor..hi).filter(|&c| deficient(c)).count();
        if cover > 0 && cover >= best_cover {
            best_cover = cover;
            best = floor;
        }
    }
    best
}

/// Computes the per-column `(floor, limit)` hole windows for a vertical
/// pass. Columns are the lines of the pass; the window bounds hole
/// positions along each column (i.e. row indices). Exposed for the FPGA
/// model, like [`plan_row_windows`].
pub fn plan_col_windows(
    strategy: KernelStrategy,
    qh: usize,
    qw: usize,
    th: usize,
    tw: usize,
) -> Vec<(usize, usize)> {
    let mut limits = Vec::new();
    col_windows_into(strategy, qh, qw, th, tw, &mut limits);
    limits
}

/// [`plan_col_windows`] into `limits`, reusing its buffer.
fn col_windows_into(
    strategy: KernelStrategy,
    qh: usize,
    qw: usize,
    th: usize,
    tw: usize,
    limits: &mut Vec<(usize, usize)>,
) {
    limits.clear();
    match strategy {
        KernelStrategy::Greedy => limits.resize(qw, (0, qh)),
        // Only fill holes inside the target band of rows; atoms above
        // still ride the suffix down into them.
        KernelStrategy::GreedyTargetOnly => limits.resize(qw, (0, th)),
        // Drain only target columns; columns right of the band keep
        // their parked reserve for later horizontal passes.
        KernelStrategy::Balanced => {
            limits.extend((0..qw).map(|c| if c < tw { (0, th) } else { (0, 0) }));
        }
    }
}

/// Runs one pass along `axis`, mutating `grid`.
///
/// The pass is a **single pipelined traversal** exactly like the FPGA
/// shift unit of Fig. 6: every line is scanned from position 0 upward; at
/// each scan position `k` inside the line's `(floor, limit)` window, if
/// the position is a hole with atoms above it, a suffix shift fires and
/// scanning proceeds to `k + 1`. At most one shift fires per position per
/// line, so the emission time of every shift command is statically known —
/// the property the paper's Row Combination Unit exploits (§IV-C). Wave
/// `k` of the returned pass holds all shifts that fired at scan position
/// `k` (interior empty waves are retained to preserve that alignment;
/// trailing empty waves are trimmed).
///
/// `limits[line]` is the `(floor, limit)` hole window per line; lines
/// beyond `limits.len()` use `(0, line_length)`. The scan ends at the
/// largest `limit` given, so no window reaches past it.
pub fn run_pass(
    grid: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
) -> LocalPass {
    run_pass_in(grid, axis, limits, enable, &mut PassScratch::new())
}

/// [`run_pass`] with a caller-owned [`PassScratch`]: a warm scratch makes
/// the pass allocation-free (row passes mutate the grid's rows in place;
/// column passes transpose into the scratch view and back, reusing both
/// word buffers). Bit-identical to [`run_pass`] for any scratch state.
pub fn run_pass_in(
    grid: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
    scratch: &mut PassScratch,
) -> LocalPass {
    // Work on lines along the pass axis: rows directly in place, or
    // columns via the scratch-held transposed view (the hardware "column
    // stream to row stream" trick).
    match axis {
        Axis::Row => pass_over_lines(grid, axis, limits, enable, &mut scratch.log),
        Axis::Col => {
            grid.transpose_into(&mut scratch.view);
            let pass = pass_over_lines(&mut scratch.view, axis, limits, enable, &mut scratch.log);
            scratch.view.transpose_into(grid);
            pass
        }
    }
}

/// The single pipelined traversal of [`run_pass`], shifting the rows of
/// `view` in place.
///
/// Event-driven: rather than testing every scan position of every line,
/// each line jumps from hole to hole with [`bitline::eligible_hole`] —
/// the lowest empty position at or above the scan cursor with an atom
/// above it, which is exactly the next position the traversal would
/// fire at. Lines are independent, so walking them one after another in
/// ascending order and grouping the logged shifts by hole leaves every
/// wave's shifts in line order, as the position-major traversal emits
/// them. The work is proportional to the shifts emitted, not to
/// `lines x positions`.
fn pass_over_lines(
    view: &mut AtomGrid,
    axis: Axis,
    limits: &[(usize, usize)],
    enable: Option<&[bool]>,
    log: &mut ShiftLog,
) -> LocalPass {
    let (nlines, linelen) = (view.height(), view.width());
    // No line scans beyond the widest window (or the line itself).
    let scan_end = limits
        .iter()
        .map(|&(_, hi)| hi)
        .max()
        .unwrap_or(linelen)
        .min(linelen);
    log.shifts.clear();
    for line in 0..nlines {
        if enable.is_some_and(|en| !en.get(line).copied().unwrap_or(true)) {
            continue;
        }
        let (floor, limit) = limits.get(line).copied().unwrap_or((0, linelen));
        let limit = limit.min(scan_end);
        let bits = view.row_bits_mut(line);
        let mut cursor = floor;
        while let Some(hole) = bitline::eligible_hole(bits, cursor, limit) {
            bitline::suffix_shift(bits, hole, linelen);
            log.shifts.push(LocalShift { line, hole });
            cursor = hole + 1;
        }
    }
    log.group_waves(axis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Position;
    use crate::loading::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    /// Replays the waves of an outcome onto a fresh copy of the input and
    /// checks the result matches `final_grid` — the property the merge
    /// stage relies on.
    fn replay(input: &AtomGrid, outcome: &KernelOutcome) -> AtomGrid {
        let mut g = input.clone();
        for pass in &outcome.passes {
            for wave in pass.waves() {
                let mut view = match pass.axis {
                    Axis::Row => g.clone(),
                    Axis::Col => g.transpose(),
                };
                let w = view.width();
                for s in wave {
                    let mut bits = view.row_bits(s.line).to_vec();
                    assert!(
                        !bitline::get(&bits, s.hole),
                        "replay: hole {} of line {} occupied",
                        s.hole,
                        s.line
                    );
                    bitline::suffix_shift(&mut bits, s.hole, w);
                    view.set_row_bits(s.line, &bits);
                }
                g = match pass.axis {
                    Axis::Row => view,
                    Axis::Col => view.transpose(),
                };
            }
        }
        g
    }

    /// Reference pass: the position-major scan of every `k` in
    /// `0..scan_end` over every line, on a per-site transposed view.
    /// The event-driven [`run_pass_in`] must reproduce it exactly.
    fn run_pass_reference(
        grid: &mut AtomGrid,
        axis: Axis,
        limits: &[(usize, usize)],
        enable: Option<&[bool]>,
    ) -> LocalPass {
        let transpose = |g: &AtomGrid| {
            let mut out = AtomGrid::new(g.width(), g.height()).unwrap();
            for p in g.occupied() {
                out.set_unchecked(p.col, p.row, true);
            }
            out
        };
        let mut view = match axis {
            Axis::Row => grid.clone(),
            Axis::Col => transpose(grid),
        };
        let (nlines, linelen) = view.dims();
        let scan_end = limits
            .iter()
            .map(|&(_, hi)| hi)
            .max()
            .unwrap_or(linelen)
            .min(linelen);
        let mut waves = Vec::new();
        for k in 0..scan_end {
            let mut wave = Vec::new();
            for line in 0..nlines {
                if let Some(en) = enable {
                    if !en.get(line).copied().unwrap_or(true) {
                        continue;
                    }
                }
                let (floor, limit) = limits.get(line).copied().unwrap_or((0, linelen));
                if k < floor || k >= limit.min(linelen) {
                    continue;
                }
                let mut bits = view.row_bits(line).to_vec();
                if !bitline::get(&bits, k) && bitline::highest_one(&bits).is_some_and(|t| t > k) {
                    bitline::suffix_shift(&mut bits, k, linelen);
                    view.set_row_bits(line, &bits);
                    wave.push(LocalShift { line, hole: k });
                }
            }
            waves.push(wave);
        }
        *grid = match axis {
            Axis::Row => view,
            Axis::Col => transpose(&view),
        };
        LocalPass::from_waves(axis, &waves)
    }

    /// An arbitrary pass input: grid (multi-word in either axis), axis,
    /// `(floor, limit)` windows (too few, too many, `limit` beyond the
    /// line, `floor >= limit`) and an optional, possibly short, enable
    /// mask.
    #[allow(clippy::type_complexity)]
    fn arb_pass_input(
    ) -> impl Strategy<Value = (AtomGrid, Axis, Vec<(usize, usize)>, Option<Vec<bool>>)> {
        (
            1usize..131,
            1usize..131,
            0.0f64..1.0,
            any::<u64>(),
            any::<bool>(),
        )
            .prop_map(|(h, w, fill, seed, rows)| {
                let mut rng = seeded_rng(seed);
                let grid = AtomGrid::random(h, w, fill, &mut rng);
                let (axis, nlines, len) = if rows {
                    (Axis::Row, h, w)
                } else {
                    (Axis::Col, w, h)
                };
                let nlimits = rng.gen_range(0..nlines + 4);
                let limits = (0..nlimits)
                    .map(|_| {
                        let floor = if rng.gen_bool(0.5) {
                            0
                        } else {
                            rng.gen_range(0..len + 6)
                        };
                        (floor, rng.gen_range(0..len + 6))
                    })
                    .collect();
                let enable = rng.gen_bool(0.5).then(|| {
                    let n = rng.gen_range(0..nlines + 4);
                    (0..n).map(|_| rng.gen_bool(0.8)).collect()
                });
                (grid, axis, limits, enable)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn event_driven_pass_matches_position_scan(
            (grid, axis, limits, enable) in arb_pass_input()
        ) {
            let mut expected_grid = grid.clone();
            let expected =
                run_pass_reference(&mut expected_grid, axis, &limits, enable.as_deref());
            let mut got_grid = grid;
            let got = run_pass_in(
                &mut got_grid,
                axis,
                &limits,
                enable.as_deref(),
                &mut PassScratch::new(),
            );
            prop_assert_eq!(got, expected);
            prop_assert_eq!(got_grid, expected_grid);
        }

        #[test]
        fn local_pass_reads_back_its_waves(
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..40, 0usize..40), 0..4),
                0..10,
            ),
            rows in any::<bool>(),
        ) {
            let axis = if rows { Axis::Row } else { Axis::Col };
            let waves: Vec<Vec<LocalShift>> = raw
                .iter()
                .map(|w| w.iter().map(|&(line, hole)| LocalShift { line, hole }).collect())
                .collect();
            let pass = LocalPass::from_waves(axis, &waves);
            // Trailing empty waves are trimmed, interior ones kept.
            let kept = waves.iter().rposition(|w| !w.is_empty()).map_or(0, |k| k + 1);
            prop_assert_eq!(pass.axis, axis);
            prop_assert_eq!(pass.wave_count(), kept);
            prop_assert_eq!(pass.waves().len(), kept);
            for (k, wave) in pass.waves().enumerate() {
                prop_assert_eq!(wave, &waves[k][..]);
                prop_assert_eq!(pass.wave(k), Some(&waves[k][..]));
            }
            prop_assert_eq!(pass.wave(kept), None);
            let total: usize = waves.iter().map(Vec::len).sum();
            prop_assert_eq!(pass.shift_count(), total);
            prop_assert_eq!(&LocalPass::from_waves(axis, &waves[..kept]), &pass);
        }
    }

    fn run(grid: &AtomGrid, th: usize, tw: usize, strategy: KernelStrategy) -> KernelOutcome {
        ShiftKernel::new(KernelConfig::new(th, tw).with_strategy(strategy))
            .run(grid)
            .unwrap()
    }

    #[test]
    fn rejects_oversized_or_zero_target() {
        let g = AtomGrid::new(4, 4).unwrap();
        assert!(ShiftKernel::new(KernelConfig::new(5, 2)).run(&g).is_err());
        assert!(ShiftKernel::new(KernelConfig::new(2, 5)).run(&g).is_err());
        assert!(ShiftKernel::new(KernelConfig::new(0, 2)).run(&g).is_err());
    }

    #[test]
    fn trivial_already_filled() {
        let g = AtomGrid::parse("##..\n##..\n....\n....").unwrap();
        let out = run(&g, 2, 2, KernelStrategy::Greedy);
        assert!(out.filled);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.shift_count(), 0);
        assert_eq!(out.final_grid, g);
    }

    #[test]
    fn single_row_compaction() {
        let g = AtomGrid::parse(".#.#").unwrap();
        let out = run(&g, 1, 2, KernelStrategy::Greedy);
        assert!(out.filled);
        assert_eq!(out.final_grid, AtomGrid::parse("##..").unwrap());
    }

    #[test]
    fn greedy_fills_small_quadrant() {
        // 8x8 half-filled quadrant, 4x4 target: ample slack.
        let mut rng = seeded_rng(21);
        let mut ok = 0;
        for _ in 0..20 {
            let g = AtomGrid::random(8, 8, 0.5, &mut rng);
            if g.atom_count() < 16 {
                continue;
            }
            let out = run(&g, 4, 4, KernelStrategy::Greedy);
            assert_eq!(out.final_grid.atom_count(), g.atom_count());
            if out.filled {
                ok += 1;
            }
        }
        assert!(ok >= 15, "greedy filled only {ok}/20 easy instances");
    }

    #[test]
    fn balanced_fills_paper_scale_quadrant() {
        // The headline case per quadrant: 25x25 at 50% fill, 15x15 target.
        let mut rng = seeded_rng(99);
        let mut filled = 0;
        let mut tried = 0;
        for _ in 0..20 {
            let g = AtomGrid::random(25, 25, 0.5, &mut rng);
            if g.atom_count() < 240 {
                continue; // keep a supply margin over the 225 required
            }
            tried += 1;
            let out = run(&g, 15, 15, KernelStrategy::Balanced);
            assert_eq!(out.final_grid.atom_count(), g.atom_count());
            if out.filled {
                filled += 1;
            }
        }
        assert!(tried >= 10, "seed produced too few feasible instances");
        assert!(
            filled * 10 >= tried * 9,
            "balanced filled only {filled}/{tried}"
        );
    }

    #[test]
    fn balanced_beats_greedy_on_stress_instance() {
        // Construct a distribution where greedy corner compaction
        // under-covers: many short rows plus a few long ones.
        let mut g = AtomGrid::new(10, 10).unwrap();
        // rows 0..6: 3 atoms each (can't reach column 4 alone)
        for r in 0..7 {
            for c in 0..3 {
                g.set_unchecked(r, c, true);
            }
        }
        // rows 7..10: full rows (supply)
        for r in 7..10 {
            for c in 0..10 {
                g.set_unchecked(r, c, true);
            }
        }
        let target = Rect::new(0, 0, 5, 5);
        let greedy = run(&g, 5, 5, KernelStrategy::Greedy);
        let balanced = run(&g, 5, 5, KernelStrategy::Balanced);
        let greedy_fill = greedy.final_grid.count_in(&target).unwrap();
        let balanced_fill = balanced.final_grid.count_in(&target).unwrap();
        assert!(balanced.filled, "balanced should fill: {balanced_fill}/25");
        assert!(
            balanced_fill >= greedy_fill,
            "balanced {balanced_fill} < greedy {greedy_fill}"
        );
    }

    #[test]
    fn waves_replay_to_final_grid() {
        let mut rng = seeded_rng(5);
        for strategy in [
            KernelStrategy::Greedy,
            KernelStrategy::GreedyTargetOnly,
            KernelStrategy::Balanced,
        ] {
            for _ in 0..10 {
                let g = AtomGrid::random(12, 12, 0.5, &mut rng);
                let out = run(&g, 7, 7, strategy);
                assert_eq!(replay(&g, &out), out.final_grid, "{strategy:?}");
            }
        }
    }

    #[test]
    fn atoms_only_move_toward_corner() {
        // Monotonicity: total (row+col) weight never increases.
        let mut rng = seeded_rng(31);
        let g = AtomGrid::random(10, 10, 0.5, &mut rng);
        let weight =
            |g: &AtomGrid| -> usize { g.occupied().map(|p: Position| p.row + p.col).sum() };
        let out = run(&g, 6, 6, KernelStrategy::Balanced);
        assert!(weight(&out.final_grid) <= weight(&g));
    }

    #[test]
    fn passes_alternate_axes() {
        let mut rng = seeded_rng(8);
        let g = AtomGrid::random(10, 10, 0.5, &mut rng);
        let out = run(&g, 6, 6, KernelStrategy::Balanced);
        for (i, pass) in out.passes.iter().enumerate() {
            let expect = if i % 2 == 0 { Axis::Row } else { Axis::Col };
            assert_eq!(pass.axis, expect, "pass {i}");
        }
    }

    #[test]
    fn row_enable_blocks_rows() {
        let g = AtomGrid::parse(".#\n.#").unwrap();
        let mut cfg = KernelConfig::new(2, 2).with_strategy(KernelStrategy::Greedy);
        cfg.row_enable = Some(vec![true, false]);
        let out = ShiftKernel::new(cfg).run(&g).unwrap();
        // Row 0 compacts; row 1 is sen-blocked; its atom can still be
        // reached by the column pass though — column 1 pulls nothing
        // since column passes are separately enabled.
        assert!(out.final_grid.get_unchecked(0, 0), "row 0 compacted");
        // row 1's atom stayed at column 1 (blocked) until a column pass
        // moved it vertically (column 1, toward row 0) — but row 0 col 1
        // was emptied by row 0's shift... verify row1 never shifted
        // horizontally: its atom is in column 1 or moved only vertically.
        let atoms: Vec<Position> = out.final_grid.occupied().collect();
        assert!(atoms.iter().all(|p| !(p.row == 1 && p.col == 0)));
    }

    #[test]
    fn max_iterations_bounds_work() {
        let mut rng = seeded_rng(77);
        let g = AtomGrid::random(20, 20, 0.5, &mut rng);
        let out = ShiftKernel::new(
            KernelConfig::new(12, 12)
                .with_strategy(KernelStrategy::Balanced)
                .with_max_iterations(1),
        )
        .run(&g)
        .unwrap();
        assert!(out.iterations <= 1);
        assert!(out.passes.len() <= 2);
    }

    #[test]
    fn iteration_count_matches_paper_narrative() {
        // Paper §V-B: "four iterations were used to complete the entire
        // process". With the default 8-iteration budget, the balanced
        // kernel should fill essentially always, and a clear majority of
        // paper-scale quadrants should finish within the paper's 4.
        let mut rng = seeded_rng(1312);
        let mut filled = 0;
        let mut within_four = 0;
        let mut tried = 0;
        for _ in 0..15 {
            let g = AtomGrid::random(25, 25, 0.5, &mut rng);
            if g.atom_count() < 240 {
                continue;
            }
            tried += 1;
            let out = run(&g, 15, 15, KernelStrategy::Balanced);
            if out.filled {
                filled += 1;
                if out.iterations <= 4 {
                    within_four += 1;
                }
            }
        }
        assert!(
            filled * 10 >= tried * 9,
            "only {filled}/{tried} filled at all"
        );
        assert!(
            within_four * 2 >= tried,
            "only {within_four}/{tried} finished within 4 iterations"
        );
    }

    #[test]
    fn warm_scratch_runs_are_bit_identical_to_fresh() {
        // Chain scratches across runs of *different* grids and
        // strategies so warm buffers always carry stale contents in, and
        // compare against a cold run of the same input.
        let mut rng = seeded_rng(4242);
        let mut warm: Option<(KernelScratch, PassScratch)> = None;
        for case in 0..6 {
            for strategy in [
                KernelStrategy::Greedy,
                KernelStrategy::GreedyTargetOnly,
                KernelStrategy::Balanced,
            ] {
                let g = AtomGrid::random(12, 10, 0.55, &mut rng);
                let kernel = ShiftKernel::new(KernelConfig::new(4, 4).with_strategy(strategy));
                let fresh = kernel.run(&g).unwrap();
                let (recycled, pass) = match warm.take() {
                    Some((k, p)) => (Some(k), Some(p)),
                    None => (None, None),
                };
                let mut state = kernel.start_with(&g, recycled, pass).unwrap();
                while !kernel.step(&mut state).unwrap() {}
                let (out, pass) = kernel.finish_split(state).unwrap();
                assert_eq!(
                    out, fresh,
                    "case {case}/{strategy:?}: warm-scratch outcome diverged from fresh"
                );
                warm = Some((KernelScratch::reclaim(out), pass));
            }
        }
    }
}
