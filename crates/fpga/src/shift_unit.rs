//! Cycle-accurate model of the pipelined Shift Kernel (paper Fig. 6).
//!
//! The unit processes one *pass* over a set of bit-vector lines. Lines
//! enter the pipeline one per clock cycle (initiation interval 1) and
//! traverse `line_len` stages; stage `k` inspects the line's current
//! least-significant bit — logically, array position `k` — and
//!
//! * if the position is an eligible hole (inside the line's shift window,
//!   empty, with atoms above it), issues a **shift command** and advances
//!   the suffix register one extra position ("we shift the entire row by
//!   one to the right to check the next bit");
//! * writes the resulting bit into the **column buffer** for position `k`
//!   (the row-stream → column-stream transposition of Fig. 6);
//! * records the command bit into the **shift-commands buffer**.
//!
//! Because each stage takes exactly one cycle, the emission time of every
//! command is statically known (line `l`, stage `k` → cycle `l + k`),
//! which is what lets the Row Combination Unit merge quadrant streams
//! without handshaking (§IV-C). The per-line `sen` enable and the
//! `(floor, limit)` windows realise the paper's manual-control mechanism
//! and the balanced-strategy parking floors.
//!
//! The functional output is bit-exact with
//! [`qrm_core::kernel::run_pass`]; the unit additionally reports exact
//! cycle counts and an optional per-cycle trace.

use qrm_core::bitline;
use qrm_core::geometry::Axis;
use qrm_core::kernel::{LocalPass, LocalShift};

/// One line of work for a pass.
#[derive(Debug, Clone)]
pub struct LineJob {
    /// Line index (row or column number in the quadrant).
    pub line: usize,
    /// Line contents, little-endian bit-packed.
    pub bits: Vec<u64>,
    /// `(floor, limit)` hole window; shifts fire only at positions within.
    pub window: (usize, usize),
    /// The `sen` enable: a disabled line passes through unchanged.
    pub enabled: bool,
}

/// One pipeline event, for waveform-style inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulation cycle of the event.
    pub cycle: u64,
    /// Line being processed.
    pub line: usize,
    /// Pipeline stage (= scan position).
    pub stage: usize,
    /// Whether a shift command fired.
    pub fired: bool,
    /// Bit written to the column buffer.
    pub column_bit: bool,
}

/// Result of streaming one pass through the unit.
#[derive(Debug, Clone)]
pub struct PassTrace {
    axis: Axis,
    line_len: usize,
    /// `commands[k]` = shifts issued at scan position `k`.
    commands: Vec<Vec<LocalShift>>,
    /// Final line contents, in input order.
    out_lines: Vec<(usize, Vec<u64>)>,
    /// Total cycles from first line in to last line retired.
    cycles: u64,
    /// Cycles spent issuing lines (= number of lines; II = 1).
    issue_cycles: u64,
    events: Vec<TraceEvent>,
}

impl PassTrace {
    /// Total simulation cycles for the pass.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Line-issue cycles (one line per cycle).
    pub fn issue_cycles(&self) -> u64 {
        self.issue_cycles
    }

    /// Pipeline depth (= line length).
    pub fn depth(&self) -> usize {
        self.line_len
    }

    /// Final line contents keyed by line index, in input order.
    pub fn out_lines(&self) -> &[(usize, Vec<u64>)] {
        &self.out_lines
    }

    /// Per-cycle trace events (empty unless tracing was enabled).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total shift commands issued.
    pub fn shift_count(&self) -> usize {
        self.commands.iter().map(Vec::len).sum()
    }

    /// Converts the command stream into the kernel's [`LocalPass`] form:
    /// wave `k` holds the commands of scan position `k`, with trailing
    /// empty waves trimmed (identical to the software kernel).
    pub fn to_local_pass(&self) -> LocalPass {
        LocalPass::from_waves(self.axis, &self.commands)
    }
}

/// The pipelined shift unit.
///
/// ```
/// use qrm_fpga::shift_unit::{LineJob, ShiftUnit};
/// use qrm_core::geometry::Axis;
///
/// // Two 4-bit lines: ".#.#" and "..##" (LSB = position 0).
/// let jobs = vec![
///     LineJob { line: 0, bits: vec![0b1010], window: (0, 4), enabled: true },
///     LineJob { line: 1, bits: vec![0b1100], window: (0, 4), enabled: true },
/// ];
/// let unit = ShiftUnit::new(4);
/// let trace = unit.run(Axis::Row, &jobs);
/// // II=1 pipeline: 2 lines + 4 stages.
/// assert_eq!(trace.cycles(), 2 + 4);
/// assert!(trace.shift_count() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ShiftUnit {
    line_len: usize,
    trace_events: bool,
}

/// A line in flight through the pipeline.
#[derive(Debug, Clone)]
struct InFlight {
    line: usize,
    /// Suffix register: bit 0 is the bit at the current stage position.
    reg: Vec<u64>,
    /// Remaining width held in `reg`.
    remaining: usize,
    window: (usize, usize),
    enabled: bool,
    /// Finalised output bits.
    out: Vec<u64>,
}

impl ShiftUnit {
    /// Creates a unit for lines of `line_len` positions.
    ///
    /// # Panics
    ///
    /// Panics when `line_len` is zero.
    pub fn new(line_len: usize) -> Self {
        assert!(line_len > 0, "line length must be positive");
        ShiftUnit {
            line_len,
            trace_events: false,
        }
    }

    /// Enables per-cycle trace-event collection.
    #[must_use]
    pub fn with_trace(mut self, enabled: bool) -> Self {
        self.trace_events = enabled;
        self
    }

    /// Streams `jobs` through the pipeline along `axis`, one line per
    /// cycle, and returns the full pass trace.
    ///
    /// # Panics
    ///
    /// Panics when a job's bit vector is shorter than the line length.
    pub fn run(&self, axis: Axis, jobs: &[LineJob]) -> PassTrace {
        let depth = self.line_len;
        let words = bitline::words_for(depth);
        let mut commands: Vec<Vec<LocalShift>> = vec![Vec::new(); depth];
        let mut out_lines: Vec<(usize, Vec<u64>)> = Vec::with_capacity(jobs.len());
        let mut events = Vec::new();

        // stage k at index k; None = bubble.
        let mut pipeline: Vec<Option<InFlight>> = vec![None; depth];
        let mut next_in = 0usize;
        let mut cycles: u64 = 0;
        let mut retired = 0usize;

        while retired < jobs.len() {
            // Advance stages from the back so each line moves one stage
            // per cycle.
            for k in (0..depth).rev() {
                let Some(mut fl) = pipeline[k].take() else {
                    continue;
                };
                // Stage k logic: `reg` bit 0 is array position k.
                debug_assert_eq!(fl.remaining, depth - k);
                let (floor, limit) = fl.window;
                let occupied = bitline::get(&fl.reg, 0);
                let atoms_above = bitline::highest_one(&fl.reg).is_some_and(|t| t >= 1);
                let fire = fl.enabled && k >= floor && k < limit && !occupied && atoms_above;
                if fire {
                    commands[k].push(LocalShift {
                        line: fl.line,
                        hole: k,
                    });
                    // Suffix shift: position k takes the old k+1 value;
                    // the valid span k..depth is unchanged (top fills 0).
                    shift_reg(&mut fl.reg);
                }
                let column_bit = bitline::get(&fl.reg, 0);
                if column_bit {
                    bitline::set(&mut fl.out, k, true);
                }
                if self.trace_events {
                    events.push(TraceEvent {
                        cycle: cycles,
                        line: fl.line,
                        stage: k,
                        fired: fire,
                        column_bit,
                    });
                }
                // Consume the inspected position and move to stage k+1.
                shift_reg(&mut fl.reg);
                fl.remaining -= 1;
                if k + 1 < depth {
                    pipeline[k + 1] = Some(fl);
                } else {
                    out_lines.push((fl.line, fl.out));
                    retired += 1;
                }
            }
            // Issue a new line into stage 0 (II = 1).
            if next_in < jobs.len() && pipeline[0].is_none() {
                let job = &jobs[next_in];
                assert!(
                    job.bits.len() >= words,
                    "line {} bits shorter than line length",
                    job.line
                );
                pipeline[0] = Some(InFlight {
                    line: job.line,
                    reg: job.bits.clone(),
                    remaining: depth,
                    window: job.window,
                    enabled: job.enabled,
                    out: vec![0u64; words],
                });
                next_in += 1;
            }
            cycles += 1;
        }

        PassTrace {
            axis,
            line_len: depth,
            commands,
            out_lines,
            cycles,
            issue_cycles: jobs.len() as u64,
            events,
        }
    }
}

/// Shifts a multi-word register right by one bit.
fn shift_reg(reg: &mut [u64]) {
    let n = reg.len();
    for i in 0..n {
        let next = if i + 1 < n { reg[i + 1] } else { 0 };
        reg[i] = (reg[i] >> 1) | (next << 63);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrm_core::grid::AtomGrid;
    use qrm_core::kernel::{plan_col_windows, plan_row_windows, run_pass, KernelStrategy};
    use qrm_core::loading::seeded_rng;

    fn jobs_from_grid(g: &AtomGrid, windows: &[(usize, usize)]) -> Vec<LineJob> {
        (0..g.height())
            .map(|l| LineJob {
                line: l,
                bits: g.row_bits(l).to_vec(),
                window: windows.get(l).copied().unwrap_or((0, g.width())),
                enabled: true,
            })
            .collect()
    }

    fn grid_from_out(height: usize, width: usize, out: &[(usize, Vec<u64>)]) -> AtomGrid {
        let mut g = AtomGrid::new(height, width).unwrap();
        for (line, bits) in out {
            g.set_row_bits(*line, bits);
        }
        g
    }

    #[test]
    fn single_line_compaction() {
        let jobs = vec![LineJob {
            line: 0,
            bits: vec![0b10110],
            window: (0, 5),
            enabled: true,
        }];
        let trace = ShiftUnit::new(5).run(Axis::Row, &jobs);
        // one traversal of ".##.#": hole 0 fires (-> "##.#."), hole at 3
        // fires later in the scan.
        assert!(trace.shift_count() >= 2);
        let out = &trace.out_lines()[0].1;
        assert_eq!(bitline::count_ones(out), 3);
        assert_eq!(trace.cycles(), 1 + 5);
    }

    #[test]
    fn pipeline_cycle_count_is_lines_plus_depth() {
        let mut rng = seeded_rng(3);
        let g = AtomGrid::random(12, 9, 0.5, &mut rng);
        let windows = vec![(0usize, 9usize); 12];
        let trace = ShiftUnit::new(9).run(Axis::Row, &jobs_from_grid(&g, &windows));
        assert_eq!(trace.cycles(), 12 + 9);
        assert_eq!(trace.issue_cycles(), 12);
        assert_eq!(trace.depth(), 9);
    }

    #[test]
    fn matches_software_kernel_pass_exactly() {
        let mut rng = seeded_rng(7);
        for strategy in [
            KernelStrategy::Greedy,
            KernelStrategy::GreedyTargetOnly,
            KernelStrategy::Balanced,
        ] {
            for _ in 0..10 {
                let g = AtomGrid::random(14, 14, 0.5, &mut rng);
                let windows = plan_row_windows(&g, strategy, 8, 8);
                // software
                let mut sw = g.clone();
                let sw_pass = run_pass(&mut sw, Axis::Row, &windows, None);
                // hardware
                let trace = ShiftUnit::new(14).run(Axis::Row, &jobs_from_grid(&g, &windows));
                let hw_pass = trace.to_local_pass();
                assert_eq!(hw_pass, sw_pass, "{strategy:?}");
                let hw_grid = grid_from_out(14, 14, trace.out_lines());
                assert_eq!(hw_grid, sw, "{strategy:?} grids");
            }
        }
    }

    #[test]
    fn matches_software_kernel_column_pass() {
        let mut rng = seeded_rng(9);
        let g = AtomGrid::random(10, 10, 0.5, &mut rng);
        let windows = plan_col_windows(KernelStrategy::Balanced, 10, 10, 6, 6);
        let mut sw = g.clone();
        let sw_pass = run_pass(&mut sw, Axis::Col, &windows, None);
        // hardware runs on the transposed view (columns as rows)
        let gt = g.transpose();
        let trace = ShiftUnit::new(10).run(Axis::Col, &jobs_from_grid(&gt, &windows));
        assert_eq!(trace.to_local_pass(), sw_pass);
        let hw_grid = grid_from_out(10, 10, trace.out_lines()).transpose();
        assert_eq!(hw_grid, sw);
    }

    #[test]
    fn disabled_lines_pass_through() {
        let jobs = vec![LineJob {
            line: 0,
            bits: vec![0b1010],
            window: (0, 4),
            enabled: false,
        }];
        let trace = ShiftUnit::new(4).run(Axis::Row, &jobs);
        assert_eq!(trace.shift_count(), 0);
        assert_eq!(trace.out_lines()[0].1[0], 0b1010);
    }

    #[test]
    fn window_bounds_respected() {
        // atoms at 2 and 5; window (3, 6): only the hole at 3 and 4 fire.
        let jobs = vec![LineJob {
            line: 0,
            bits: vec![0b100100],
            window: (3, 6),
            enabled: true,
        }];
        let trace = ShiftUnit::new(6).run(Axis::Row, &jobs);
        let pass = trace.to_local_pass();
        for wave in pass.waves() {
            for s in wave {
                assert!((3..6).contains(&s.hole));
            }
        }
        // atom at 2 must not have moved
        assert!(bitline::get(&trace.out_lines()[0].1, 2));
    }

    #[test]
    fn trace_events_cover_all_stages() {
        let mut rng = seeded_rng(2);
        let g = AtomGrid::random(4, 6, 0.5, &mut rng);
        let windows = vec![(0usize, 6usize); 4];
        let trace = ShiftUnit::new(6)
            .with_trace(true)
            .run(Axis::Row, &jobs_from_grid(&g, &windows));
        assert_eq!(trace.events().len(), 4 * 6);
        // static timing: line l stage k at a unique cycle, ordering holds
        for e in trace.events() {
            assert!(e.cycle >= e.stage as u64);
        }
    }

    #[test]
    fn multiword_lines() {
        let mut rng = seeded_rng(11);
        let g = AtomGrid::random(6, 90, 0.5, &mut rng);
        let windows = vec![(0usize, 90usize); 6];
        let mut sw = g.clone();
        let sw_pass = run_pass(&mut sw, Axis::Row, &windows, None);
        let trace = ShiftUnit::new(90).run(Axis::Row, &jobs_from_grid(&g, &windows));
        assert_eq!(trace.to_local_pass(), sw_pass);
        assert_eq!(grid_from_out(6, 90, trace.out_lines()), sw);
    }
}
