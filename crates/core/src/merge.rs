//! Cross-quadrant command merging (paper §IV-C, Row Combination Unit).
//!
//! Each quadrant kernel emits waves of canonical suffix shifts. This
//! module translates them into global coordinates and fuses them into AOD
//! [`ParallelMove`]s:
//!
//! * within one wave, all of a quadrant's shifts execute simultaneously;
//! * NW and SW waves merge (both compress **east** toward the centre
//!   column "from the west"), NE with SE (west), NW with NE (south), and
//!   SW with SE (north);
//! * merged line sets are split into cross-product-legal batches by the
//!   [`AodBatcher`];
//! * empty shifts are elided from the final schedule.
//!
//! The merge keeps a simulated global grid in two orientations: as is
//! for row passes and transposed for column passes, so every pass reads
//! and shifts its lines as grid rows. Only the current pass's
//! orientation is kept up to date; one transpose brings the other up to
//! date when the pass axis changes. A wave's movers (global line plus
//! the atoms beyond its hole) go into one flat mover buffer, one grid
//! row's words per line, that every wave reuses, as do the batcher's
//! buffers and the line-shift scratch; the only allocations per move
//! are the [`ParallelMove`]'s own row and column lists.

use crate::aod::{AodBatcher, Batch, BatchScratch};
use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Direction, QuadrantId};
use crate::grid::AtomGrid;
use crate::kernel::KernelOutcome;
use crate::moves::ParallelMove;
use crate::quadrant::QuadrantMap;
use crate::schedule::Schedule;

/// Merge options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeConfig {
    /// Fuse compatible quadrant pairs into shared moves (paper behaviour).
    /// Disabling yields one batch set per quadrant — the ablation knob for
    /// experiment E-x3.
    pub merge_quadrants: bool,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig {
            merge_quadrants: true,
        }
    }
}

/// Result of merging four quadrant outcomes into a global schedule.
#[derive(Debug, Clone)]
pub struct MergeOutput {
    /// The executable global schedule.
    pub schedule: Schedule,
    /// Predicted global occupancy after the schedule runs.
    pub final_grid: AtomGrid,
}

/// Merges the four quadrant kernel outcomes (in [`QuadrantId::ALL`] order)
/// into one global [`Schedule`], maintaining a simulated global grid so
/// every produced move is validated as it is emitted.
///
/// # Errors
///
/// Propagates executor validation failures — these indicate planner bugs
/// and are turned into hard errors rather than silent schedule corruption.
pub fn merge_outcomes(
    grid: &AtomGrid,
    map: &QuadrantMap,
    outcomes: &[KernelOutcome; 4],
    config: &MergeConfig,
) -> Result<MergeOutput, Error> {
    let mut state = MergeState {
        working: grid.clone(),
        working_t: AtomGrid::new(grid.width(), grid.height())?,
        schedule: Schedule::new(grid.height(), grid.width()),
        batcher: AodBatcher::new(),
        batches: BatchScratch::default(),
        movers: Movers::default(),
        moved: Vec::new(),
        shifted: Vec::new(),
    };
    // Precomputed suffix-range masks per hole position (hot path).
    let h_masks = SuffixMasks::build(map.quadrant_width(), bitline::words_for(grid.width()));
    let v_masks = SuffixMasks::build(map.quadrant_height(), bitline::words_for(grid.height()));

    let npasses = outcomes.iter().map(|o| o.passes.len()).max().unwrap_or(0);
    for p in 0..npasses {
        let axis = if p % 2 == 0 { Axis::Row } else { Axis::Col };
        let masks = match axis {
            Axis::Row => &h_masks,
            Axis::Col => &v_masks,
        };
        // A pass reads and shifts only its own orientation; bring it up
        // to date with the previous pass's moves in one transpose.
        match axis {
            Axis::Row if p > 0 => state.working_t.transpose_into(&mut state.working),
            Axis::Col => state.working.transpose_into(&mut state.working_t),
            Axis::Row => {}
        }
        let nwaves = outcomes
            .iter()
            .map(|o| o.passes.get(p).map_or(0, |pass| pass.waves.len()))
            .max()
            .unwrap_or(0);
        for w in 0..nwaves {
            let groups: [(Direction, [QuadrantId; 2]); 2] = match axis {
                Axis::Row => [
                    (Direction::East, [QuadrantId::Nw, QuadrantId::Sw]),
                    (Direction::West, [QuadrantId::Ne, QuadrantId::Se]),
                ],
                Axis::Col => [
                    (Direction::South, [QuadrantId::Nw, QuadrantId::Ne]),
                    (Direction::North, [QuadrantId::Sw, QuadrantId::Se]),
                ],
            };
            for (direction, members) in groups {
                if config.merge_quadrants {
                    state.collect_movers(map, outcomes, &members, p, w, axis, masks);
                    state.emit_batches(axis, direction)?;
                } else {
                    for q in members {
                        state.collect_movers(map, outcomes, &[q], p, w, axis, masks);
                        state.emit_batches(axis, direction)?;
                    }
                }
            }
        }
    }

    if npasses % 2 == 0 && npasses > 0 {
        // The last pass was a column pass.
        state.working_t.transpose_into(&mut state.working);
    }
    Ok(MergeOutput {
        schedule: state.schedule,
        final_grid: state.working,
    })
}

/// Precomputed "canonical positions > hole" range masks for each hole
/// position, for both quadrant orientations along one axis, packed flat
/// with `words` words per hole.
struct SuffixMasks {
    words: usize,
    /// Toward-low quadrants (west / north): global range `[0, half-1-hole)`.
    low: Vec<u64>,
    /// Toward-high quadrants (east / south): global range `(half+hole, 2*half)`.
    high: Vec<u64>,
}

impl SuffixMasks {
    fn build(half: usize, words: usize) -> Self {
        SuffixMasks {
            words,
            low: (0..half)
                .flat_map(|hole| bitline::range_mask(words, 0, half - 1 - hole))
                .collect(),
            high: (0..half)
                .flat_map(|hole| bitline::range_mask(words, half + hole + 1, 2 * half))
                .collect(),
        }
    }

    /// The range mask of `hole` for a quadrant on the low (`true`) or
    /// high side of the axis.
    fn get(&self, low: bool, hole: usize) -> &[u64] {
        let table = if low { &self.low } else { &self.high };
        &table[hole * self.words..(hole + 1) * self.words]
    }
}

/// The movers of one wave: global lines and their mover masks, packed
/// flat with one grid row's word count per line. Reused across waves.
#[derive(Default)]
struct Movers {
    lines: Vec<usize>,
    masks: Vec<u64>,
}

/// The merge's working state: the simulated global grid in both
/// orientations, the schedule so far, and the buffers every wave reuses.
/// Only the current pass's orientation is up to date.
struct MergeState {
    /// The grid, current during row passes.
    working: AtomGrid,
    /// The grid transposed, current during column passes, which read
    /// and shift columns as rows.
    working_t: AtomGrid,
    schedule: Schedule,
    batcher: AodBatcher,
    batches: BatchScratch,
    movers: Movers,
    /// One line's moving atoms, and the same shifted one site.
    moved: Vec<u64>,
    shifted: Vec<u64>,
}

impl MergeState {
    /// Gathers the movers of wave `w` of pass `p`, restricted to
    /// `members`: for each shift, the atoms of its global line beyond the
    /// hole. Lines with no such atom are dropped.
    #[allow(clippy::too_many_arguments)]
    fn collect_movers(
        &mut self,
        map: &QuadrantMap,
        outcomes: &[KernelOutcome; 4],
        members: &[QuadrantId],
        p: usize,
        w: usize,
        axis: Axis,
        masks: &SuffixMasks,
    ) {
        let Movers {
            lines,
            masks: movers,
        } = &mut self.movers;
        lines.clear();
        movers.clear();
        for &q in members {
            let idx = QuadrantId::ALL.iter().position(|&x| x == q).expect("valid");
            let Some(pass) = outcomes[idx].passes.get(p) else {
                continue;
            };
            debug_assert_eq!(pass.axis, axis, "pass axis misalignment");
            let Some(wave) = pass.waves.get(w) else {
                continue;
            };
            for shift in &wave.shifts {
                let (global_line, occ, low) = match axis {
                    Axis::Row => {
                        let row = map.global_row(q, shift.line);
                        (row, self.working.row_bits(row), q.is_west())
                    }
                    Axis::Col => {
                        let col = map.global_col(q, shift.line);
                        (col, self.working_t.row_bits(col), q.is_north())
                    }
                };
                let range = masks.get(low, shift.hole);
                let start = movers.len();
                movers.extend(occ.iter().zip(range).map(|(o, m)| o & m));
                if movers[start..].iter().any(|&m| m != 0) {
                    lines.push(global_line);
                } else {
                    movers.truncate(start);
                }
            }
        }
    }

    /// Batches the collected movers and emits moves into the schedule,
    /// applying each to the pass's grid orientation in place.
    ///
    /// Legality holds by construction — mover masks are sampled from the
    /// live working grid and the [`AodBatcher`] guarantees the cross
    /// product traps exactly the movers — so the executor is not re-run
    /// per move here (the test suite executes every merged schedule
    /// through the validating [`Executor`](crate::executor::Executor)
    /// instead). Debug builds still assert collision-freedom per line.
    fn emit_batches(&mut self, axis: Axis, direction: Direction) -> Result<(), Error> {
        if self.movers.lines.is_empty() {
            return Ok(());
        }
        // Occupancy per line along the pass axis.
        let occ = match axis {
            Axis::Row => &self.working,
            Axis::Col => &self.working_t,
        };
        let width = occ.width();
        let (dr, dc) = direction.delta();
        let batches = self.batcher.batch(
            occ,
            &self.movers.lines,
            &self.movers.masks,
            &mut self.batches,
        );
        for batch in batches {
            let positions = batch.positions(width);
            let (rows, cols) = match axis {
                Axis::Row => (batch.lines.clone(), positions),
                Axis::Col => (positions, batch.lines.clone()),
            };
            self.schedule.push(ParallelMove::new(rows, cols, dr, dc)?);
            let lines = match axis {
                Axis::Row => &mut self.working,
                Axis::Col => &mut self.working_t,
            };
            apply_batch(lines, direction, batch, &mut self.moved, &mut self.shifted);
        }
        Ok(())
    }
}

/// Applies one batch in place to `lines`, the grid whose rows are the
/// pass's lines. `moved` and `shifted` are line-sized scratch.
fn apply_batch(
    lines: &mut AtomGrid,
    direction: Direction,
    batch: &Batch,
    moved: &mut Vec<u64>,
    shifted: &mut Vec<u64>,
) {
    let width = lines.width();
    // East and south moves increase positions along the line.
    let up = matches!(direction, Direction::East | Direction::South);
    for &line in &batch.lines {
        let bits = lines.row_bits_mut(line);
        moved.clear();
        moved.extend(bits.iter().zip(&batch.union_mask).map(|(b, u)| b & u));
        shifted.resize(moved.len(), 0);
        if up {
            bitline::shift_up_one_into(moved, width, shifted);
        } else {
            bitline::shift_down_one_into(moved, shifted);
        }
        debug_assert!(
            bits.iter()
                .zip(moved.iter().zip(shifted.iter()))
                .all(|(b, (m, s))| b & !m & s == 0),
            "merge emitted a colliding move"
        );
        debug_assert_eq!(
            bitline::count_ones(moved),
            bitline::count_ones(shifted),
            "merge pushed an atom out of bounds"
        );
        for (b, (m, s)) in bits.iter_mut().zip(moved.iter().zip(shifted.iter())) {
            *b = (*b & !m) | s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::kernel::{KernelConfig, KernelStrategy, ShiftKernel};
    use crate::loading::seeded_rng;

    fn merge_random(
        size: usize,
        target: usize,
        strategy: KernelStrategy,
        seed: u64,
        config: &MergeConfig,
    ) -> (AtomGrid, MergeOutput) {
        let mut rng = seeded_rng(seed);
        let grid = AtomGrid::random(size, size, 0.5, &mut rng);
        let map = QuadrantMap::new(size, size).unwrap();
        let quads = map.split(&grid).unwrap();
        let kernel =
            ShiftKernel::new(KernelConfig::new(target / 2, target / 2).with_strategy(strategy));
        let outcomes: Vec<KernelOutcome> = quads.iter().map(|q| kernel.run(q).unwrap()).collect();
        let outcomes: [KernelOutcome; 4] = outcomes.try_into().unwrap();
        let out = merge_outcomes(&grid, &map, &outcomes, config).unwrap();
        (grid, out)
    }

    #[test]
    fn merged_schedule_executes_cleanly() {
        for seed in [1, 2, 3, 4, 5] {
            let (grid, out) = merge_random(
                20,
                12,
                KernelStrategy::Balanced,
                seed,
                &MergeConfig::default(),
            );
            let rep = Executor::new().run(&grid, &out.schedule).unwrap();
            assert_eq!(rep.final_grid, out.final_grid, "seed {seed}");
            assert_eq!(rep.final_grid.atom_count(), grid.atom_count());
        }
    }

    #[test]
    fn merged_final_grid_matches_quadrant_restore() {
        let size = 16;
        let mut rng = seeded_rng(7);
        let grid = AtomGrid::random(size, size, 0.5, &mut rng);
        let map = QuadrantMap::new(size, size).unwrap();
        let quads = map.split(&grid).unwrap();
        let kernel =
            ShiftKernel::new(KernelConfig::new(5, 5).with_strategy(KernelStrategy::Greedy));
        let outcomes: Vec<KernelOutcome> = quads.iter().map(|q| kernel.run(q).unwrap()).collect();
        let finals: Vec<AtomGrid> = outcomes.iter().map(|o| o.final_grid.clone()).collect();
        let outcomes: [KernelOutcome; 4] = outcomes.try_into().unwrap();
        let expected = map.restore(&finals.try_into().unwrap()).unwrap();
        let out = merge_outcomes(&grid, &map, &outcomes, &MergeConfig::default()).unwrap();
        assert_eq!(out.final_grid, expected);
    }

    #[test]
    fn unmerged_produces_no_fewer_moves() {
        let merged = merge_random(
            20,
            12,
            KernelStrategy::Balanced,
            9,
            &MergeConfig {
                merge_quadrants: true,
            },
        );
        let unmerged = merge_random(
            20,
            12,
            KernelStrategy::Balanced,
            9,
            &MergeConfig {
                merge_quadrants: false,
            },
        );
        assert!(
            merged.1.schedule.len() <= unmerged.1.schedule.len(),
            "merged {} > unmerged {}",
            merged.1.schedule.len(),
            unmerged.1.schedule.len()
        );
        // Both must land on the same final occupancy.
        assert_eq!(merged.1.final_grid, unmerged.1.final_grid);
    }

    #[test]
    fn every_move_is_unit_step_axis_aligned() {
        let (_, out) = merge_random(20, 12, KernelStrategy::Balanced, 3, &MergeConfig::default());
        for mv in &out.schedule {
            assert!(mv.is_axis_aligned());
            assert_eq!(mv.step(), 1);
        }
    }

    #[test]
    fn west_half_moves_east_and_vice_versa() {
        let (_, out) = merge_random(16, 8, KernelStrategy::Greedy, 11, &MergeConfig::default());
        for mv in &out.schedule {
            match mv.direction().unwrap() {
                Direction::East => {
                    // all selected columns strictly west of centre
                    assert!(
                        mv.cols().iter().all(|&c| c < 8),
                        "east move cols {:?}",
                        mv.cols()
                    );
                }
                Direction::West => {
                    assert!(
                        mv.cols().iter().all(|&c| c >= 8),
                        "west move cols {:?}",
                        mv.cols()
                    );
                }
                Direction::South => {
                    assert!(mv.rows().iter().all(|&r| r < 8));
                }
                Direction::North => {
                    assert!(mv.rows().iter().all(|&r| r >= 8));
                }
            }
        }
    }
}
