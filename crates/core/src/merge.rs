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
//! buffers. Each batch is applied to its lines in place, word by word
//! with a carry. A merge allocates its two working grids, one suffix-mask
//! table per axis orientation and the schedule; the only allocations
//! per move are the [`ParallelMove`]'s own row and column lists, built
//! already sorted (positions come from ascending bit scans, and the
//! line list is sorted once).

use crate::aod::{AodBatcher, Batch, BatchScratch};
use crate::bitline;
use crate::error::Error;
use crate::geometry::{Axis, Direction, QuadrantId};
use crate::grid::AtomGrid;
use crate::kernel::{KernelOutcome, LocalPass};
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
            .map(|o| o.passes.get(p).map_or(0, LocalPass::wave_count))
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
                    state.emit_batches(axis, direction);
                } else {
                    for q in members {
                        state.collect_movers(map, outcomes, &[q], p, w, axis, masks);
                        state.emit_batches(axis, direction);
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
        let mut low = vec![0u64; half * words];
        let mut high = vec![0u64; half * words];
        let rows = low
            .chunks_exact_mut(words)
            .zip(high.chunks_exact_mut(words));
        for (hole, (low, high)) in rows.enumerate() {
            bitline::set_range(low, 0, half - 1 - hole);
            bitline::set_range(high, half + hole + 1, 2 * half);
        }
        SuffixMasks { words, low, high }
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
            let Some(wave) = pass.wave(w) else {
                continue;
            };
            for shift in wave {
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
    fn emit_batches(&mut self, axis: Axis, direction: Direction) {
        if self.movers.lines.is_empty() {
            return;
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
            // Positions come out of the bit scan ascending; the lines
            // (distinct global lines of one wave) need one sort.
            let positions = batch.positions(width);
            let mut lines = batch.lines.clone();
            lines.sort_unstable();
            let (rows, cols) = match axis {
                Axis::Row => (lines, positions),
                Axis::Col => (positions, lines),
            };
            self.schedule
                .push(ParallelMove::from_sorted(rows, cols, dr, dc));
            let lines = match axis {
                Axis::Row => &mut self.working,
                Axis::Col => &mut self.working_t,
            };
            apply_batch(lines, direction, batch);
        }
    }
}

/// Applies one batch in place to `lines`, the grid whose rows are the
/// pass's lines: on each of the batch's lines, the atoms under its union
/// mask move one site along the line.
fn apply_batch(lines: &mut AtomGrid, direction: Direction, batch: &Batch) {
    let width = lines.width();
    // East and south moves increase positions along the line.
    let up = matches!(direction, Direction::East | Direction::South);
    for &line in &batch.lines {
        let bits = lines.row_bits_mut(line);
        if up {
            shift_movers_up(bits, &batch.union_mask, width);
        } else {
            shift_movers_down(bits, &batch.union_mask);
        }
    }
}

/// Moves the atoms of `bits` under `mask` one position toward higher
/// indices, word by word, carrying the top mover of each word into the
/// next. Bits at or above `width` stay clear.
fn shift_movers_up(bits: &mut [u64], mask: &[u64], width: usize) {
    let mut carry = 0u64;
    for (b, &m) in bits.iter_mut().zip(mask) {
        let moved = *b & m;
        let shifted = (moved << 1) | carry;
        carry = moved >> (bitline::WORD_BITS - 1);
        debug_assert!(*b & !moved & shifted == 0, "merge emitted a colliding move");
        *b = (*b & !moved) | shifted;
    }
    let last = bits.len() - 1;
    let tail = width % bitline::WORD_BITS;
    let kept = if tail == 0 {
        u64::MAX
    } else {
        (1u64 << tail) - 1
    };
    debug_assert!(
        carry == 0 && bits[last] & !kept == 0,
        "merge pushed an atom out of bounds"
    );
    bits[last] &= kept;
}

/// Moves the atoms of `bits` under `mask` one position toward lower
/// indices, word by word, carrying the bottom mover of each word into
/// the one below.
fn shift_movers_down(bits: &mut [u64], mask: &[u64]) {
    let mut moved = bits[0] & mask[0];
    debug_assert!(moved & 1 == 0, "merge pushed an atom out of bounds");
    for i in 0..bits.len() {
        // The next word is still unmodified here.
        let next = bits.get(i + 1).map_or(0, |&b| b & mask[i + 1]);
        let shifted = (moved >> 1) | (next << (bitline::WORD_BITS - 1));
        debug_assert!(
            bits[i] & !moved & shifted == 0,
            "merge emitted a colliding move"
        );
        bits[i] = (bits[i] & !moved) | shifted;
        moved = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::kernel::{KernelConfig, KernelStrategy, ShiftKernel};
    use crate::loading::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    /// The batch apply before the in-place rewrite: mask the movers
    /// out, shift them with whole-line shifts, and merge them back.
    fn apply_line_reference(bits: &mut [u64], mask: &[u64], width: usize, up: bool) {
        let moved: Vec<u64> = bits.iter().zip(mask).map(|(b, m)| b & m).collect();
        let mut shifted = vec![0u64; moved.len()];
        if up {
            bitline::shift_up_one_into(&moved, width, &mut shifted);
        } else {
            bitline::shift_down_one_into(&moved, &mut shifted);
        }
        for (b, (m, s)) in bits.iter_mut().zip(moved.iter().zip(&shifted)) {
            *b = (*b & !m) | s;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn in_place_batch_apply_matches_whole_line_shifts(
            height in 1usize..6,
            width in 1usize..200,
            direction in 0usize..4,
            seed in any::<u64>(),
        ) {
            let direction = [Direction::North, Direction::South, Direction::East, Direction::West][direction];
            let up = matches!(direction, Direction::East | Direction::South);
            let mut rng = seeded_rng(seed);
            let words = bitline::words_for(width);
            let mut union = vec![0u64; words];
            for pos in 0..width {
                bitline::set(&mut union, pos, rng.gen_bool(0.4));
            }
            // A legal batch: each line's movers lie under the union and
            // never leave the line; its stationary atoms lie outside the
            // union and off the movers' landing sites.
            let mut grid = AtomGrid::new(height, width).unwrap();
            for line in 0..height {
                let mut movers = vec![0u64; words];
                for pos in 0..width {
                    let edge = if up { pos + 1 == width } else { pos == 0 };
                    let keep = bitline::get(&union, pos) && !edge && rng.gen_bool(0.6);
                    bitline::set(&mut movers, pos, keep);
                }
                let mut bits = movers.clone();
                for pos in 0..width {
                    let landing = if up {
                        pos > 0 && bitline::get(&movers, pos - 1)
                    } else {
                        pos + 1 < width && bitline::get(&movers, pos + 1)
                    };
                    if !bitline::get(&union, pos) && !landing && rng.gen_bool(0.5) {
                        bitline::set(&mut bits, pos, true);
                    }
                }
                grid.set_row_bits(line, &bits);
            }
            let lines: Vec<usize> = (0..height).filter(|_| rng.gen_bool(0.7)).collect();
            let mut expected = grid.clone();
            for &line in &lines {
                let mut bits = expected.row_bits(line).to_vec();
                apply_line_reference(&mut bits, &union, width, up);
                expected.set_row_bits(line, &bits);
            }
            let batch = Batch { lines, union_mask: union };
            apply_batch(&mut grid, direction, &batch);
            prop_assert_eq!(grid, expected);
        }
    }

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
