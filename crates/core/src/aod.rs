//! AOD cross-product legality checking and greedy move batching.
//!
//! The 2D-AOD generates a tweezer at *every* intersection of its selected
//! row and column tones (paper §II-B). A planner that wants to move a
//! specific set of atoms must therefore choose selections whose cross
//! product does not trap any bystander atom; when that is impossible "the
//! two atom sites will have to be addressed in separate moves". This
//! module provides:
//!
//! * [`trapped_atoms`] / [`verify_intent`] — what a move actually picks up
//!   and whether that matches the planner's intent;
//! * [`AodBatcher`] — greedy partitioning of per-line mover sets into the
//!   fewest legal cross-product moves (the paper's Row Combination Unit
//!   performs this merge on the FPGA, §IV-C).

use crate::bitline;
use crate::error::Error;
use crate::geometry::Position;
use crate::grid::AtomGrid;
use crate::moves::ParallelMove;

/// The atoms a move would actually pick up from `grid`: every occupied
/// site of the selection cross product.
///
/// ```
/// use qrm_core::aod::trapped_atoms;
/// use qrm_core::grid::AtomGrid;
/// use qrm_core::moves::ParallelMove;
///
/// let g = AtomGrid::parse("#.#\n...\n#..")?;
/// let mv = ParallelMove::new(vec![0, 2], vec![0, 2], 0, -1)?;
/// let atoms = trapped_atoms(&g, &mv);
/// assert_eq!(atoms.len(), 3); // (0,0), (0,2), (2,0)
/// # Ok::<(), qrm_core::Error>(())
/// ```
pub fn trapped_atoms(grid: &AtomGrid, mv: &ParallelMove) -> Vec<Position> {
    mv.trap_sites()
        .filter(|p| {
            p.row < grid.height() && p.col < grid.width() && grid.get_unchecked(p.row, p.col)
        })
        .collect()
}

/// Verifies that the move traps exactly the intended atoms and nothing
/// else.
///
/// `intended` must be sorted in row-major order (as produced by
/// [`trapped_atoms`] or grid iteration).
///
/// # Errors
///
/// Returns [`Error::UnintendedTrap`] naming the first bystander atom the
/// cross product would pick up.
pub fn verify_intent(
    grid: &AtomGrid,
    mv: &ParallelMove,
    intended: &[Position],
) -> Result<(), Error> {
    for p in trapped_atoms(grid, mv) {
        if intended.binary_search(&p).is_err() {
            return Err(Error::UnintendedTrap { site: p });
        }
    }
    Ok(())
}

/// One batch produced by the [`AodBatcher`]: a set of lines that can move
/// together in a single cross-product selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Line indices (rows for horizontal motion, columns for vertical).
    pub lines: Vec<usize>,
    /// Union of mover positions along the orthogonal axis, bit-packed.
    pub union_mask: Vec<u64>,
}

impl Batch {
    /// Mover positions as indices.
    pub fn positions(&self, width: usize) -> Vec<usize> {
        bitline::ones(&self.union_mask, width)
    }
}

/// Reusable buffers of [`AodBatcher::batch`]: the batches of the last
/// call, plus the mover indices each holds (the first-fit path checks
/// new bits against every member's own mask). A warm scratch makes
/// batching allocation-free.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    batches: Vec<Batch>,
    members: Vec<Vec<usize>>,
    union: Vec<u64>,
    len: usize,
}

impl BatchScratch {
    /// Opens batch slot `len`, reusing its buffers, with `union` as its
    /// union mask.
    fn open(&mut self, union: &[u64]) -> usize {
        let slot = self.len;
        if slot == self.batches.len() {
            self.batches.push(Batch {
                lines: Vec::new(),
                union_mask: Vec::new(),
            });
            self.members.push(Vec::new());
        }
        self.batches[slot].lines.clear();
        self.batches[slot].union_mask.clear();
        self.batches[slot].union_mask.extend_from_slice(union);
        self.members[slot].clear();
        self.len += 1;
        slot
    }
}

/// Greedy batcher that partitions per-line mover sets into AOD-legal
/// groups.
///
/// Given, for each line, the occupancy mask and the mask of atoms that
/// *must* move, lines are greedily packed into batches such that the
/// selection `lines x union(movers)` traps no unintended atom: for every
/// line `l` in a batch, `occ[l] & union & !movers[l] == 0`.
#[derive(Debug, Clone, Default)]
pub struct AodBatcher {
    _private: (),
}

impl AodBatcher {
    /// Creates a batcher.
    pub fn new() -> Self {
        AodBatcher { _private: () }
    }

    /// Partitions movers into legal batches, returned from `scratch`.
    ///
    /// * `occ` — occupancy per line: line `l` is `occ.row_bits(l)` (pass
    ///   a transposed grid for column lines);
    /// * `lines` — the mover lines, in processing order;
    /// * `masks` — the mover mask of `lines[i]` at
    ///   `masks[i * stride..(i + 1) * stride]`, with `stride` the word
    ///   count of an `occ` row; every mover bit must be occupied.
    ///
    /// Lines are processed in the given order; each line joins the first
    /// open batch it is compatible with (first-fit), which keeps the
    /// common fully-compatible case at one batch. Lines with an empty
    /// mask are skipped.
    ///
    /// # Panics
    ///
    /// Panics when `masks` is not `lines.len()` rows of `stride` words;
    /// debug-asserts that mover bits are occupied.
    pub fn batch<'s>(
        &self,
        occ: &AtomGrid,
        lines: &[usize],
        masks: &[u64],
        scratch: &'s mut BatchScratch,
    ) -> &'s [Batch] {
        let stride = bitline::words_for(occ.width());
        assert_eq!(masks.len(), lines.len() * stride, "mask stride mismatch");
        let mover = |i: usize| &masks[i * stride..(i + 1) * stride];
        let moves = |i: usize| mover(i).iter().any(|&w| w != 0);
        scratch.len = 0;

        // Fast path: a single batch works whenever no line holds a
        // stationary atom under the union of all mover columns — by far
        // the common case for compaction waves.
        let mut union = std::mem::take(&mut scratch.union);
        union.clear();
        union.resize(stride, 0);
        for i in (0..lines.len()).filter(|&i| moves(i)) {
            for (u, m) in union.iter_mut().zip(mover(i)) {
                *u |= m;
            }
        }
        let all_compatible = (0..lines.len()).filter(|&i| moves(i)).all(|i| {
            occ.row_bits(lines[i])
                .iter()
                .zip(union.iter().zip(mover(i)))
                .all(|(o, (u, m))| o & u & !m == 0)
        });
        let any_moves = union.iter().any(|&w| w != 0);
        if any_moves && all_compatible {
            let slot = scratch.open(&union);
            let moving = (0..lines.len()).filter(|&i| moves(i));
            scratch.batches[slot].lines.extend(moving.map(|i| lines[i]));
        } else if any_moves {
            for i in (0..lines.len()).filter(|&i| moves(i)) {
                let (mask, occ_line) = (mover(i), occ.row_bits(lines[i]));
                debug_assert!(
                    mask.iter().zip(occ_line).all(|(m, o)| m & !o == 0),
                    "mover bits must be occupied"
                );
                let fits = |b: usize| {
                    // Candidate line must tolerate the existing union...
                    let batch_union = &scratch.batches[b].union_mask;
                    mask.iter()
                        .zip(occ_line.iter().zip(batch_union))
                        .all(|(m, (o, u))| o & u & !m == 0)
                    // ...and every existing line must tolerate the new bits.
                        && scratch.members[b].iter().all(|&j| {
                            occ.row_bits(lines[j])
                                .iter()
                                .zip(mask.iter().zip(mover(j)))
                                .all(|(o, (m, lm))| o & m & !lm == 0)
                        })
                };
                let slot = match (0..scratch.len).find(|&b| fits(b)) {
                    Some(b) => {
                        for (u, m) in scratch.batches[b].union_mask.iter_mut().zip(mask) {
                            *u |= m;
                        }
                        b
                    }
                    None => scratch.open(mask),
                };
                scratch.batches[slot].lines.push(lines[i]);
                scratch.members[slot].push(i);
            }
        }
        scratch.union = union;
        &scratch.batches[..scratch.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIDTH: usize = 8;

    /// Occupancy grid with one line per entry of `rows`.
    fn occupancy(rows: &[&[usize]]) -> AtomGrid {
        let mut g = AtomGrid::new(rows.len(), WIDTH).unwrap();
        for (r, bits) in rows.iter().enumerate() {
            for &c in *bits {
                g.set_unchecked(r, c, true);
            }
        }
        g
    }

    /// Batches `(line, mover bits)` pairs over `occ`, returning each
    /// batch's lines and positions.
    fn batch(occ: &AtomGrid, movers: &[(usize, &[usize])]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let lines: Vec<usize> = movers.iter().map(|&(l, _)| l).collect();
        let mut masks = vec![0u64; movers.len()];
        for (m, &(_, bits)) in masks.iter_mut().zip(movers) {
            for &b in bits {
                bitline::set(std::slice::from_mut(m), b, true);
            }
        }
        let mut scratch = BatchScratch::default();
        AodBatcher::new()
            .batch(occ, &lines, &masks, &mut scratch)
            .iter()
            .map(|b| (b.lines.clone(), b.positions(WIDTH)))
            .collect()
    }

    #[test]
    fn trapped_and_intent() {
        let g = AtomGrid::parse("#.#\n...\n#..").unwrap();
        let mv = ParallelMove::new(vec![0, 2], vec![0, 2], 0, -1).unwrap();
        let atoms = trapped_atoms(&g, &mv);
        assert_eq!(
            atoms,
            vec![
                Position::new(0, 0),
                Position::new(0, 2),
                Position::new(2, 0)
            ]
        );
        assert!(verify_intent(&g, &mv, &atoms).is_ok());
        // Claiming we only intended (0,0) and (0,2): (2,0) is a bystander.
        let intent = vec![Position::new(0, 0), Position::new(0, 2)];
        assert_eq!(
            verify_intent(&g, &mv, &intent),
            Err(Error::UnintendedTrap {
                site: Position::new(2, 0)
            })
        );
    }

    #[test]
    fn compatible_lines_merge_into_one_batch() {
        // rows: 0 -> atoms {2,3}, 1 -> atoms {2,3}; both move {2,3}.
        let occ = occupancy(&[&[2, 3], &[2, 3]]);
        let batches = batch(&occ, &[(0, &[2, 3]), (1, &[2, 3])]);
        assert_eq!(batches, vec![(vec![0, 1], vec![2, 3])]);
    }

    #[test]
    fn incompatible_lines_split() {
        // row 0 moves {3}, but row 1 has a stationary atom at 3 while
        // moving {5}: the union {3,5} would trap row 1's atom at 3.
        let occ = occupancy(&[&[3], &[3, 5]]);
        let batches = batch(&occ, &[(0, &[3]), (1, &[5])]);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, vec![0]);
        assert_eq!(batches[1].0, vec![1]);
    }

    #[test]
    fn superset_movers_are_compatible() {
        // row 0 moves {2,3}; row 1 moves {2}: union {2,3} must not trap a
        // stationary atom in row 1 at col 3 — row 1 has no atom at 3.
        let occ = occupancy(&[&[2, 3], &[2]]);
        let batches = batch(&occ, &[(0, &[2, 3]), (1, &[2])]);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].0, vec![0, 1]);
    }

    #[test]
    fn empty_mover_masks_skipped() {
        let occ = occupancy(&[&[1]]);
        assert!(batch(&occ, &[(0, &[])]).is_empty());
    }

    #[test]
    fn later_line_conflicting_with_union_opens_new_batch() {
        // rows 0,1 move {4}; row 2 moves {6} but has stationary atom at 4.
        let occ = occupancy(&[&[4], &[4], &[4, 6]]);
        let batches = batch(&occ, &[(0, &[4]), (1, &[4]), (2, &[6])]);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].0, vec![0, 1]);
        assert_eq!(batches[1].0, vec![2]);
    }

    #[test]
    fn new_line_breaking_existing_line_opens_new_batch() {
        // row 0 moves {2} and ALSO has a stationary atom at 5.
        // row 1 moves {5}: adding row 1's union bit 5 would trap row 0's
        // stationary atom at 5.
        let occ = occupancy(&[&[2, 5], &[5]]);
        let batches = batch(&occ, &[(0, &[2]), (1, &[5])]);
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn warm_scratch_reproduces_cold_batches() {
        // Each call must forget the batches of the one before, however
        // many it left behind.
        let split = occupancy(&[&[3], &[3, 5], &[1, 3, 5]]);
        let merged = occupancy(&[&[2, 3], &[2, 3], &[]]);
        let mut scratch = BatchScratch::default();
        let batcher = AodBatcher::new();
        let (lines, split_masks) = ([0, 1, 2], [1 << 3, 1 << 5, 1 << 1]);
        let cold = batch(&split, &[(0, &[3]), (1, &[5]), (2, &[1])]);
        for _ in 0..2 {
            let warm = batcher.batch(&split, &lines, &split_masks, &mut scratch);
            let warm: Vec<_> = warm
                .iter()
                .map(|b| (b.lines.clone(), b.positions(WIDTH)))
                .collect();
            assert_eq!(warm, cold);
            let one = batcher.batch(&merged, &lines[..2], &[0b1100, 0b1100], &mut scratch);
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].lines, vec![0, 1]);
            assert_eq!(one[0].union_mask, vec![0b1100]);
        }
    }
}
