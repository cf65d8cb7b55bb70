//! Realisation of per-atom displacement plans as unit-step parallel
//! waves.
//!
//! Several baselines first *assign* atoms to destinations and then
//! execute the assignments. This helper turns a set of axis-aligned
//! displacements into waves of simultaneous unit moves (same direction,
//! same step — the multi-tweezer constraint of paper §II-B), batching
//! each wave into AOD-legal [`ParallelMove`]s and applying it to a
//! working grid.

use std::collections::BTreeMap;

use qrm_core::aod::{AodBatcher, BatchScratch};
use qrm_core::bitline;
use qrm_core::error::Error;
use qrm_core::executor::Executor;
use qrm_core::geometry::{Axis, Position};
use qrm_core::grid::AtomGrid;
use qrm_core::moves::ParallelMove;
use qrm_core::schedule::Schedule;

/// One atom's planned displacement along `axis` (signed sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedMove {
    /// Atom's current position.
    pub from: Position,
    /// Signed displacement along the plan's axis.
    pub delta: isize,
}

/// Outcome of realising a displacement plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RealizeStats {
    /// Unit waves emitted.
    pub waves: usize,
    /// Atoms that reached their planned destination.
    pub completed: usize,
    /// Atoms left short of their destination (blocked by stationary
    /// atoms).
    pub stranded: usize,
}

/// Realises `plan` (displacements along `axis`) on `grid`, appending the
/// emitted moves to `schedule`.
///
/// Atoms advance one site per wave while their next cell is free or
/// being vacated by a same-direction neighbour in the same wave; blocked
/// atoms simply wait, and the helper stops when no atom can advance
/// (reporting them as stranded).
///
/// # Errors
///
/// Propagates executor validation failures (these indicate internal
/// planner bugs, not instance infeasibility).
pub fn realize_plan(
    grid: &mut AtomGrid,
    schedule: &mut Schedule,
    axis: Axis,
    plan: &[PlannedMove],
) -> Result<RealizeStats, Error> {
    let executor = Executor::new();
    let mut batches = BatchScratch::default();
    let mut stats = RealizeStats::default();

    // Track each atom's current position and remaining displacement.
    let mut pending: Vec<(Position, isize)> = plan
        .iter()
        .filter(|p| p.delta != 0)
        .map(|p| (p.from, p.delta))
        .collect();
    stats.completed = plan.iter().filter(|p| p.delta == 0).count();

    while !pending.is_empty() {
        // One wave per direction (positive then negative) per cycle.
        let mut advanced_any = false;
        for sign in [1isize, -1] {
            let movers = wave_movers(grid, axis, &pending, sign);
            if movers.is_empty() {
                continue;
            }
            advanced_any = true;
            emit_wave(grid, schedule, &executor, &mut batches, axis, sign, &movers)?;
            stats.waves += 1;
            // Update pending positions.
            for (pos, delta) in pending.iter_mut() {
                if movers.contains(pos) && delta.signum() == sign {
                    *pos = step(*pos, axis, sign);
                    *delta -= sign;
                }
            }
        }
        pending.retain(|&(_, delta)| delta != 0);
        if !advanced_any {
            break;
        }
    }
    stats.completed += plan.iter().filter(|p| p.delta != 0).count() - pending.len();
    stats.stranded = pending.len();
    Ok(stats)
}

/// Atoms that can advance one site in direction `sign` this wave:
/// processed front-to-back so a chain of movers advances together.
fn wave_movers(
    grid: &AtomGrid,
    axis: Axis,
    pending: &[(Position, isize)],
    sign: isize,
) -> Vec<Position> {
    let mut by_line: BTreeMap<usize, Vec<Position>> = BTreeMap::new();
    for &(pos, delta) in pending {
        if delta.signum() == sign {
            by_line.entry(line_of(pos, axis)).or_default().push(pos);
        }
    }
    let mut movers = Vec::new();
    for (_, mut atoms) in by_line {
        // Front of the chain first: for positive motion, the largest
        // coordinate leads.
        atoms.sort_by_key(|p| coord_of(*p, axis));
        if sign > 0 {
            atoms.reverse();
        }
        let mut vacated: Option<Position> = None;
        for pos in atoms {
            let Some(next) = offset(pos, axis, sign, grid) else {
                vacated = None;
                continue;
            };
            let free = !grid.get_unchecked(next.row, next.col) || Some(next) == vacated;
            if free {
                movers.push(pos);
                vacated = Some(pos);
            } else {
                vacated = None;
            }
        }
    }
    movers
}

fn emit_wave(
    grid: &mut AtomGrid,
    schedule: &mut Schedule,
    executor: &Executor,
    batches: &mut BatchScratch,
    axis: Axis,
    sign: isize,
    movers: &[Position],
) -> Result<(), Error> {
    // Build per-line mover masks in the pass-axis frame.
    let view = match axis {
        Axis::Row => grid.clone(),
        Axis::Col => grid.transpose(),
    };
    let width = view.width();
    let words = bitline::words_for(width);
    let mut per_line: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for &pos in movers {
        let (line, coord) = match axis {
            Axis::Row => (pos.row, pos.col),
            Axis::Col => (pos.col, pos.row),
        };
        bitline::set(
            per_line.entry(line).or_insert_with(|| vec![0u64; words]),
            coord,
            true,
        );
    }
    let lines: Vec<usize> = per_line.keys().copied().collect();
    let masks: Vec<u64> = per_line.into_values().flatten().collect();
    let (dr, dc) = match axis {
        Axis::Row => (0isize, sign),
        Axis::Col => (sign, 0isize),
    };
    for batch in AodBatcher::new().batch(&view, &lines, &masks, batches) {
        let positions = batch.positions(width);
        let (rows, cols) = match axis {
            Axis::Row => (batch.lines.clone(), positions),
            Axis::Col => (positions, batch.lines.clone()),
        };
        let mv = ParallelMove::new(rows, cols, dr, dc)?;
        let mut single = Schedule::new(grid.height(), grid.width());
        single.push(mv.clone());
        *grid = executor.run(grid, &single)?.final_grid;
        schedule.push(mv);
    }
    Ok(())
}

fn line_of(p: Position, axis: Axis) -> usize {
    match axis {
        Axis::Row => p.row,
        Axis::Col => p.col,
    }
}

fn coord_of(p: Position, axis: Axis) -> usize {
    match axis {
        Axis::Row => p.col,
        Axis::Col => p.row,
    }
}

fn step(p: Position, axis: Axis, sign: isize) -> Position {
    match axis {
        Axis::Row => Position::new(p.row, p.col.wrapping_add_signed(sign)),
        Axis::Col => Position::new(p.row.wrapping_add_signed(sign), p.col),
    }
}

fn offset(p: Position, axis: Axis, sign: isize, grid: &AtomGrid) -> Option<Position> {
    let q = match axis {
        Axis::Row => Position::new(p.row, p.col.checked_add_signed(sign)?),
        Axis::Col => Position::new(p.row.checked_add_signed(sign)?, p.col),
    };
    (q.row < grid.height() && q.col < grid.width()).then_some(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_atom_multi_step() {
        let mut g = AtomGrid::parse("#....").unwrap();
        let mut s = Schedule::new(1, 5);
        let plan = vec![PlannedMove {
            from: Position::new(0, 0),
            delta: 4,
        }];
        let stats = realize_plan(&mut g, &mut s, Axis::Row, &plan).unwrap();
        assert_eq!(stats.stranded, 0);
        assert_eq!(stats.waves, 4);
        assert_eq!(g, AtomGrid::parse("....#").unwrap());
    }

    #[test]
    fn chain_advances_together() {
        // Two adjacent atoms both move +2: the leader vacates for the
        // follower each wave.
        let mut g = AtomGrid::parse("##...").unwrap();
        let mut s = Schedule::new(1, 5);
        let plan = vec![
            PlannedMove {
                from: Position::new(0, 0),
                delta: 2,
            },
            PlannedMove {
                from: Position::new(0, 1),
                delta: 2,
            },
        ];
        let stats = realize_plan(&mut g, &mut s, Axis::Row, &plan).unwrap();
        assert_eq!(stats.stranded, 0);
        assert_eq!(g, AtomGrid::parse("..##.").unwrap());
        // both atoms move together each wave
        assert_eq!(stats.waves, 2);
    }

    #[test]
    fn stationary_blocker_strands_mover() {
        // Atom must cross a stationary atom: impossible with same-axis
        // unit moves.
        let mut g = AtomGrid::parse("#.#..").unwrap();
        let mut s = Schedule::new(1, 5);
        let plan = vec![PlannedMove {
            from: Position::new(0, 0),
            delta: 4,
        }];
        let stats = realize_plan(&mut g, &mut s, Axis::Row, &plan).unwrap();
        assert_eq!(stats.stranded, 1);
        // it advanced as far as possible
        assert!(g.get_unchecked(0, 1));
    }

    #[test]
    fn opposite_directions_in_one_plan() {
        let mut g = AtomGrid::parse("#...#").unwrap();
        let mut s = Schedule::new(1, 5);
        let plan = vec![
            PlannedMove {
                from: Position::new(0, 0),
                delta: 1,
            },
            PlannedMove {
                from: Position::new(0, 4),
                delta: -1,
            },
        ];
        let stats = realize_plan(&mut g, &mut s, Axis::Row, &plan).unwrap();
        assert_eq!(stats.stranded, 0);
        assert_eq!(g, AtomGrid::parse(".#.#.").unwrap());
    }

    #[test]
    fn vertical_axis() {
        let mut g = AtomGrid::parse("#\n.\n.").unwrap();
        let mut s = Schedule::new(3, 1);
        let plan = vec![PlannedMove {
            from: Position::new(0, 0),
            delta: 2,
        }];
        let stats = realize_plan(&mut g, &mut s, Axis::Col, &plan).unwrap();
        assert_eq!(stats.stranded, 0);
        assert!(g.get_unchecked(2, 0));
    }

    #[test]
    fn zero_delta_counts_completed() {
        let mut g = AtomGrid::parse("#").unwrap();
        let mut s = Schedule::new(1, 1);
        let plan = vec![PlannedMove {
            from: Position::new(0, 0),
            delta: 0,
        }];
        let stats = realize_plan(&mut g, &mut s, Axis::Row, &plan).unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.waves, 0);
    }

    #[test]
    fn schedule_is_executable_from_scratch() {
        let g0 = AtomGrid::parse("##..#\n.#..#").unwrap();
        let mut g = g0.clone();
        let mut s = Schedule::new(2, 5);
        let plan = vec![
            PlannedMove {
                from: Position::new(0, 0),
                delta: 2,
            },
            PlannedMove {
                from: Position::new(0, 1),
                delta: 2,
            },
            PlannedMove {
                from: Position::new(1, 1),
                delta: 1,
            },
        ];
        realize_plan(&mut g, &mut s, Axis::Row, &plan).unwrap();
        let replay = Executor::new().run(&g0, &s).unwrap();
        assert_eq!(replay.final_grid, g);
    }
}
