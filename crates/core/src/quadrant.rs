//! Quadrant split, flip, and restore (paper §III-B, Fig. 4).
//!
//! Compressing atoms toward the array centre is, per quadrant, compression
//! into the centre-adjacent corner. Flipping each quadrant into a
//! *canonical orientation* — compression corner at local `(0, 0)` — lets
//! one identical kernel process all four quadrants; afterwards movement
//! information is restored to original coordinates (the paper's Load
//! Vector units apply the flips in hardware while streaming data in, and
//! the movement-recording unit restores positions on the way out).

use crate::bitline;
use crate::error::Error;
use crate::geometry::{Position, QuadrantId, Rect};
use crate::grid::AtomGrid;

/// Coordinate mapping between a `height x width` global array and its
/// four canonically-oriented quadrants.
///
/// ```
/// use qrm_core::quadrant::QuadrantMap;
/// use qrm_core::geometry::{Position, QuadrantId};
///
/// let map = QuadrantMap::new(10, 10)?;
/// // The NW quadrant's centre-adjacent corner is global (4, 4):
/// assert_eq!(map.to_global(QuadrantId::Nw, Position::new(0, 0)), Position::new(4, 4));
/// // ...and the mapping round-trips:
/// let p = Position::new(2, 3);
/// assert_eq!(map.to_canonical(map.to_global(QuadrantId::Sw, p)).unwrap(), (QuadrantId::Sw, p));
/// # Ok::<(), qrm_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadrantMap {
    height: usize,
    width: usize,
    qh: usize,
    qw: usize,
}

impl QuadrantMap {
    /// Creates the mapping for a `height x width` array.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OddDimensions`] unless both dimensions are even
    /// and non-zero (quadrants must tile the array exactly).
    pub fn new(height: usize, width: usize) -> Result<Self, Error> {
        if height == 0 || width == 0 {
            return Err(Error::EmptyGrid);
        }
        if !height.is_multiple_of(2) || !width.is_multiple_of(2) {
            return Err(Error::OddDimensions { width, height });
        }
        Ok(QuadrantMap {
            height,
            width,
            qh: height / 2,
            qw: width / 2,
        })
    }

    /// Quadrant height (`height / 2`), the paper's `Qw` for square arrays.
    pub const fn quadrant_height(&self) -> usize {
        self.qh
    }

    /// Quadrant width (`width / 2`).
    pub const fn quadrant_width(&self) -> usize {
        self.qw
    }

    /// The global rectangle covered by quadrant `q`.
    pub const fn rect(&self, q: QuadrantId) -> Rect {
        let row = if q.is_north() { 0 } else { self.qh };
        let col = if q.is_west() { 0 } else { self.qw };
        Rect::new(row, col, self.qh, self.qw)
    }

    /// Which quadrant a global position belongs to, with its canonical
    /// coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OutOfBounds`] for positions outside the array.
    pub fn to_canonical(&self, global: Position) -> Result<(QuadrantId, Position), Error> {
        if global.row >= self.height || global.col >= self.width {
            return Err(Error::OutOfBounds {
                pos: global,
                height: self.height,
                width: self.width,
            });
        }
        let north = global.row < self.qh;
        let west = global.col < self.qw;
        let q = match (north, west) {
            (true, true) => QuadrantId::Nw,
            (true, false) => QuadrantId::Ne,
            (false, true) => QuadrantId::Sw,
            (false, false) => QuadrantId::Se,
        };
        Ok((q, self.fold(q, global)))
    }

    /// Maps a canonical quadrant position back to global coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `local` lies outside the quadrant extent.
    pub fn to_global(&self, q: QuadrantId, local: Position) -> Position {
        assert!(
            local.row < self.qh && local.col < self.qw,
            "local {local} outside {}x{} quadrant",
            self.qh,
            self.qw
        );
        let row = if q.is_north() {
            self.qh - 1 - local.row
        } else {
            self.qh + local.row
        };
        let col = if q.is_west() {
            self.qw - 1 - local.col
        } else {
            self.qw + local.col
        };
        Position::new(row, col)
    }

    fn fold(&self, q: QuadrantId, global: Position) -> Position {
        let row = if q.is_north() {
            self.qh - 1 - global.row
        } else {
            global.row - self.qh
        };
        let col = if q.is_west() {
            self.qw - 1 - global.col
        } else {
            global.col - self.qw
        };
        Position::new(row, col)
    }

    /// Maps a canonical column index of quadrant `q` to the global column.
    pub fn global_col(&self, q: QuadrantId, local_col: usize) -> usize {
        if q.is_west() {
            self.qw - 1 - local_col
        } else {
            self.qw + local_col
        }
    }

    /// Maps a canonical row index of quadrant `q` to the global row.
    pub fn global_row(&self, q: QuadrantId, local_row: usize) -> usize {
        if q.is_north() {
            self.qh - 1 - local_row
        } else {
            self.qh + local_row
        }
    }

    /// Splits a grid into its four canonically-oriented quadrant grids
    /// (indexed by [`QuadrantId::ALL`] order: NW, NE, SW, SE).
    ///
    /// This is the software equivalent of the Load Data Module's four
    /// Load Vector units (paper §IV-B: "the flip operation is
    /// automatically performed to prepare the data").
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `grid` does not match the
    /// map's dimensions.
    pub fn split(&self, grid: &AtomGrid) -> Result<[AtomGrid; 4], Error> {
        if grid.dims() != (self.height, self.width) {
            return Err(Error::DimensionMismatch {
                left: (self.height, self.width),
                right: grid.dims(),
            });
        }
        let mut out: Vec<AtomGrid> = Vec::with_capacity(4);
        for q in QuadrantId::ALL {
            let sub = grid.subgrid(&self.rect(q))?;
            let canon = match q {
                QuadrantId::Nw => sub.flip_vertical().flip_horizontal(),
                QuadrantId::Ne => sub.flip_vertical(),
                QuadrantId::Sw => sub.flip_horizontal(),
                QuadrantId::Se => sub,
            };
            out.push(canon);
        }
        Ok(out.try_into().expect("exactly four quadrants"))
    }

    /// [`split`](Self::split) into recycled quadrant grids: each grid in
    /// `recycled` is reshaped in place (reusing its word buffer) and
    /// filled with the canonically-oriented quadrant, skipping the four
    /// intermediate `subgrid`/`flip_*` allocations per quadrant. The
    /// engine's [`PlanContext`](crate::engine::PlanContext) feeds
    /// retired quadrant grids back through here, which makes steady-state
    /// batch decomposition allocation-free. Produces exactly the grids
    /// [`split`](Self::split) returns.
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when `grid` does not match the
    /// map's dimensions.
    pub fn split_into(
        &self,
        grid: &AtomGrid,
        mut recycled: [AtomGrid; 4],
    ) -> Result<[AtomGrid; 4], Error> {
        if grid.dims() != (self.height, self.width) {
            return Err(Error::DimensionMismatch {
                left: (self.height, self.width),
                right: grid.dims(),
            });
        }
        for (q, canon) in QuadrantId::ALL.iter().zip(recycled.iter_mut()) {
            canon.reshape(self.qh, self.qw);
            // canonical[(r, c)] == global[to_global(q, (r, c))] — the
            // flip composition `split` applies, a row of words at a time:
            // west quadrants read their half-row mirrored.
            let col = if q.is_west() { 0 } else { self.qw };
            for r in 0..self.qh {
                let src = grid.row_bits(self.global_row(*q, r));
                bitline::copy_range(src, col, self.qw, q.is_west(), canon.row_bits_mut(r));
            }
        }
        Ok(recycled)
    }

    /// Reassembles a global grid from four canonical quadrant grids
    /// (inverse of [`split`](Self::split)).
    ///
    /// # Errors
    ///
    /// Returns [`Error::DimensionMismatch`] when any quadrant has the
    /// wrong extent.
    pub fn restore(&self, quads: &[AtomGrid; 4]) -> Result<AtomGrid, Error> {
        let mut out = AtomGrid::new(self.height, self.width)?;
        for (q, canon) in QuadrantId::ALL.iter().zip(quads.iter()) {
            if canon.dims() != (self.qh, self.qw) {
                return Err(Error::DimensionMismatch {
                    left: (self.qh, self.qw),
                    right: canon.dims(),
                });
            }
            let sub = match q {
                QuadrantId::Nw => canon.flip_vertical().flip_horizontal(),
                QuadrantId::Ne => canon.flip_vertical(),
                QuadrantId::Sw => canon.flip_horizontal(),
                QuadrantId::Se => canon.clone(),
            };
            let rect = self.rect(*q);
            out.paste(Position::new(rect.row, rect.col), &sub)?;
        }
        Ok(out)
    }

    /// The per-quadrant canonical target extent for a centred
    /// `target_h x target_w` global target.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidTarget`] unless the target is even-sized,
    /// centred, and fits — QRM requires the target to split exactly across
    /// the four quadrants.
    pub fn quadrant_target(&self, target: &Rect) -> Result<(usize, usize), Error> {
        if !target.height.is_multiple_of(2) || !target.width.is_multiple_of(2) {
            return Err(Error::InvalidTarget {
                reason: "QRM target extent must be even",
            });
        }
        if !target.fits_in(self.height, self.width) {
            return Err(Error::InvalidTarget {
                reason: "target larger than array",
            });
        }
        let centred = Rect::centered(self.height, self.width, target.height, target.width)
            .expect("validated above");
        if *target != centred {
            return Err(Error::InvalidTarget {
                reason: "QRM target must be centred in the array",
            });
        }
        Ok((target.height / 2, target.width / 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loading::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn rejects_odd_and_zero() {
        assert!(matches!(
            QuadrantMap::new(9, 10),
            Err(Error::OddDimensions { .. })
        ));
        assert!(matches!(
            QuadrantMap::new(10, 9),
            Err(Error::OddDimensions { .. })
        ));
        assert_eq!(QuadrantMap::new(0, 4), Err(Error::EmptyGrid));
    }

    #[test]
    fn rects_tile_the_array() {
        let m = QuadrantMap::new(10, 8).unwrap();
        assert_eq!(m.rect(QuadrantId::Nw), Rect::new(0, 0, 5, 4));
        assert_eq!(m.rect(QuadrantId::Ne), Rect::new(0, 4, 5, 4));
        assert_eq!(m.rect(QuadrantId::Sw), Rect::new(5, 0, 5, 4));
        assert_eq!(m.rect(QuadrantId::Se), Rect::new(5, 4, 5, 4));
    }

    #[test]
    fn canonical_origin_is_centre_adjacent_corner() {
        let m = QuadrantMap::new(10, 10).unwrap();
        let origin = Position::new(0, 0);
        assert_eq!(m.to_global(QuadrantId::Nw, origin), Position::new(4, 4));
        assert_eq!(m.to_global(QuadrantId::Ne, origin), Position::new(4, 5));
        assert_eq!(m.to_global(QuadrantId::Sw, origin), Position::new(5, 4));
        assert_eq!(m.to_global(QuadrantId::Se, origin), Position::new(5, 5));
    }

    #[test]
    fn global_canonical_roundtrip_everywhere() {
        let m = QuadrantMap::new(8, 12).unwrap();
        for r in 0..8 {
            for c in 0..12 {
                let g = Position::new(r, c);
                let (q, local) = m.to_canonical(g).unwrap();
                assert_eq!(m.to_global(q, local), g);
                assert_eq!(m.global_row(q, local.row), r);
                assert_eq!(m.global_col(q, local.col), c);
            }
        }
    }

    #[test]
    fn to_canonical_out_of_bounds() {
        let m = QuadrantMap::new(8, 8).unwrap();
        assert!(m.to_canonical(Position::new(8, 0)).is_err());
    }

    #[test]
    fn split_restore_roundtrip() {
        let mut rng = seeded_rng(17);
        let g = AtomGrid::random(12, 10, 0.5, &mut rng);
        let m = QuadrantMap::new(12, 10).unwrap();
        let quads = m.split(&g).unwrap();
        for q in &quads {
            assert_eq!(q.dims(), (6, 5));
        }
        let back = m.restore(&quads).unwrap();
        assert_eq!(back, g);
        // atom conservation across the split
        let total: usize = quads.iter().map(AtomGrid::atom_count).sum();
        assert_eq!(total, g.atom_count());
    }

    #[test]
    fn split_places_centre_corner_at_origin() {
        // Put one atom at each centre-adjacent corner; every canonical
        // quadrant must have it at (0,0).
        let mut g = AtomGrid::new(6, 6).unwrap();
        for p in [(2, 2), (2, 3), (3, 2), (3, 3)] {
            g.set_unchecked(p.0, p.1, true);
        }
        let m = QuadrantMap::new(6, 6).unwrap();
        let quads = m.split(&g).unwrap();
        for q in &quads {
            assert!(q.get_unchecked(0, 0));
            assert_eq!(q.atom_count(), 1);
        }
    }

    #[test]
    fn split_dimension_mismatch() {
        let m = QuadrantMap::new(8, 8).unwrap();
        let g = AtomGrid::new(6, 8).unwrap();
        assert!(matches!(m.split(&g), Err(Error::DimensionMismatch { .. })));
        let scrap = std::array::from_fn(|_| AtomGrid::new(1, 1).unwrap());
        assert!(matches!(
            m.split_into(&g, scrap),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn split_into_matches_split_with_stale_scratch() {
        let mut rng = seeded_rng(23);
        let m = QuadrantMap::new(12, 10).unwrap();
        // Mis-shaped, dirty recycled grids.
        let mut recycled: [AtomGrid; 4] =
            std::array::from_fn(|i| AtomGrid::random(3 + i, 17, 0.6, &mut rng));
        for _ in 0..4 {
            let g = AtomGrid::random(12, 10, 0.5, &mut rng);
            recycled = m.split_into(&g, recycled).unwrap();
            assert_eq!(recycled, m.split(&g).unwrap());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn word_level_split_into_matches_split(
            half_h in 1usize..100,
            half_w in 1usize..100,
            fill in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            // Half-widths up to 99 put quadrant rows, and the global
            // rows they are read from, across word boundaries.
            let mut rng = seeded_rng(seed);
            let m = QuadrantMap::new(2 * half_h, 2 * half_w).unwrap();
            let g = AtomGrid::random(2 * half_h, 2 * half_w, fill, &mut rng);
            let stale = std::array::from_fn(|i| AtomGrid::random(i + 1, 70, 0.5, &mut rng));
            prop_assert_eq!(m.split_into(&g, stale).unwrap(), m.split(&g).unwrap());
        }
    }

    #[test]
    fn quadrant_target_validation() {
        let m = QuadrantMap::new(50, 50).unwrap();
        let t = Rect::centered(50, 50, 30, 30).unwrap();
        assert_eq!(m.quadrant_target(&t).unwrap(), (15, 15));
        // odd target
        let odd = Rect::centered(50, 50, 29, 30).unwrap();
        assert!(m.quadrant_target(&odd).is_err());
        // off-centre target
        let off = Rect::new(0, 10, 30, 30);
        assert!(m.quadrant_target(&off).is_err());
    }
}
