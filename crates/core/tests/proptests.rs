//! Property-based tests for the core data structures.

use proptest::prelude::*;
use qrm_core::bitline;
use qrm_core::geometry::{Position, Rect};
use qrm_core::grid::AtomGrid;
use qrm_core::quadrant::QuadrantMap;
use rand::SeedableRng;

fn arb_grid() -> impl Strategy<Value = AtomGrid> {
    (1usize..16, 1usize..16, 0.0f64..1.0, any::<u64>()).prop_map(|(h, w, fill, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        AtomGrid::random(h * 2, w * 2, fill, &mut rng)
    })
}

fn arb_line() -> impl Strategy<Value = (Vec<u64>, usize)> {
    (1usize..150, any::<u64>()).prop_map(|(width, seed)| {
        let mut rng_state = seed | 1;
        let mut next = move || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        let mut line = vec![0u64; bitline::words_for(width)];
        for w in line.iter_mut() {
            *w = next();
        }
        let tail = width % 64;
        if tail != 0 {
            let n = line.len();
            line[n - 1] &= (1u64 << tail) - 1;
        }
        (line, width)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flips_are_involutions_and_conserve(grid in arb_grid()) {
        prop_assert_eq!(grid.flip_horizontal().flip_horizontal(), grid.clone());
        prop_assert_eq!(grid.flip_vertical().flip_vertical(), grid.clone());
        prop_assert_eq!(grid.transpose().transpose(), grid.clone());
        prop_assert_eq!(grid.flip_horizontal().atom_count(), grid.atom_count());
        prop_assert_eq!(grid.transpose().atom_count(), grid.atom_count());
    }

    #[test]
    fn transpose_commutes_with_flips(grid in arb_grid()) {
        // transpose(flip_h(g)) == flip_v(transpose(g))
        prop_assert_eq!(
            grid.flip_horizontal().transpose(),
            grid.transpose().flip_vertical()
        );
    }

    #[test]
    fn bitfield_roundtrip(grid in arb_grid()) {
        let bytes = grid.to_bitfield();
        let back = AtomGrid::from_bitfield(grid.height(), grid.width(), &bytes).unwrap();
        prop_assert_eq!(back, grid);
    }

    #[test]
    fn parse_display_roundtrip(grid in arb_grid()) {
        let art = grid.to_string();
        let back = AtomGrid::parse(&art).unwrap();
        prop_assert_eq!(back, grid);
    }

    #[test]
    fn quadrant_split_restore_roundtrip(grid in arb_grid()) {
        let map = QuadrantMap::new(grid.height(), grid.width()).unwrap();
        let quads = map.split(&grid).unwrap();
        let total: usize = quads.iter().map(AtomGrid::atom_count).sum();
        prop_assert_eq!(total, grid.atom_count());
        prop_assert_eq!(map.restore(&quads).unwrap(), grid);
    }

    #[test]
    fn quadrant_coordinate_roundtrip(grid in arb_grid(), r in 0usize..32, c in 0usize..32) {
        let map = QuadrantMap::new(grid.height(), grid.width()).unwrap();
        let p = Position::new(r % grid.height(), c % grid.width());
        let (q, local) = map.to_canonical(p).unwrap();
        prop_assert_eq!(map.to_global(q, local), p);
    }

    #[test]
    fn suffix_shift_conserves_and_fills_hole((line, width) in arb_line()) {
        if let Some(hole) = bitline::lowest_zero_in(&line, 0, width) {
            let before = bitline::count_ones(&line);
            let had_atoms_above = bitline::highest_one(&line).is_some_and(|t| t > hole);
            let mut shifted = line.clone();
            bitline::suffix_shift(&mut shifted, hole, width);
            prop_assert_eq!(bitline::count_ones(&shifted), before);
            if had_atoms_above {
                // the nearest atom above moved one step toward the hole
                let next_above = (hole + 1..width)
                    .find(|&p| bitline::get(&line, p))
                    .expect("atom above exists");
                prop_assert!(bitline::get(&shifted, next_above - 1));
            }
            // bits below the hole untouched
            for p in 0..hole {
                prop_assert_eq!(bitline::get(&shifted, p), bitline::get(&line, p));
            }
        }
    }

    #[test]
    fn range_mask_counts(words in 1usize..4, lo in 0usize..200, span in 0usize..200) {
        let hi = lo + span;
        let m = bitline::range_mask(words, lo, hi);
        let clamped_hi = hi.min(words * 64);
        let expect = clamped_hi.saturating_sub(lo.min(clamped_hi));
        prop_assert_eq!(bitline::count_ones(&m), expect);
    }

    #[test]
    fn rect_positions_cover_area(r in 0usize..8, c in 0usize..8, h in 1usize..8, w in 1usize..8) {
        let rect = Rect::new(r, c, h, w);
        let v: Vec<Position> = rect.positions().collect();
        prop_assert_eq!(v.len(), rect.area());
        for p in &v {
            prop_assert!(rect.contains(*p));
        }
    }
}
