//! Synthetic fluorescence-frame rendering.
//!
//! [`render`] places one Gaussian spot per occupied trap and then adds
//! background and read noise to every pixel. The spot weights come from
//! a precomputed stamp per sub-pixel centre offset (see `PsfStamps`)
//! rather than an `exp` per pixel per atom; the stamp holds exactly the
//! values the per-pixel expression gives, so frames are bit-identical to
//! the direct evaluation. What remains per frame is the noise: one
//! Poisson and one Gaussian variate per pixel, whose consumption of the
//! RNG stream is fixed (see [`crate::noise`]).

use std::collections::HashMap;

use rand::Rng;

use qrm_core::grid::AtomGrid;

use crate::layout::TrapLayout;
use crate::noise::{standard_normal, Poisson};

/// Physical parameters of the imaging model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImagingConfig {
    /// Mean detected photons per occupied trap during the exposure.
    pub photons_per_atom: f64,
    /// Mean background photons per pixel.
    pub background_per_px: f64,
    /// Gaussian point-spread-function sigma, in pixels.
    pub psf_sigma_px: f64,
    /// Camera read noise sigma, in counts per pixel.
    pub read_noise: f64,
}

impl Default for ImagingConfig {
    /// A comfortable-SNR regime (hundreds of photons per atom, modest
    /// background), typical of site-resolved fluorescence imaging.
    fn default() -> Self {
        ImagingConfig {
            photons_per_atom: 400.0,
            background_per_px: 2.0,
            psf_sigma_px: 1.2,
            read_noise: 1.5,
        }
    }
}

impl ImagingConfig {
    /// A deliberately poor-SNR regime for robustness experiments
    /// (roughly 3 sigma of separation at the ROI level).
    pub fn low_snr() -> Self {
        ImagingConfig {
            photons_per_atom: 90.0,
            background_per_px: 4.0,
            psf_sigma_px: 1.5,
            read_noise: 3.0,
        }
    }
}

/// A single grey-scale camera frame (row-major `f32` counts).
#[derive(Debug, Clone, PartialEq)]
pub struct FluorescenceImage {
    height: usize,
    width: usize,
    pixels: Vec<f32>,
}

impl FluorescenceImage {
    /// Creates a zeroed frame.
    pub fn new(height: usize, width: usize) -> Self {
        FluorescenceImage {
            height,
            width,
            pixels: vec![0.0; height * width],
        }
    }

    /// Frame height in pixels.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Frame width in pixels.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Pixel value at `(y, x)`; 0.0 outside the frame.
    pub fn at(&self, y: usize, x: usize) -> f32 {
        if y < self.height && x < self.width {
            self.pixels[y * self.width + x]
        } else {
            0.0
        }
    }

    /// Mutable pixel access.
    ///
    /// # Panics
    ///
    /// Panics outside the frame.
    pub fn at_mut(&mut self, y: usize, x: usize) -> &mut f32 {
        assert!(y < self.height && x < self.width, "pixel out of frame");
        &mut self.pixels[y * self.width + x]
    }

    /// Raw pixel buffer (row-major).
    pub fn pixels(&self) -> &[f32] {
        &self.pixels
    }

    /// Sum of all counts.
    pub fn total(&self) -> f64 {
        self.pixels.iter().map(|&p| p as f64).sum()
    }
}

/// Renders a fluorescence frame from ground-truth occupancy.
///
/// Every occupied trap emits a Poisson-distributed photon count spread
/// over a Gaussian PSF; background photons and Gaussian read noise are
/// added per pixel.
///
/// Draw order is fixed: one photon count per occupied trap in row-major
/// trap order, then one background count and one read-noise variate per
/// pixel in row-major pixel order. The frame and the generator's state
/// afterwards are part of the contract — the same inputs and RNG state
/// always give the same pixel bits and leave the same stream behind.
pub fn render<R: Rng + ?Sized>(
    truth: &AtomGrid,
    layout: &TrapLayout,
    config: &ImagingConfig,
    rng: &mut R,
) -> FluorescenceImage {
    assert_eq!(
        (layout.rows(), layout.cols()),
        truth.dims(),
        "layout does not match grid"
    );
    let (h, w) = layout.image_dims();
    let mut img = FluorescenceImage::new(h, w);

    // Atom spots.
    let mut psf = PsfStamps::new(config.psf_sigma_px);
    let atom_photons = Poisson::new(config.photons_per_atom);
    for p in truth.occupied() {
        let (cy, cx) = layout.center(p.row, p.col);
        let photons = atom_photons.sample(rng) as f64;
        psf.deposit(&mut img, cy, cx, photons);
    }

    // Background + read noise.
    let background = Poisson::new(config.background_per_px);
    for px in img.pixels.iter_mut() {
        let bg = background.sample(rng) as f64;
        let read = config.read_noise * standard_normal(rng);
        *px = (*px as f64 + bg + read).max(0.0) as f32;
    }
    img
}

/// Gaussian PSF weights over the `(2·reach+1)²` pixel window around a
/// spot, one stamp per distinct sub-pixel offset of the spot centre.
///
/// A spot centred at `(cy, cx)` covers pixels `(iy + dy, ix + dx)` with
/// `(iy, ix)` the rounded centre. The weight of each is
/// `norm · exp(-(fy² + fx²) / 2σ²)` with `fy = (iy + dy) − cy`. The
/// offset `oy = cy − iy` is exact (`|oy| ≤ 0.5` needs no bits beyond
/// `cy`'s own), so `dy − oy` rounds the same real number as
/// `(iy + dy) − cy` and the stamp keyed by `(oy, ox)` holds bit for bit
/// the weights a per-pixel evaluation would compute. Every trap of a
/// whole-pitch layout shares one offset, hence one stamp per frame.
struct PsfStamps {
    reach: isize,
    sigma2: f64,
    norm: f64,
    stamps: HashMap<(u64, u64), Vec<f64>>,
}

impl PsfStamps {
    fn new(sigma_px: f64) -> Self {
        let sigma2 = sigma_px * sigma_px;
        PsfStamps {
            reach: (4.0 * sigma_px).ceil() as isize,
            sigma2,
            norm: 1.0 / (2.0 * std::f64::consts::PI * sigma2),
            stamps: HashMap::new(),
        }
    }

    /// Adds `photons` spread over the PSF centred at `(cy, cx)`, clipped
    /// to the frame.
    fn deposit(&mut self, img: &mut FluorescenceImage, cy: f64, cx: f64, photons: f64) {
        let reach = self.reach;
        let (iy, ix) = (cy.round() as isize, cx.round() as isize);
        let (oy, ox) = (cy - iy as f64, cx - ix as f64);
        let (sigma2, norm) = (self.sigma2, self.norm);
        let stamp = self
            .stamps
            .entry((oy.to_bits(), ox.to_bits()))
            .or_insert_with(|| {
                let span = -reach..=reach;
                span.clone()
                    .flat_map(|dy| span.clone().map(move |dx| (dy, dx)))
                    .map(|(dy, dx)| {
                        let fy = dy as f64 - oy;
                        let fx = dx as f64 - ox;
                        norm * (-(fy * fy + fx * fx) / (2.0 * sigma2)).exp()
                    })
                    .collect()
            });

        let (h, w) = (img.height as isize, img.width as isize);
        let (y0, y1) = ((iy - reach).max(0), (iy + reach).min(h - 1));
        let (x0, x1) = ((ix - reach).max(0), (ix + reach).min(w - 1));
        if y0 > y1 || x0 > x1 {
            return;
        }
        let side = (2 * reach + 1) as usize;
        let (sx0, sx1) = ((x0 - ix + reach) as usize, (x1 - ix + reach) as usize);
        for y in y0..=y1 {
            let weights = &stamp[(y - iy + reach) as usize * side..][sx0..=sx1];
            let start = y as usize * img.width;
            let row = &mut img.pixels[start + x0 as usize..=start + x1 as usize];
            for (px, &weight) in row.iter_mut().zip(weights) {
                *px += (photons * weight) as f32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::poisson_reference;
    use proptest::prelude::*;
    use qrm_core::loading::seeded_rng;

    /// The direct renderer `render` replaced: an `exp` per pixel per
    /// atom through the bounds-checked accessor, and the one-shot
    /// Poisson sampler. `render` must match it bit for bit, RNG state
    /// included.
    fn render_reference<R: Rng + ?Sized>(
        truth: &AtomGrid,
        layout: &TrapLayout,
        config: &ImagingConfig,
        rng: &mut R,
    ) -> FluorescenceImage {
        let (h, w) = layout.image_dims();
        let mut img = FluorescenceImage::new(h, w);
        let reach = (4.0 * config.psf_sigma_px).ceil() as isize;
        let sigma2 = config.psf_sigma_px * config.psf_sigma_px;
        let norm = 1.0 / (2.0 * std::f64::consts::PI * sigma2);
        for p in truth.occupied() {
            let (cy, cx) = layout.center(p.row, p.col);
            let photons = poisson_reference(config.photons_per_atom, rng) as f64;
            let iy = cy.round() as isize;
            let ix = cx.round() as isize;
            for dy in -reach..=reach {
                for dx in -reach..=reach {
                    let (y, x) = (iy + dy, ix + dx);
                    if y < 0 || x < 0 || y as usize >= h || x as usize >= w {
                        continue;
                    }
                    let fy = y as f64 - cy;
                    let fx = x as f64 - cx;
                    let weight = norm * (-(fy * fy + fx * fx) / (2.0 * sigma2)).exp();
                    *img.at_mut(y as usize, x as usize) += (photons * weight) as f32;
                }
            }
        }
        for px in img.pixels.iter_mut() {
            let bg = poisson_reference(config.background_per_px, rng) as f64;
            let read = config.read_noise * standard_normal(rng);
            *px = (*px as f64 + bg + read).max(0.0) as f32;
        }
        img
    }

    fn pixel_bits(img: &FluorescenceImage) -> Vec<u32> {
        img.pixels().iter().map(|p| p.to_bits()).collect()
    }

    /// A whole pitch in `2..=12`, or a fractional one in `[1.5, 12)`.
    fn pitch() -> impl Strategy<Value = f64> {
        (any::<bool>(), 2usize..13, 1.5f64..12.0)
            .prop_map(|(whole, p, f)| if whole { p as f64 } else { f })
    }

    /// A whole margin in `0..=6`, or a fractional one in `[0, 6)`.
    fn margin() -> impl Strategy<Value = f64> {
        (any::<bool>(), 0usize..7, 0.0f64..6.0)
            .prop_map(|(whole, m, f)| if whole { m as f64 } else { f })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn render_matches_reference(
            (rows, cols) in (1usize..21, 1usize..21),
            pitch in pitch(),
            margin in margin(),
            sigma in (0usize..4).prop_map(|i| [0.5, 1.2, 1.5, 2.3][i]),
            (photons, background, read) in (0.0f64..600.0, 0.0f64..6.0, 0.0f64..3.0),
            (fill, seed) in (0.0f64..1.0, any::<u64>()),
        ) {
            let layout = TrapLayout::new(rows, cols, pitch, margin);
            let config = ImagingConfig {
                photons_per_atom: photons,
                background_per_px: background,
                psf_sigma_px: sigma,
                read_noise: read,
            };
            let mut rng = seeded_rng(seed);
            let truth = AtomGrid::random(rows, cols, fill, &mut rng);
            let mut reference_rng = rng.clone();
            let frame = render(&truth, &layout, &config, &mut rng);
            let expected = render_reference(&truth, &layout, &config, &mut reference_rng);
            prop_assert_eq!(pixel_bits(&frame), pixel_bits(&expected));
            prop_assert!(rng == reference_rng, "RNG state diverged");
        }
    }

    #[test]
    fn frame_dimensions_follow_layout() {
        let layout = TrapLayout::new(5, 7, 6.0, 4.0);
        let truth = AtomGrid::new(5, 7).unwrap();
        let mut rng = seeded_rng(1);
        let img = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
        assert_eq!((img.height(), img.width()), layout.image_dims());
    }

    #[test]
    fn occupied_traps_are_brighter() {
        let layout = TrapLayout::new(2, 2, 10.0, 6.0);
        let truth = AtomGrid::parse("#.\n..").unwrap();
        let mut rng = seeded_rng(2);
        let img = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
        let (y0, x0) = layout.center(0, 0);
        let (y1, x1) = layout.center(0, 1);
        let bright = img.at(y0 as usize, x0 as usize);
        let dark = img.at(y1 as usize, x1 as usize);
        assert!(bright > dark + 10.0, "occupied {bright} vs empty {dark}");
    }

    #[test]
    fn total_counts_scale_with_atoms() {
        let layout = TrapLayout::new(4, 4, 8.0, 5.0);
        let mut rng = seeded_rng(3);
        let empty = AtomGrid::new(4, 4).unwrap();
        let mut full = AtomGrid::new(4, 4).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                full.set_unchecked(r, c, true);
            }
        }
        let cfg = ImagingConfig::default();
        let t_empty = render(&empty, &layout, &cfg, &mut rng).total();
        let t_full = render(&full, &layout, &cfg, &mut rng).total();
        // 16 atoms x ~400 photons above background
        assert!(t_full > t_empty + 16.0 * 250.0);
    }

    #[test]
    fn pixel_access_bounds() {
        let img = FluorescenceImage::new(4, 4);
        assert_eq!(img.at(10, 10), 0.0);
        assert_eq!(img.pixels().len(), 16);
    }

    #[test]
    #[should_panic(expected = "layout does not match grid")]
    fn layout_grid_mismatch_panics() {
        let layout = TrapLayout::new(2, 2, 8.0, 4.0);
        let truth = AtomGrid::new(3, 3).unwrap();
        let mut rng = seeded_rng(4);
        let _ = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
    }
}
