//! # qrm-vision — fluorescence imaging and atom detection
//!
//! The control loop of a neutral-atom machine starts with a camera frame:
//! occupied traps fluoresce, an atom-detection step converts the image
//! into the binary occupancy matrix, and that bitfield is what the
//! rearrangement accelerator consumes (paper Fig. 1).
//!
//! The paper's evaluation replaces camera data with random matrices
//! (§V-A); this crate closes the loop anyway so the full pipeline is
//! executable end-to-end: [`render`](image::render) synthesises a frame
//! from a ground-truth [`AtomGrid`](qrm_core::grid::AtomGrid) (Gaussian
//! point-spread functions, Poisson shot noise, Gaussian read noise), and
//! [`Detector`](detect::Detector) recovers the occupancy with per-trap
//! region-of-interest photometry and (optionally automatic) thresholding.
//!
//! ## The RNG stream is part of the contract
//!
//! A shot's frame is a pure function of the truth grid, the layout, the
//! imaging parameters and the generator's state, and so is the state the
//! generator is left in — which every later draw of the shot (transport
//! loss, the next round's frame) depends on. Service reports, known-answer
//! hashes and the equivalence suites all pin this, so the hot path is
//! optimised only in ways that keep every pixel bit and every draw:
//!
//! * [`render`](image::render) evaluates the Gaussian PSF once per
//!   distinct sub-pixel centre offset into a stamp (one stamp per frame
//!   for whole-pitch layouts) holding exactly the per-pixel weights, and
//!   adds it through row slices clipped once per spot;
//! * [`Poisson`](noise::Poisson) sets up Knuth's `exp(-λ)` bound once per
//!   frame instead of once per pixel;
//! * [`Detector`](detect::Detector) finds the background quartile by
//!   selection instead of sorting the frame.
//!
//! What remains per frame is the noise itself, one Poisson and one
//! Gaussian variate per pixel. Making that cheaper means drawing
//! differently, which changes every frame: a declared change of the
//! imaging model, not an optimisation.
//!
//! ```
//! use qrm_vision::prelude::*;
//! use qrm_core::grid::AtomGrid;
//!
//! # fn main() -> Result<(), qrm_core::Error> {
//! let mut rng = qrm_core::loading::seeded_rng(5);
//! let truth = AtomGrid::random(10, 10, 0.5, &mut rng);
//! let layout = TrapLayout::new(10, 10, 6.0, 4.0);
//! let frame = render(&truth, &layout, &ImagingConfig::default(), &mut rng);
//! let report = Detector::default().detect(&frame, &layout)?;
//! assert_eq!(report.grid, truth); // high SNR: perfect recovery
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detect;
pub mod image;
pub mod layout;
pub mod noise;

/// Commonly used items.
pub mod prelude {
    pub use crate::detect::{DetectionReport, Detector, ThresholdPolicy};
    pub use crate::image::{render, FluorescenceImage, ImagingConfig};
    pub use crate::layout::TrapLayout;
}
