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
//! ## The imaging model is part of the contract
//!
//! A shot's frame is a pure function of the truth grid, the layout, the
//! imaging parameters and one word of the caller's generator, the frame
//! key: [`render`](image::render) draws exactly that word and nothing
//! else, so every later draw of the shot (transport loss, the next
//! round's frame) starts one word on. Service reports, known-answer
//! hashes and the equivalence suites all pin this. The model is
//! versioned as [`IMAGING_MODEL_VERSION`]; `docs/PROTOCOL.md` specifies
//! it.
//!
//! Version 2 keys every variate by `(frame key, domain, index)` through
//! SplitMix64 ([`noise::NoiseStream`]): trap photons by trap index,
//! background by pixel index, read noise by pixel pair. A pixel's value
//! therefore does not depend on the order pixels are visited. Small
//! Poisson means take one uniform through a per-frame inverse-CDF table
//! ([`noise::Poisson`]), and Gaussians come in Marsaglia polar pairs,
//! one `ln` and one `sqrt` per two pixels and no trigonometry. Version
//! 1 drew the same distributions straight from the stream (Knuth's
//! product method, about three uniforms per background pixel, and
//! Box–Muller keeping only its cosine variate); v2 renders the same
//! frames statistically, not bit for bit.
//!
//! The rest of the hot path keeps every bit:
//!
//! * [`render`](image::render) evaluates the Gaussian PSF once per
//!   distinct sub-pixel centre offset into a stamp (one stamp per frame
//!   for whole-pitch layouts) holding exactly the per-pixel weights, and
//!   adds it through row slices clipped once per spot;
//! * [`Detector`](detect::Detector) finds the background quartile by
//!   selection instead of sorting the frame.
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

/// The version of the imaging model [`render`](image::render)
/// implements. Frames, and every report byte downstream of them, are
/// reproducible only within one version; see `docs/PROTOCOL.md`.
pub const IMAGING_MODEL_VERSION: u32 = 2;

/// Commonly used items.
pub mod prelude {
    pub use crate::detect::{DetectionReport, Detector, ThresholdPolicy};
    pub use crate::image::{render, FluorescenceImage, ImagingConfig};
    pub use crate::layout::TrapLayout;
}
