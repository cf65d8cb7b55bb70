//! Detection fidelity of the imaging model over many frames.
//!
//! Imaging model v2 changed how every variate is drawn, not what it is
//! drawn from, so detection must be as good as under v1. Each regime
//! renders [`FRAMES`] 50×50 frames at fill 0.55 (truths from one seed,
//! imaging from another, so v1 and v2 see the same truths) and counts
//! false positives and false negatives with the default detector.
//!
//! * `ImagingConfig::default()` must recover every frame exactly, as v1
//!   did on these frames.
//! * `low_snr()` must land within 4 standard errors of v1's rates,
//!   measured with the same seeds and pinned below. Otsu picks one
//!   threshold per frame, so errors within a frame are correlated; the
//!   standard errors are taken over frames, not over traps.

use qrm_core::grid::AtomGrid;
use qrm_core::loading::seeded_rng;
use qrm_vision::prelude::*;

const FRAMES: usize = 1000;
const SIDE: usize = 50;
const FILL: f64 = 0.55;
const TRUTH_SEED: u64 = 11;
const IMAGING_SEED: u64 = 12;

/// Imaging model v1's `low_snr()` false negatives over the same frames:
/// errors, occupied traps and the standard error over frames.
const V1_LOW_SNR_MISSES: Rate = Rate {
    errors: 47_379,
    population: 1_376_368,
    std_err: 1.791e-4,
};

/// Imaging model v1's `low_snr()` false positives over the same frames:
/// errors, empty traps and the standard error over frames.
const V1_LOW_SNR_FALSE_ALARMS: Rate = Rate {
    errors: 18_379,
    population: 1_123_632,
    std_err: 1.296e-4,
};

/// Per-frame error and population counts of one regime.
#[derive(Debug, Default)]
struct Tally {
    /// `(false negatives, occupied traps)` per frame.
    misses: Vec<(usize, usize)>,
    /// `(false positives, empty traps)` per frame.
    false_alarms: Vec<(usize, usize)>,
}

/// A pooled error rate and its standard error over frames (ratio
/// estimator: `Σ errors / Σ population`).
#[derive(Debug, Clone, Copy)]
struct Rate {
    errors: usize,
    population: usize,
    std_err: f64,
}

impl Rate {
    fn pooled(frames: &[(usize, usize)]) -> Rate {
        let errors: usize = frames.iter().map(|f| f.0).sum();
        let population: usize = frames.iter().map(|f| f.1).sum();
        let rate = errors as f64 / population as f64;
        let n = frames.len() as f64;
        let residuals: f64 = frames
            .iter()
            .map(|&(e, p)| (e as f64 - rate * p as f64).powi(2))
            .sum();
        let std_err = (residuals * n / (n - 1.0)).sqrt() / population as f64;
        Rate {
            errors,
            population,
            std_err,
        }
    }

    fn value(self) -> f64 {
        self.errors as f64 / self.population as f64
    }

    /// Whether `self` is within `sigmas` combined standard errors of
    /// `other`.
    fn agrees_with(self, other: Rate, sigmas: f64) -> bool {
        let spread = (self.std_err.powi(2) + other.std_err.powi(2)).sqrt();
        (self.value() - other.value()).abs() <= sigmas * spread
    }
}

fn tally(config: &ImagingConfig) -> Tally {
    let layout = TrapLayout::new(SIDE, SIDE, 6.0, 4.0);
    let detector = Detector::default();
    let mut truths = seeded_rng(TRUTH_SEED);
    let mut imaging = seeded_rng(IMAGING_SEED);
    let mut tally = Tally::default();
    for _ in 0..FRAMES {
        let truth = AtomGrid::random(SIDE, SIDE, FILL, &mut truths);
        let frame = render(&truth, &layout, config, &mut imaging);
        let report = detector.detect(&frame, &layout).expect("detect");
        let (tp, fp, fal_n, tn) = report.confusion(&truth).expect("same dims");
        tally.misses.push((fal_n, tp + fal_n));
        tally.false_alarms.push((fp, fp + tn));
    }
    tally
}

#[test]
fn default_regime_detects_every_frame_exactly() {
    let tally = tally(&ImagingConfig::default());
    let misses = Rate::pooled(&tally.misses);
    let false_alarms = Rate::pooled(&tally.false_alarms);
    assert_eq!(
        (misses.errors, false_alarms.errors),
        (0, 0),
        "default regime: {misses:?} false negatives, {false_alarms:?} false positives"
    );
}

#[test]
fn low_snr_regime_matches_v1_rates() {
    let tally = tally(&ImagingConfig::low_snr());
    let misses = Rate::pooled(&tally.misses);
    let false_alarms = Rate::pooled(&tally.false_alarms);
    // The truths come from their own seed, so both models saw them.
    assert_eq!(misses.population, V1_LOW_SNR_MISSES.population);
    assert_eq!(false_alarms.population, V1_LOW_SNR_FALSE_ALARMS.population);
    assert!(
        misses.agrees_with(V1_LOW_SNR_MISSES, 4.0),
        "false-negative rate {misses:?} vs v1 {V1_LOW_SNR_MISSES:?}"
    );
    assert!(
        false_alarms.agrees_with(V1_LOW_SNR_FALSE_ALARMS, 4.0),
        "false-positive rate {false_alarms:?} vs v1 {V1_LOW_SNR_FALSE_ALARMS:?}"
    );
}
