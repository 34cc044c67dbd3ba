//! §3 of the paper: fast analytical thermal-profile estimation.
//!
//! * [`rect`] — the closed forms: point source (Eq. 16), exact centre
//!   temperature of a rectangle (Eq. 18), finite-line far field (Eq. 19)
//!   and their `min` combination (Eq. 20),
//! * [`images`] — the method of images enforcing adiabatic die sides and
//!   the isothermal bottom (Figs. 6–7),
//! * `image_sum` — the exact per-watt image sum both operator builds
//!   evaluate, with each distinct kernel term computed once and every
//!   sum bit-identical to the term-by-term loop,
//! * [`profile`] — [`ThermalModel`]: superposition over a floorplan
//!   (Eq. 21) with images, surface maps and cross-sections,
//! * [`map`] — FFT-accelerated high-resolution temperature maps: the
//!   Eq. 20/21 image sum reorganized as a tile-grid convolution
//!   (power blurring) for hotspot localization at thousands of tiles,
//! * [`resistance`] — self-heating thermal resistance from Eq. 18
//!   (the model line of Fig. 10),
//! * [`conductivity`] — self-consistent `k(T)` iteration (extension),
//! * [`capacitance`] — per-block thermal capacitances closing the
//!   chip-scale transient system (Fig. 9 scaled to the floorplan; the
//!   solver lives in [`cosim::transient`](crate::cosim::transient)).
//!
//! The batched form of Eq. 21 — the per-floorplan influence matrix reused
//! across power vectors — lives in
//! [`cosim::operator`](crate::cosim::operator). The equation-by-equation
//! map from the paper to this code lives in `docs/EQUATIONS.md` at the
//! repository root.
//!
//! # Example: Eq. 21 surface queries
//!
//! ```
//! use ptherm_core::thermal::ThermalModel;
//! use ptherm_floorplan::Floorplan;
//!
//! let fp = Floorplan::paper_three_blocks();
//! let model = ThermalModel::paper_defaults(&fp);
//! // Hottest over the active block, coolest in the far corner.
//! assert!(model.temperature(0.30e-3, 0.70e-3) > model.temperature(0.95e-3, 0.05e-3));
//! ```

pub mod capacitance;
pub mod conductivity;
pub(crate) mod image_sum;
pub mod images;
pub mod map;
pub mod profile;
pub mod rect;
pub mod resistance;

pub use map::{map_operator_fingerprint, MapOperator, MapWorkspace};
pub use profile::ThermalModel;
