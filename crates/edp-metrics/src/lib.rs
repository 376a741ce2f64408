//! # edp-metrics — power-performance efficiency metrics
//!
//! The paper's Section 2 metrics, exactly:
//!
//! * **ED²P** = `E · D²` (Martonosi et al.): frequency-independent under
//!   ideal CMOS scaling (`E ∝ f²`, `D ∝ 1/f`), so deviations from constant
//!   reveal application slack.
//! * **Weighted ED²P** = `E^(1-∂) · D^(2(1+∂))`, `-1 ≤ ∂ ≤ 1` (the paper's
//!   Equation 5): `∂ = 1` reduces to `D⁴` (pure performance), `∂ = -1` to
//!   `E²` (pure energy), `∂ = 0` to plain ED²P. The paper uses `∂ = 0.2`
//!   for "HPC".
//! * **Best operating point** (Equation 6): the point minimizing weighted
//!   ED²P over a crescendo.
//! * **Crescendos**: `(energy, delay)` series over operating points,
//!   normalized to the fastest point — the paper's Figures 1, 3, 6, 7, 8.
//! * **Iso-efficiency curves** (Figure 2): the energy fraction required to
//!   break even at a given delay factor under each `∂`.

pub(crate) mod best;
pub(crate) mod crescendo;
pub(crate) mod tradeoff;
pub(crate) mod weighted;

pub use best::{best_operating_point, efficiency_gain};
pub use crescendo::Crescendo;
pub use tradeoff::iso_efficiency_energy_fraction;
pub use weighted::{ed2p, weighted_ed2p, DELTA_ENERGY, DELTA_HPC, DELTA_PERFORMANCE};
