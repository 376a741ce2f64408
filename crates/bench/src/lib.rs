//! # pwrperf-bench — paper and extension regenerators
//!
//! * **`all_figures`** prints every table and figure of the paper's
//!   evaluation in order, one titled section each, with the reproduced
//!   rows/series next to the paper's reported numbers
//!   (`cargo run --release -p pwrperf-bench --bin all_figures`).
//! * **Extension studies** ([`extensions`]): one binary per study, and
//!   `all_extensions` for the full set.
//!
//! The simulator's own performance is measured by the `perfbench`
//! package (see `BENCHMARK.json`), not here.

use pwrperf::calibration::PaperTarget;

/// Print a paper-vs-measured comparison row.
pub(crate) fn print_target_row(target: &PaperTarget, measured_e: f64, measured_d: f64) {
    println!(
        "  {:>12} @{:>5}MHz  paper E={:.3} D={:.3}  measured E={:.3} D={:.3}  (ΔE={:+.3}, ΔD={:+.3})",
        target.strategy,
        target.mhz,
        target.norm_energy,
        target.norm_delay,
        measured_e,
        measured_d,
        measured_e - target.norm_energy,
        measured_d - target.norm_delay,
    );
}

/// Standard header for a regenerator binary.
pub(crate) fn banner(figure: &str, description: &str) {
    println!("==============================================================");
    println!("{figure}: {description}");
    println!("Ge, Feng, Cameron — IPPS 2005 reproduction (simulated cluster)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrperf::calibration::target;

    #[test]
    fn helpers_run_without_panicking() {
        banner("Fig. X", "smoke test");
        let t = target("ft_b8", "stat", 600).unwrap();
        print_target_row(&t, 0.68, 1.09);
    }
}

pub mod extensions;
pub mod figures;
