//! The paper's headline numbers, as machine-readable targets.
//!
//! Used by the figure regenerators (to print paper-vs-measured columns),
//! by EXPERIMENTS.md, and by the reproduction tests that assert our
//! crescendos have the paper's *shape* (who wins, roughly by how much,
//! where the crossovers fall) without chasing its exact testbed readings.

/// One (experiment, strategy, operating point) with the paper's reported
/// normalized energy and delay (relative to static 1.4 GHz).
#[derive(Debug, Clone, Copy)]
pub struct PaperTarget {
    /// Which figure/experiment.
    pub(crate) experiment: &'static str,
    /// Strategy label as in the figure legend.
    pub strategy: &'static str,
    /// Operating point (MHz), 0 for governor-controlled strategies.
    pub mhz: u32,
    /// Normalized energy the paper reports.
    pub norm_energy: f64,
    /// Normalized delay the paper reports.
    pub norm_delay: f64,
}

/// Every quantitative claim in the paper's Section 4, normalized to the
/// static 1.4 GHz point of the same experiment.
pub(crate) fn paper_targets() -> Vec<PaperTarget> {
    vec![
        // Figure 3: FT class B on 8 nodes.
        PaperTarget {
            experiment: "ft_b8",
            strategy: "stat",
            mhz: 600,
            norm_energy: 0.655,
            norm_delay: 1.068,
        },
        PaperTarget {
            experiment: "ft_b8",
            strategy: "cpuspeed",
            mhz: 0,
            norm_energy: 0.966,
            norm_delay: 0.988,
        },
        // Figure 4: FT class C on 8 processors.
        PaperTarget {
            experiment: "ft_c8",
            strategy: "stat",
            mhz: 800,
            norm_energy: 0.714,
            norm_delay: 1.042,
        },
        PaperTarget {
            experiment: "ft_c8",
            strategy: "stat",
            mhz: 600,
            norm_energy: 0.663,
            norm_delay: 1.099,
        },
        PaperTarget {
            experiment: "ft_c8",
            strategy: "cpuspeed",
            mhz: 0,
            norm_energy: 0.876,
            norm_delay: 1.039,
        },
        PaperTarget {
            experiment: "ft_c8",
            strategy: "dyn",
            mhz: 1400,
            norm_energy: 0.674,
            norm_delay: 1.078,
        },
        PaperTarget {
            experiment: "ft_c8",
            strategy: "dyn",
            mhz: 1000,
            norm_energy: 0.654,
            norm_delay: 1.0871,
        },
        // Figure 5: 12K x 12K transpose on 15 processors.
        PaperTarget {
            experiment: "transpose15",
            strategy: "stat",
            mhz: 800,
            norm_energy: 0.838,
            norm_delay: 1.0078,
        },
        PaperTarget {
            experiment: "transpose15",
            strategy: "stat",
            mhz: 600,
            norm_energy: 0.803,
            norm_delay: 1.024,
        },
        PaperTarget {
            experiment: "transpose15",
            strategy: "cpuspeed",
            mhz: 0,
            norm_energy: 0.981,
            norm_delay: 0.9917,
        },
        // Figure 6: memory-bound microbenchmark.
        PaperTarget {
            experiment: "memory_micro",
            strategy: "stat",
            mhz: 600,
            norm_energy: 0.593,
            norm_delay: 1.054,
        },
        // Figure 7: CPU-bound (L2) microbenchmark.
        PaperTarget {
            experiment: "cpu_micro",
            strategy: "stat",
            mhz: 600,
            norm_energy: 1.02,
            norm_delay: 2.34,
        },
        PaperTarget {
            experiment: "cpu_micro",
            strategy: "stat",
            mhz: 800,
            norm_energy: 0.90,
            norm_delay: 1.75,
        },
        // Figure 8a: 256 KB round trip.
        PaperTarget {
            experiment: "comm_256k",
            strategy: "stat",
            mhz: 600,
            norm_energy: 0.699,
            norm_delay: 1.06,
        },
        // Figure 8b: 4 KB message, 64 B stride.
        PaperTarget {
            experiment: "comm_4k",
            strategy: "stat",
            mhz: 600,
            norm_energy: 0.64,
            norm_delay: 1.04,
        },
    ]
}

/// Look up a target by experiment/strategy/MHz.
pub fn target(experiment: &str, strategy: &str, mhz: u32) -> Option<PaperTarget> {
    paper_targets()
        .into_iter()
        .find(|t| t.experiment == experiment && t.strategy == strategy && t.mhz == mhz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_cover_every_evaluation_figure() {
        let t = paper_targets();
        for exp in [
            "ft_b8",
            "ft_c8",
            "transpose15",
            "memory_micro",
            "cpu_micro",
            "comm_256k",
            "comm_4k",
        ] {
            assert!(t.iter().any(|x| x.experiment == exp), "missing {exp}");
        }
    }

    #[test]
    fn lookup_finds_known_target() {
        let t = target("ft_b8", "stat", 600).unwrap();
        assert!((t.norm_energy - 0.655).abs() < 1e-9);
        assert!(target("ft_b8", "stat", 999).is_none());
    }

    #[test]
    fn all_targets_are_sane() {
        for t in paper_targets() {
            assert!(t.norm_energy > 0.3 && t.norm_energy < 1.2, "{t:?}");
            assert!(t.norm_delay > 0.9 && t.norm_delay < 2.6, "{t:?}");
        }
    }
}
