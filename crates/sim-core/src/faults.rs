//! Deterministic fault injection: typed fault specifications and counters.
//!
//! The paper's measurement pipeline is built to survive imperfect
//! instruments — quantized ACPI batteries, a "sick battery or meter" node
//! the post-processing filters out, per-node performance variation. A
//! [`FaultSpec`] describes such imperfections for one simulated run:
//! straggler nodes, stuck or noisy battery registers, skipped sampling
//! windows, DVFS transition failures and latency spikes, and degraded
//! network links. The spec is plain data; the engine owns the runtime
//! that draws from a [`crate::DetRng`] seeded by [`FaultSpec::seed`], so
//! the same spec plus the same seed reproduces the same faults bit for
//! bit, on any worker-thread count.
//!
//! An empty spec (the default) injects nothing and leaves the engine's
//! output bit-identical to a build without fault support.

/// One injectable imperfection. Node indices refer to cluster positions;
/// the engine validates them against the actual cluster size.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Node `node` is a straggler: every compute segment costs
    /// `factor` times the cycles (factor > 1 slows the node down).
    /// Memory-stall time and network time are unaffected, like a CPU
    /// running hot and throttling.
    ComputeSlowdown {
        /// Target node.
        node: usize,
        /// Cycle multiplier, > 0 (1.0 is a no-op).
        factor: f64,
    },
    /// Node `node`'s battery register freezes after `after_s` simulated
    /// seconds: every later poll repeats the last reading (the paper's
    /// "sick battery").
    BatteryStuck {
        /// Target node.
        node: usize,
        /// Simulated seconds after which readings freeze.
        after_s: f64,
    },
    /// Node `node`'s battery readings carry uniform noise of up to
    /// `amplitude_mwh` in either direction (a flaky ACPI controller).
    BatteryNoise {
        /// Target node.
        node: usize,
        /// Maximum deviation, whole mWh.
        amplitude_mwh: u64,
    },
    /// Node `node`'s sampled power is scaled by `factor` — a
    /// miscalibrated external meter. Only the measurement tap
    /// (`SampleRow::node_power_w`) is biased; ground-truth energy is
    /// untouched, so the outlier filter can catch the lie.
    MeterBias {
        /// Target node.
        node: usize,
        /// Power multiplier, > 0.
        factor: f64,
    },
    /// Each periodic sampling window is skipped with this probability
    /// (an ACPI poll that timed out). Sampling cadence resumes at the
    /// next window.
    SampleSkip {
        /// Skip probability in [0, 1].
        probability: f64,
    },
    /// DVFS transition requests on `node` fail with this probability:
    /// the governor's decision is silently dropped and the node stays
    /// at its current operating point.
    DvfsFail {
        /// Target node.
        node: usize,
        /// Failure probability in [0, 1].
        probability: f64,
    },
    /// DVFS transitions on `node` take `factor` times the ladder's
    /// nominal latency (a slow voltage regulator).
    DvfsLatency {
        /// Target node.
        node: usize,
        /// Latency multiplier, > 0.
        factor: f64,
    },
    /// Node `node`'s network link runs at `bandwidth_factor` of the
    /// nominal link rate (duplex mismatch, a failing cable).
    DegradedLink {
        /// Target node.
        node: usize,
        /// Bandwidth multiplier in (0, 1].
        bandwidth_factor: f64,
    },
}

impl Fault {
    /// The node this fault targets, if it is node-scoped.
    pub(crate) fn node(&self) -> Option<usize> {
        match *self {
            Fault::ComputeSlowdown { node, .. }
            | Fault::BatteryStuck { node, .. }
            | Fault::BatteryNoise { node, .. }
            | Fault::MeterBias { node, .. }
            | Fault::DvfsFail { node, .. }
            | Fault::DvfsLatency { node, .. }
            | Fault::DegradedLink { node, .. } => Some(node),
            Fault::SampleSkip { .. } => None,
        }
    }
}

/// A complete fault-injection plan for one run: a seed for the fault RNG
/// streams plus the list of faults to arm. Attached to the engine
/// configuration; the default (empty) spec injects nothing and keeps the
/// simulation bit-identical to a fault-free build.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the fault RNG (independent of workload jitter seeds).
    pub seed: u64,
    /// Faults to arm.
    pub faults: Vec<Fault>,
}

/// Seed used when a spec string does not name one.
pub(crate) const DEFAULT_FAULT_SEED: u64 = 0x5EED_FA17;

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: DEFAULT_FAULT_SEED,
            faults: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Builder-style: arm one more fault.
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// True when nothing is armed — the engine skips fault bookkeeping
    /// entirely and output is bit-identical to a fault-free run.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Parse the CLI spec grammar: comma-separated entries, each
    /// `kind:args` with colon-separated fields.
    ///
    /// ```text
    /// seed:<u64>                     fault RNG seed (default 0x5EEDFA17)
    /// slow:<node>:<factor>           compute slowdown (straggler)
    /// battery-stuck:<node>:<secs>    battery register freezes after t
    /// battery-noise:<node>:<mwh>     ± uniform noise on battery reads
    /// meter-bias:<node>:<factor>     sampled power scaled by factor
    /// skip-sample:<prob>             drop each sampling window w.p. p
    /// dvfs-fail:<node>:<prob>        transition requests fail w.p. p
    /// dvfs-latency:<node>:<factor>   transition latency scaled by factor
    /// weak-link:<node>:<factor>      link bandwidth scaled to factor
    /// ```
    ///
    /// An empty string parses to the empty spec.
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut out = FaultSpec::default();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let mut fields = entry.split(':');
            let kind = fields.next().unwrap_or("");
            let rest: Vec<&str> = fields.collect();
            match kind {
                "seed" => {
                    out.seed = parse_one(entry, &rest)?
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed in '{entry}'"))?;
                }
                "slow" => {
                    let (node, factor) = parse_node_f64(entry, &rest)?;
                    check_positive(entry, factor)?;
                    out.faults.push(Fault::ComputeSlowdown { node, factor });
                }
                "battery-stuck" => {
                    let (node, after_s) = parse_node_f64(entry, &rest)?;
                    if !(after_s >= 0.0 && after_s.is_finite()) {
                        return Err(format!("'{entry}': time must be >= 0 seconds"));
                    }
                    out.faults.push(Fault::BatteryStuck { node, after_s });
                }
                "battery-noise" => {
                    let (node, raw) = parse_node_field(entry, &rest)?;
                    let amplitude_mwh = raw
                        .parse::<u64>()
                        .map_err(|_| format!("bad mWh amplitude in '{entry}'"))?;
                    out.faults.push(Fault::BatteryNoise {
                        node,
                        amplitude_mwh,
                    });
                }
                "meter-bias" => {
                    let (node, factor) = parse_node_f64(entry, &rest)?;
                    check_positive(entry, factor)?;
                    out.faults.push(Fault::MeterBias { node, factor });
                }
                "skip-sample" => {
                    let probability = parse_one(entry, &rest)?
                        .parse::<f64>()
                        .map_err(|_| format!("bad probability in '{entry}'"))?;
                    check_probability(entry, probability)?;
                    out.faults.push(Fault::SampleSkip { probability });
                }
                "dvfs-fail" => {
                    let (node, probability) = parse_node_f64(entry, &rest)?;
                    check_probability(entry, probability)?;
                    out.faults.push(Fault::DvfsFail { node, probability });
                }
                "dvfs-latency" => {
                    let (node, factor) = parse_node_f64(entry, &rest)?;
                    check_positive(entry, factor)?;
                    out.faults.push(Fault::DvfsLatency { node, factor });
                }
                "weak-link" => {
                    let (node, bandwidth_factor) = parse_node_f64(entry, &rest)?;
                    if !(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0) {
                        return Err(format!("'{entry}': bandwidth factor must be in (0, 1]"));
                    }
                    out.faults.push(Fault::DegradedLink {
                        node,
                        bandwidth_factor,
                    });
                }
                other => {
                    return Err(format!(
                        "unknown fault kind '{other}' (in '{entry}'); see --faults grammar"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// The largest node index any fault targets, if any is node-scoped.
    pub fn max_node(&self) -> Option<usize> {
        self.faults.iter().filter_map(Fault::node).max()
    }
}

fn parse_one<'a>(entry: &str, rest: &[&'a str]) -> Result<&'a str, String> {
    match rest {
        [v] => Ok(v),
        _ => Err(format!("'{entry}': expected one value after the kind")),
    }
}

fn parse_node_field<'a>(entry: &str, rest: &[&'a str]) -> Result<(usize, &'a str), String> {
    match rest {
        [node, value] => {
            let node = node
                .parse::<usize>()
                .map_err(|_| format!("bad node index in '{entry}'"))?;
            Ok((node, value))
        }
        _ => Err(format!("'{entry}': expected <node>:<value>")),
    }
}

fn parse_node_f64(entry: &str, rest: &[&str]) -> Result<(usize, f64), String> {
    let (node, raw) = parse_node_field(entry, rest)?;
    let value = raw
        .parse::<f64>()
        .map_err(|_| format!("bad number in '{entry}'"))?;
    Ok((node, value))
}

fn check_positive(entry: &str, value: f64) -> Result<(), String> {
    if value > 0.0 && value.is_finite() {
        Ok(())
    } else {
        Err(format!("'{entry}': factor must be positive and finite"))
    }
}

fn check_probability(entry: &str, value: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(format!("'{entry}': probability must be in [0, 1]"))
    }
}

/// How many of each fault the engine actually injected during a run,
/// plus measurement errors it degraded instead of panicking on. Always
/// present in the run result; all-zero when no faults were armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct FaultCounts {
    /// Compute segments stretched by a straggler factor.
    pub compute_slowdowns: u64,
    /// DVFS transition requests dropped by an injected failure.
    pub dvfs_failures: u64,
    /// DVFS transitions whose latency was spiked.
    pub dvfs_latency_spikes: u64,
    /// Battery polls that repeated a frozen reading.
    pub battery_stuck_reads: u64,
    /// Battery polls perturbed by injected noise.
    pub battery_noisy_reads: u64,
    /// Measurement-layer errors (e.g. a battery reading that went the
    /// wrong way) degraded to the last good reading instead of panicking.
    pub battery_errors: u64,
    /// Periodic sampling windows skipped outright.
    pub samples_skipped: u64,
    /// Per-node power samples scaled by a meter bias.
    pub meter_biased_samples: u64,
    /// Nodes whose network link was degraded at startup.
    pub degraded_links: u64,
}

impl FaultCounts {
    /// Total injected-fault events (including degraded measurement
    /// errors).
    pub fn total(&self) -> u64 {
        self.compute_slowdowns
            + self.dvfs_failures
            + self.dvfs_latency_spikes
            + self.battery_stuck_reads
            + self.battery_noisy_reads
            + self.battery_errors
            + self.samples_skipped
            + self.meter_biased_samples
            + self.degraded_links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_empty() {
        let s = FaultSpec::default();
        assert!(s.is_empty());
        assert_eq!(s.seed, DEFAULT_FAULT_SEED);
        assert_eq!(s.max_node(), None);
    }

    #[test]
    fn empty_string_parses_to_empty_spec() {
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        assert_eq!(FaultSpec::parse(" , ").unwrap(), FaultSpec::default());
    }

    #[test]
    fn full_grammar_round_trips() {
        let s = FaultSpec::parse(
            "seed:42,slow:2:1.5,battery-stuck:0:10,battery-noise:1:5,\
             meter-bias:1:1.3,skip-sample:0.2,dvfs-fail:2:0.1,\
             dvfs-latency:2:4,weak-link:3:0.25",
        )
        .unwrap();
        assert_eq!(s.seed, 42);
        assert_eq!(s.faults.len(), 8);
        assert!(!s.is_empty());
        assert_eq!(s.max_node(), Some(3));
        assert_eq!(
            s.faults[0],
            Fault::ComputeSlowdown {
                node: 2,
                factor: 1.5
            }
        );
        assert_eq!(
            s.faults[8 - 1],
            Fault::DegradedLink {
                node: 3,
                bandwidth_factor: 0.25
            }
        );
    }

    #[test]
    fn whitespace_is_tolerated() {
        let s = FaultSpec::parse(" slow:0:2.0 , seed:7 ").unwrap();
        assert_eq!(s.seed, 7);
        assert_eq!(s.faults.len(), 1);
    }

    #[test]
    fn bad_entries_are_rejected() {
        for bad in [
            "frobnicate:1:2",
            "slow:1",
            "slow:x:2",
            "slow:1:0",
            "slow:1:-3",
            "skip-sample:1.5",
            "dvfs-fail:0:2",
            "weak-link:0:0",
            "weak-link:0:1.5",
            "battery-noise:0:-1",
            "battery-stuck:0:-5",
            "seed:abc",
            "slow:1:2:3",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn builder_accumulates_faults() {
        let s = FaultSpec {
            seed: 9,
            faults: Vec::new(),
        }
        .with(Fault::SampleSkip { probability: 0.5 });
        assert_eq!(s.seed, 9);
        assert_eq!(s.faults.len(), 1);
        assert_eq!(s.faults[0].node(), None);
    }

    #[test]
    fn counts_total_sums_every_field() {
        let c = FaultCounts {
            compute_slowdowns: 1,
            dvfs_failures: 2,
            dvfs_latency_spikes: 3,
            battery_stuck_reads: 4,
            battery_noisy_reads: 5,
            battery_errors: 6,
            samples_skipped: 7,
            meter_biased_samples: 8,
            degraded_links: 9,
        };
        assert_eq!(c.total(), 45);
        assert_eq!(FaultCounts::default().total(), 0);
    }
}
