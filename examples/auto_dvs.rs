//! Automatic slack-directed DVS: profile a pilot run, let the tuner find
//! the slack-heavy phases, and compare against hand instrumentation —
//! the Adagio/GEOPM idea, twenty years early on the paper's own platform.
//!
//! ```sh
//! cargo run --release --example auto_dvs
//! ```

use pwrperf::{AutoTuner, DvsStrategy, Experiment, Workload};

fn main() {
    let workload = Workload::mg_b8();
    println!("workload: {}\n", workload.label());

    let reference = Experiment::new(workload.clone(), DvsStrategy::StaticMhz(1400)).run();
    println!(
        "static 1400 MHz : {:.1} s, {:.0} J",
        reference.duration_secs(),
        reference.total_energy_j()
    );

    let outcome = AutoTuner.tune(&workload);
    println!(
        "pilot profile selected slack-heavy phases: {:?}",
        outcome.selected_phases
    );
    println!(
        "auto-tuned      : {:.1} s, {:.0} J ({:+.1}% time, {:+.1}% energy)",
        outcome.tuned.duration_secs(),
        outcome.tuned.total_energy_j(),
        (outcome.tuned.duration_secs() / reference.duration_secs() - 1.0) * 100.0,
        (outcome.tuned.total_energy_j() / reference.total_energy_j() - 1.0) * 100.0,
    );

    let hand = Experiment::new(workload, DvsStrategy::DynamicBaseMhz(1400)).run();
    println!(
        "hand-instrumented: {:.1} s, {:.0} J (the paper's approach)",
        hand.duration_secs(),
        hand.total_energy_j()
    );
}
