//! The promoted engine invariants stay checked in release builds.
//!
//! These used to be `debug_assert!`s: time monotonicity in the
//! time-weighted integrators and the fluid network, and measurement-layer
//! sanity in the battery model. A violation silently corrupted energy
//! accounting in release builds; now it either panics loudly (internal
//! invariants, converted to per-slot errors by `parallel_map`) or
//! surfaces as a typed `MeasurementError` (measurement APIs).

use net_model::{FluidNetwork, NetworkParams};
use power_model::battery::{MeasurementError, SmartBattery};
use pwrperf::{parallel_map, DvsStrategy, Experiment, Workload};
use sim_core::{SimTime, TimeWeighted};

#[test]
#[should_panic(expected = "time went backwards")]
fn time_weighted_rejects_backwards_advance() {
    let mut tw = TimeWeighted::new(SimTime::from_secs(10), 5.0);
    tw.advance(SimTime::from_secs(5));
}

#[test]
#[should_panic(expected = "precedes last change")]
fn time_weighted_rejects_backwards_integral_read() {
    let mut tw = TimeWeighted::new(SimTime::ZERO, 5.0);
    tw.set(SimTime::from_secs(10), 7.0);
    let _ = tw.integral_at(SimTime::from_secs(5));
}

#[test]
#[should_panic(expected = "network time went backwards")]
fn fluid_network_rejects_backwards_advance() {
    let mut net = FluidNetwork::new(NetworkParams::default(), 2);
    net.advance(SimTime::from_secs(10));
    net.advance(SimTime::from_secs(5));
}

#[test]
fn battery_invariants_are_typed_errors_not_panics() {
    let mut b = SmartBattery::new(1000.0);
    assert!(matches!(
        b.draw(-1.0),
        Err(MeasurementError::NegativeDraw { .. })
    ));
    b.set_drawn(36.0).expect("increasing total is fine");
    assert!(matches!(
        b.set_drawn(1.0),
        Err(MeasurementError::BatteryRecharged { .. })
    ));
    assert!(matches!(
        SmartBattery::energy_between(10, 20),
        Err(MeasurementError::ReadingIncreased { .. })
    ));
    // The last consistent state survives every rejected mutation.
    assert_eq!(b.reading_mwh(), 990);
}

#[test]
fn batch_layer_converts_invariant_panics_to_slot_errors() {
    // Healthy experiments must come back Ok and bit-identical to a direct
    // run. (A panicking experiment yielding Err-per-slot is covered by the
    // runner's own tests; here we pin the Ok-slot contract.)
    let mk = || Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1400));
    let direct = mk().run();
    let (slots, _) = parallel_map(&[mk(), mk()], Experiment::run, None);
    assert_eq!(slots.len(), 2);
    for slot in &slots {
        let r = slot.as_ref().expect("healthy experiment must succeed");
        assert_eq!(*r, direct);
    }
}
