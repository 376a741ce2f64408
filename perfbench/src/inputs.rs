//! Seed → inputs. Every input a workload runs is a pure function of
//! `(seed, round)`: equal seeds give equal inputs, and every seed gives
//! inputs of the same size (jobs, ranks, cells).

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used while the benchmark's sizes and windows were tuned;
/// the self-tests check it yields the same workload sizes as the default.
#[cfg(test)]
pub const HELD_OUT_SEED: u64 = 7_919;

/// SplitMix64: a well-mixed 64-bit value from `(seed, stream, index)`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A straggler for round `round`: a rank below `ranks` and a compute
/// slowdown factor in `[1.10, 1.50)`, both drawn from the seed.
pub fn straggler(seed: u64, stream: u64, round: u64, ranks: usize) -> (usize, f64) {
    let r = mix(seed, stream, round);
    let rank = (r % ranks as u64) as usize;
    let factor = 1.10 + ((r >> 32) % 400) as f64 / 1000.0;
    (rank, factor)
}

/// A fault-spec string slowing one node: `seed:<s>,slow:<rank>:<factor>`.
/// The `seed:` entry makes every round's fingerprint distinct even when
/// two rounds draw the same straggler.
pub fn straggler_spec(seed: u64, stream: u64, round: u64, ranks: usize) -> String {
    let (rank, factor) = straggler(seed, stream, round, ranks);
    let fault_seed = mix(seed, stream ^ 0xFA17, round) >> 16;
    format!("seed:{fault_seed},slow:{rank}:{factor:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        for round in 0..50 {
            assert_eq!(
                straggler_spec(DEFAULT_SEED, 3, round, 1024),
                straggler_spec(DEFAULT_SEED, 3, round, 1024)
            );
        }
    }

    #[test]
    fn seeds_and_rounds_give_distinct_inputs_in_range() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for round in 0..200 {
                let (rank, factor) = straggler(seed, 3, round, 256);
                assert!(rank < 256);
                assert!((1.10..1.50).contains(&factor));
                assert!(seen.insert(straggler_spec(seed, 3, round, 256)));
            }
        }
    }

    #[test]
    fn specs_parse_as_fault_specs() {
        let spec = straggler_spec(HELD_OUT_SEED, 1, 7, 8);
        let parsed = pwrperf::FaultSpec::parse(&spec).expect("valid fault spec");
        assert_eq!(parsed.faults.len(), 1);
    }
}
