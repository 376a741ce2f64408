//! The shape every workload shares: time equal-sized rounds until the
//! window is spent, with set-ups spread over the same window and their
//! median kept.

use std::time::Instant;

use crate::heap;
use crate::report::{median, ratio, Counts, Gate, Metrics};

/// How a run was asked to behave.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed window; a round that starts inside it runs to
    /// completion, and at least one round always runs.
    pub seconds: f64,
    /// Interleave traced rounds with the untraced ones.
    pub trace: bool,
    /// Tiny inputs for the self-tests (never used by the benchmark).
    pub smoke: bool,
}

/// One timed round, as its workload measured it.
#[derive(Debug)]
pub struct Measured<T> {
    /// Host seconds of the round's timed section (checks excluded).
    pub wall: f64,
    /// Exact counts of the round's input.
    pub counts: Counts,
    pub data: T,
}

#[derive(Debug)]
pub struct Round<T> {
    pub traced: bool,
    /// Peak live heap during the round, MB.
    pub peak_heap_mb: f64,
    pub measured: Measured<T>,
}

/// A run: its set-up time, what the first set-up built, and the rounds.
pub struct Run<S, T> {
    /// Median seconds of the set-ups that passed their checks.
    pub setup_s: f64,
    /// The first set-up's product, which every round used.
    pub product: S,
    pub rounds: Vec<Round<T>>,
}

/// Set up, then time rounds until `cfg.seconds` have passed.
///
/// `setup` runs `setup_reps` times and each outcome counts in the gate.
/// The first builds what the rounds use. The others are spread evenly
/// over the timed window, between rounds, and their products are dropped
/// untimed; the median set-up therefore samples the same stretch of the
/// host's time as the rounds do, not one burst before them. A failed
/// first set-up ends the run (`None`).
///
/// Untraced runs time round `0, 1, 2, ...`. Traced runs time each round
/// twice on the same input, untraced and traced, alternating which goes
/// first; the two halves' exact counts must agree.
pub fn run<S, T>(
    cfg: &Config,
    gate: &mut Gate,
    setup_reps: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut one: impl FnMut(&mut S, u64, bool, &mut Gate) -> Measured<T>,
) -> Option<Run<S, T>> {
    let start = Instant::now();
    let mut times = Vec::with_capacity(setup_reps);
    let mut timed_setup = |gate: &mut Gate| {
        let t0 = Instant::now();
        let built = setup();
        let secs = t0.elapsed().as_secs_f64();
        if built.is_ok() {
            times.push(secs);
        }
        gate.record(
            built
                .as_ref()
                .map(|_| ())
                .map_err(|e| format!("set-up: {e}")),
        );
        built.ok()
    };
    let mut product = timed_setup(gate)?;
    let reps = setup_reps.max(1);
    let mut done = 1;
    let mut rounds: Vec<Round<T>> = Vec::new();
    for pair in 0u64.. {
        // Set-up `done` is due once `done / reps` of the window is spent.
        while done < reps
            && start.elapsed().as_secs_f64() >= cfg.seconds * done as f64 / reps as f64
        {
            drop(timed_setup(gate));
            done += 1;
        }
        let order: &[bool] = match (cfg.trace, pair % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            heap::reset_peak();
            let measured = one(&mut product, pair, traced, gate);
            rounds.push(Round {
                traced,
                peak_heap_mb: heap::peak_mb(),
                measured,
            });
        }
        if cfg.trace {
            let [a, b] = &rounds[rounds.len() - 2..] else {
                unreachable!("a traced pair pushes two rounds")
            };
            gate.record(
                a.measured
                    .counts
                    .agree_with(&b.measured.counts)
                    .map_err(|e| format!("traced vs untraced round {pair}: {e}")),
            );
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    for _ in done..reps {
        drop(timed_setup(gate));
    }
    Some(Run {
        setup_s: median(&times),
        product,
        rounds,
    })
}

/// Walls of the untraced (`false`) or traced (`true`) rounds.
pub fn walls<T>(rounds: &[Round<T>], traced: bool) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| r.traced == traced)
        .map(|r| r.measured.wall)
        .collect()
}

/// Per-round values of the untraced or traced rounds.
pub fn per_round<T>(
    rounds: &[Round<T>],
    traced: bool,
    f: impl Fn(&Measured<T>) -> f64,
) -> Vec<f64> {
    rounds
        .iter()
        .filter(|r| r.traced == traced)
        .map(|r| f(&r.measured))
        .collect()
}

/// The first traced round (a traced run's counts come from it) or, in an
/// untraced run, the first round.
pub fn first<T>(rounds: &[Round<T>], traced: bool) -> &Round<T> {
    rounds
        .iter()
        .find(|r| r.traced == traced)
        .expect("every run times at least one round of each kind it asks for")
}

/// The median traced round's wall over the median untraced one's, less 1.
pub fn overhead<T>(rounds: &[Round<T>]) -> f64 {
    ratio(median(&walls(rounds, true)), median(&walls(rounds, false))) - 1.0
}

/// Rounds timed, untraced and traced.
pub fn kinds<T>(rounds: &[Round<T>]) -> (usize, usize) {
    let traced = rounds.iter().filter(|r| r.traced).count();
    (rounds.len() - traced, traced)
}

/// The end-to-end metrics: `wall_s`, `jobs_per_s` and `peak_heap_mb` are
/// medians over the untraced rounds.
pub fn end_to_end<T>(
    rounds: &[Round<T>],
    setup_s: f64,
    jobs_per_s: impl Fn(&Measured<T>) -> f64,
) -> Metrics {
    let heap: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.peak_heap_mb)
        .collect();
    Metrics::from([
        ("setup_s", setup_s),
        ("wall_s", median(&walls(rounds, false))),
        ("jobs_per_s", median(&per_round(rounds, false, jobs_per_s))),
        ("peak_heap_mb", median(&heap)),
    ])
}

/// The untraced rounds' walls, for the log.
pub fn render_walls<T>(rounds: &[Round<T>]) -> String {
    let walls: Vec<String> = walls(rounds, false)
        .iter()
        .map(|w| format!("{w:.4}"))
        .collect();
    format!("untraced round walls (s): {}", walls.join(" "))
}

/// Engine events per host second of the untraced rounds (median), for
/// workloads whose round is engine work.
pub fn events_per_s<T>(rounds: &[Round<T>]) -> f64 {
    median(&per_round(rounds, false, |m| {
        m.counts.0.get("events").copied().unwrap_or(0) as f64 / m.wall
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(trace: bool) -> Config {
        Config {
            seed: 1,
            seconds: 0.0,
            trace,
            smoke: true,
        }
    }

    fn round(_: &mut u32, index: u64, _: bool, _: &mut Gate) -> Measured<()> {
        let mut counts = Counts::default();
        counts.set("index", index);
        Measured {
            wall: 1.0,
            counts,
            data: (),
        }
    }

    #[test]
    fn every_set_up_counts_in_the_gate_and_a_failed_one_is_not_timed() {
        let mut gate = Gate::default();
        let mut rep = 0;
        let run = run(
            &cfg(false),
            &mut gate,
            5,
            || {
                rep += 1;
                if rep == 2 {
                    Err("rep 2 broke".to_string())
                } else {
                    Ok(rep)
                }
            },
            round,
        )
        .expect("the first set-up passed");
        assert_eq!(rep, 5);
        assert_eq!(run.product, 1, "rounds use the first set-up");
        assert_eq!((gate.attempted, gate.failed), (5, 1), "one per set-up");
        assert!(gate.failures[0].contains("rep 2 broke"));

        let mut gate = Gate::default();
        assert!(run_failing_first(&mut gate).is_none());
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }

    fn run_failing_first(gate: &mut Gate) -> Option<Run<u32, ()>> {
        run(&cfg(false), gate, 5, || Err("no".to_string()), round)
    }

    #[test]
    fn traced_runs_pair_each_round_on_the_same_input() {
        let mut gate = Gate::default();
        let run = run(&cfg(true), &mut gate, 1, || Ok(0), round).unwrap();
        assert_eq!(kinds(&run.rounds), (1, 1));
        assert!(gate.passed());
    }
}
