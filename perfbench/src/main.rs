//! perfbench — the repository's benchmark: end-to-end metrics per
//! workload, and a per-layer table from a separate traced run.
//!
//! ```sh
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer one with
//! `--trace 1`. A failed correctness check exits with status 1 after
//! printing it; bad arguments exit with status 2.

mod affinity;
mod blame;
mod fat_tree;
mod heap;
mod inputs;
mod paper_grid;
mod report;
mod rounds;
mod sim;
mod sweep_service;

use report::{Outcome, END_TO_END, PER_LAYER};
use rounds::Config;

/// What runs one workload.
type RunWorkload = fn(&Config) -> Outcome;

/// Workload names, each with the function that runs it.
pub const WORKLOADS: &[(&str, RunWorkload)] = &[
    ("paper-grid", paper_grid::run),
    ("fat-tree-1024", fat_tree::run),
    ("blame-256", blame::run),
    ("sweep-service", sweep_service::run),
];

const USAGE: &str = "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
       perfbench figures    (print all_figures output, for the paper-grid gate)
workloads: paper-grid fat-tree-1024 blame-256 sweep-service";

struct Args {
    workload: &'static str,
    run: RunWorkload,
    config: Config,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = inputs::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| n == name)
                        .ok_or(format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be a finite number >= 0".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let &(workload, run) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        run,
        config: Config {
            seed,
            seconds,
            trace,
            smoke: false,
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("figures") {
        pwrperf_bench::figures::all();
        return;
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = (args.run)(&args.config);
    std::process::exit(print_outcome(args.workload, &args.config, outcome));
}

/// Print the notes, sizes, fingerprint and (traced) per-layer table, then
/// the result line. Returns the exit status.
fn print_outcome(workload: &str, cfg: &Config, mut outcome: Outcome) -> i32 {
    for note in &outcome.notes {
        println!("# {note}");
    }
    let sizes: Vec<String> = outcome
        .sizes
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("# sizes {workload}: {}", sizes.join(" "));
    println!(
        "# rounds: {} untraced, {} traced",
        outcome.rounds.0, outcome.rounds.1
    );
    println!(
        "# fingerprint {workload} seed={}: {}",
        cfg.seed,
        outcome.fingerprint.render()
    );
    let (metrics, declared) = if cfg.trace {
        report::zero_unexercised_layers(&mut outcome.layers);
        (&outcome.layers, PER_LAYER)
    } else {
        (&outcome.end_to_end, END_TO_END)
    };
    for &(name, unit) in declared {
        if let Some(v) = metrics.get(name) {
            println!("# {name:<34} {v:>16.6} {unit}");
        }
    }
    for failure in &outcome.gate.failures {
        eprintln!("gate: {failure}");
    }
    if outcome.gate.attempted > 0 {
        println!(
            "# failed_frac: {} of {} operations",
            outcome.gate.failed, outcome.gate.attempted
        );
    }
    match report::result_json(&outcome.gate, metrics, declared) {
        Ok(line) if outcome.gate.attempted > 0 => {
            println!("{line}");
            i32::from(!outcome.gate.passed())
        }
        Ok(_) => {
            eprintln!("error: the run attempted no operations");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares, in order, for one list key.
    fn declared(key: &str) -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn declared_metrics_and_workloads_match_benchmark_json() {
        let names =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn bad_arguments_are_refused() {
        let parse = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "blame-256", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "blame-256", "--seconds", "-1"]).is_err());
        let ok = parse(&["--workload", "blame-256", "--seed", "9", "--trace", "1"]).unwrap();
        assert_eq!(
            (ok.workload, ok.config.seed, ok.config.trace),
            ("blame-256", 9, true)
        );
    }

    /// Every workload, traced and untraced, emits exactly the declared
    /// metric set from its own measurements, passes its gate, and repeats
    /// its exact counts for a seed; the held-out seed gives the same sizes.
    #[test]
    fn each_workload_emits_exactly_its_declared_metrics() {
        for &(name, run) in WORKLOADS {
            let mut sizes = None;
            let mut fingerprint = None;
            for (seed, trace) in [
                (inputs::DEFAULT_SEED, false),
                (inputs::DEFAULT_SEED, true),
                (inputs::HELD_OUT_SEED, false),
            ] {
                let cfg = Config {
                    seed,
                    seconds: 0.0,
                    trace,
                    smoke: true,
                };
                let mut out = run(&cfg);
                assert!(out.gate.passed(), "{name}: {:?}", out.gate.failures);
                let (metrics, declared) = if trace {
                    report::zero_unexercised_layers(&mut out.layers);
                    (&out.layers, PER_LAYER)
                } else {
                    (&out.end_to_end, END_TO_END)
                };
                report::result_json(&out.gate, metrics, declared)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(*sizes.get_or_insert(out.sizes.clone()), out.sizes, "{name}");
                if seed == inputs::DEFAULT_SEED {
                    let fp = fingerprint.get_or_insert(out.fingerprint.clone());
                    fp.agree_with(&out.fingerprint)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                }
            }
        }
    }
}
