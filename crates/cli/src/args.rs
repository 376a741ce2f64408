//! Argument parsing for the `pwrperf` command (hand-rolled: the tool has
//! five subcommands and a few dozen flags; a parser dependency would be
//! heavier than the parser). Two of them drive experiments: `run` for one
//! run under one strategy, `sweep` for the frequency ladder.

use pwrperf::{CapPolicy, DvsStrategy, FaultSpec, SweepSpec, Topology, Workload};

/// A parsed invocation.
#[derive(Debug)]
pub(crate) enum Command {
    /// `pwrperf run -w <workload> (-s <strategy> | --power-cap <spec>)
    /// [--blocking-waits <ms>] [--metrics] [--causal] [--faults <spec>]
    /// [--topology <spec>] [-o <dir>]`
    Run {
        /// Workload to execute.
        workload: Workload,
        /// DVS strategy.
        strategy: DvsStrategy,
        /// Poll-then-block window in ms (`None` = busy-poll).
        blocking_ms: Option<u64>,
        /// Collect and print PowerScope metrics.
        metrics: bool,
        /// Record the causal log and print the attribution summary.
        causal: bool,
        /// Deterministic fault injection (empty = none).
        faults: FaultSpec,
        /// Interconnect shape (`flat` or `fat-tree[:radix=R,oversub=S]`).
        topology: Topology,
        /// Directory for the run's artifacts (`None` = stdout only).
        out_dir: Option<String>,
    },
    /// `pwrperf sweep -w <workload> [--dynamic] [-j <n>] [--store <dir>]
    /// [--dry-run] [--faults <spec>] [--power-cap <spec>]
    /// [--topology <spec>] [--delta <d>]`
    Sweep {
        /// Workload to sweep over the ladder.
        workload: Workload,
        /// Sweep dynamic bases instead of static pins.
        dynamic: bool,
        /// Worker threads for the batch runner (`None` = auto-detect).
        threads: Option<usize>,
        /// Result-cache directory (`None` = uncached).
        store: Option<String>,
        /// Print the cache hit/miss partition without running anything.
        dry_run: bool,
        /// Deterministic fault injection (empty = none).
        faults: FaultSpec,
        /// Compare power-cap policies against the static ladder
        /// (`None` = plain crescendo sweep; policy `None` = both).
        power_cap: Option<(u32, Option<CapPolicy>)>,
        /// Interconnect shape (`flat` or `fat-tree[:radix=R,oversub=S]`).
        topology: Topology,
        /// Weighted-ED²P weight factor the best-point line ranks by.
        delta: f64,
    },
    /// `pwrperf serve --store <dir> (--socket <path> | --tcp <addr>)
    /// [-j <n>] [--max-store-bytes <n>]`
    Serve {
        /// Store directory the daemon owns.
        store: String,
        /// Unix-domain socket path to listen on.
        socket: Option<String>,
        /// TCP address to listen on (e.g. `127.0.0.1:0`).
        tcp: Option<String>,
        /// Worker threads for miss execution (`None` = auto-detect).
        threads: Option<usize>,
        /// Compaction byte budget (`None` = keep every valid record).
        max_store_bytes: Option<u64>,
    },
    /// `pwrperf client (--socket <path> | --tcp <addr>)
    /// (sweep | query | status | shutdown) [grid flags]`
    Client {
        /// Unix-domain socket path of the daemon.
        socket: Option<String>,
        /// TCP address of the daemon.
        tcp: Option<String>,
        /// What to ask.
        action: ClientAction,
    },
    /// `pwrperf list`
    List,
    /// `pwrperf help` (or parse failure, with a message).
    Help(Option<String>),
}

/// What a `pwrperf client` invocation asks the daemon.
#[derive(Debug)]
pub(crate) enum ClientAction {
    /// Run (or replay) a sweep grid.
    Sweep(SweepSpec),
    /// Aggregate stored results (never executes).
    Query(SweepSpec),
    /// Print the daemon's `service.*` counters.
    Status,
    /// Ask the daemon to exit.
    Shutdown,
}

/// Parse a workload name (delegates to the core name registry, which the
/// sweep-service wire protocol shares).
pub(crate) fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse_name(name)
}

/// Parse a strategy name (delegates to the core name registry).
pub(crate) fn parse_strategy(name: &str) -> Result<DvsStrategy, String> {
    DvsStrategy::parse_name(name)
}

fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| "--threads needs a positive integer".to_string())
}

fn parse_blocking(value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| "bad --blocking-waits value".to_string())
}

fn parse_delta(value: &str) -> Result<f64, String> {
    let delta: f64 = value.parse().map_err(|_| "bad --delta value".to_string())?;
    if (-1.0..=1.0).contains(&delta) {
        Ok(delta)
    } else {
        Err("--delta must be in [-1, 1]".to_string())
    }
}

fn parse_faults(value: &str) -> Result<FaultSpec, String> {
    FaultSpec::parse(value).map_err(|e| format!("bad --faults spec: {e}"))
}

fn parse_topology(value: &str) -> Result<Topology, String> {
    Topology::parse(value).map_err(|e| format!("bad --topology spec: {e}"))
}

/// Parse a `--power-cap` value: `<watts>[,policy=uniform|redistribute]`.
/// The policy is left unresolved when omitted so each subcommand can pick
/// its own default (run: redistribute; sweep: compare both).
pub(crate) fn parse_power_cap(value: &str) -> Result<(u32, Option<CapPolicy>), String> {
    let (watts, policy) = match value.split_once(',') {
        None => (value, None),
        Some((watts, option)) => {
            let policy = option.strip_prefix("policy=").ok_or_else(|| {
                format!("bad --power-cap option '{option}' (expected policy=uniform|redistribute)")
            })?;
            let policy = match policy {
                "uniform" => CapPolicy::Uniform,
                "redistribute" => CapPolicy::Redistribute,
                other => {
                    return Err(format!(
                        "unknown cap policy '{other}' (expected uniform or redistribute)"
                    ))
                }
            };
            (watts, Some(policy))
        }
    };
    let watts = watts
        .parse::<u32>()
        .ok()
        .filter(|&w| w >= 1)
        .ok_or_else(|| "--power-cap needs a positive watt budget".to_string())?;
    Ok((watts, policy))
}

fn take_value<'a>(args: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// The service commands need exactly one endpoint.
fn check_endpoint(socket: &Option<String>, tcp: &Option<String>) -> Result<(), String> {
    match (socket, tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".to_string()),
        (None, None) => Err("need --socket <path> or --tcp <addr>".to_string()),
        _ => Ok(()),
    }
}

/// Parse the full argument vector (without the program name).
pub(crate) fn parse(args: &[&str]) -> Command {
    match parse_inner(args) {
        Ok(cmd) => cmd,
        Err(msg) => Command::Help(Some(msg)),
    }
}

fn parse_inner(args: &[&str]) -> Result<Command, String> {
    let mut it = args.iter().copied();
    let sub = it.next().unwrap_or("help");
    match sub {
        "run" => {
            let mut workload = None;
            let mut strategy = None;
            let mut power_cap = None;
            let mut blocking_ms = None;
            let mut metrics = false;
            let mut causal = false;
            let mut faults = FaultSpec::default();
            let mut topology = Topology::Flat;
            let mut out_dir = None;
            while let Some(flag) = it.next() {
                match flag {
                    "-w" | "--workload" => {
                        workload = Some(parse_workload(take_value(&mut it, flag)?)?)
                    }
                    "-s" | "--strategy" => {
                        strategy = Some(parse_strategy(take_value(&mut it, flag)?)?)
                    }
                    "--power-cap" => power_cap = Some(parse_power_cap(take_value(&mut it, flag)?)?),
                    "--blocking-waits" => {
                        blocking_ms = Some(parse_blocking(take_value(&mut it, flag)?)?)
                    }
                    "--metrics" => metrics = true,
                    "--causal" => causal = true,
                    "--faults" => faults = parse_faults(take_value(&mut it, flag)?)?,
                    "--topology" => topology = parse_topology(take_value(&mut it, flag)?)?,
                    "-o" | "--out" => out_dir = Some(take_value(&mut it, flag)?.to_string()),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            let strategy = match (strategy, power_cap) {
                (Some(_), Some(_)) => {
                    return Err("--power-cap is a strategy; drop --strategy".to_string())
                }
                (Some(strategy), None) => strategy,
                (None, Some((watts, policy))) => DvsStrategy::PowerCap {
                    watts,
                    policy: policy.unwrap_or(CapPolicy::Redistribute),
                },
                (None, None) => return Err("run needs --strategy or --power-cap".to_string()),
            };
            Ok(Command::Run {
                workload: workload.ok_or("run needs --workload")?,
                strategy,
                blocking_ms,
                metrics,
                causal,
                faults,
                topology,
                out_dir,
            })
        }
        "sweep" => {
            let mut workload = None;
            let mut dynamic = false;
            let mut threads = None;
            let mut store = None;
            let mut dry_run = false;
            let mut faults = FaultSpec::default();
            let mut power_cap = None;
            let mut topology = Topology::Flat;
            let mut delta = None;
            while let Some(flag) = it.next() {
                match flag {
                    "-w" | "--workload" => {
                        workload = Some(parse_workload(take_value(&mut it, flag)?)?)
                    }
                    "--dynamic" => dynamic = true,
                    "-j" | "--threads" => {
                        threads = Some(parse_threads(take_value(&mut it, flag)?)?)
                    }
                    "--store" => store = Some(take_value(&mut it, flag)?.to_string()),
                    "--dry-run" => dry_run = true,
                    "--faults" => faults = parse_faults(take_value(&mut it, flag)?)?,
                    "--power-cap" => power_cap = Some(parse_power_cap(take_value(&mut it, flag)?)?),
                    "--topology" => topology = parse_topology(take_value(&mut it, flag)?)?,
                    "--delta" => delta = Some(parse_delta(take_value(&mut it, flag)?)?),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            if dry_run && store.is_none() {
                return Err("--dry-run needs --store <dir> to plan against".to_string());
            }
            if power_cap.is_some() {
                if dynamic {
                    return Err(
                        "--power-cap compares cap policies against the static ladder; \
                         drop --dynamic"
                            .to_string(),
                    );
                }
                if delta.is_some() {
                    return Err(
                        "--power-cap ranks by wED2P at the HPC delta; drop --delta".to_string()
                    );
                }
            }
            Ok(Command::Sweep {
                workload: workload.ok_or("sweep needs --workload")?,
                dynamic,
                threads,
                store,
                dry_run,
                faults,
                power_cap,
                topology,
                delta: delta.unwrap_or(edp_metrics::DELTA_HPC),
            })
        }
        "serve" => {
            let mut store = None;
            let mut socket = None;
            let mut tcp = None;
            let mut threads = None;
            let mut max_store_bytes = None;
            while let Some(flag) = it.next() {
                match flag {
                    "--store" => store = Some(take_value(&mut it, flag)?.to_string()),
                    "--socket" => socket = Some(take_value(&mut it, flag)?.to_string()),
                    "--tcp" => tcp = Some(take_value(&mut it, flag)?.to_string()),
                    "-j" | "--threads" => {
                        threads = Some(parse_threads(take_value(&mut it, flag)?)?)
                    }
                    "--max-store-bytes" => {
                        max_store_bytes = Some(
                            take_value(&mut it, flag)?
                                .parse::<u64>()
                                .map_err(|_| "--max-store-bytes needs a byte count".to_string())?,
                        )
                    }
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            check_endpoint(&socket, &tcp)?;
            Ok(Command::Serve {
                store: store.ok_or("serve needs --store <dir>")?,
                socket,
                tcp,
                threads,
                max_store_bytes,
            })
        }
        "client" => {
            let action = it
                .next()
                .ok_or("client needs an action: sweep | query | status | shutdown")?;
            let mut socket = None;
            let mut tcp = None;
            let mut spec = SweepSpec::default();
            while let Some(flag) = it.next() {
                match flag {
                    "--socket" => socket = Some(take_value(&mut it, flag)?.to_string()),
                    "--tcp" => tcp = Some(take_value(&mut it, flag)?.to_string()),
                    "-w" | "--workload" => {
                        let name = take_value(&mut it, flag)?;
                        parse_workload(name)?; // validate early, ship the name
                        spec.workloads.push(name.to_string());
                    }
                    "-s" | "--strategy" => {
                        let name = take_value(&mut it, flag)?;
                        parse_strategy(name)?;
                        spec.strategies.push(name.to_string());
                    }
                    "--delta" => spec.deltas.push(parse_delta(take_value(&mut it, flag)?)?),
                    "--faults" => {
                        let value = take_value(&mut it, flag)?;
                        parse_faults(value)?;
                        spec.fault_specs.push(value.to_string());
                    }
                    "--topology" => {
                        let value = take_value(&mut it, flag)?;
                        parse_topology(value)?;
                        spec.topology = value.to_string();
                    }
                    "--causal" => spec.causal = true,
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            check_endpoint(&socket, &tcp)?;
            let action = match action {
                "sweep" | "query" => {
                    if spec.workloads.is_empty() || spec.strategies.is_empty() {
                        return Err(format!(
                            "client {action} needs at least one --workload and one --strategy"
                        ));
                    }
                    if action == "sweep" {
                        ClientAction::Sweep(spec)
                    } else {
                        ClientAction::Query(spec)
                    }
                }
                "status" => ClientAction::Status,
                "shutdown" => ClientAction::Shutdown,
                other => return Err(format!("unknown client action '{other}'")),
            };
            Ok(Command::Client {
                socket,
                tcp,
                action,
            })
        }
        "list" => Ok(Command::List),
        "help" | "-h" | "--help" => Ok(Command::Help(None)),
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_run() {
        let cmd = parse(&["run", "-w", "ft-b8", "-s", "static-800"]);
        match cmd {
            Command::Run {
                workload,
                strategy,
                blocking_ms,
                ..
            } => {
                assert_eq!(workload.label(), Workload::ft_b8().label());
                assert_eq!(strategy, DvsStrategy::StaticMhz(800));
                assert_eq!(blocking_ms, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_blocking_waits() {
        let cmd = parse(&[
            "run",
            "-w",
            "swim",
            "-s",
            "cpuspeed",
            "--blocking-waits",
            "50",
        ]);
        match cmd {
            Command::Run { blocking_ms, .. } => assert_eq!(blocking_ms, Some(50)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_sweep_dynamic_and_delta() {
        assert!(matches!(
            parse(&["sweep", "-w", "transpose", "--dynamic"]),
            Command::Sweep { dynamic: true, .. }
        ));
        match parse(&["sweep", "-w", "mgrid", "--delta", "-0.5"]) {
            Command::Sweep { delta, .. } => assert!((delta + 0.5).abs() < 1e-12),
            other => panic!("{other:?}"),
        }
        // The cap table ranks by wED2P itself; a second delta is an error.
        assert!(matches!(
            parse(&[
                "sweep",
                "-w",
                "ft-test4",
                "--power-cap",
                "80",
                "--delta",
                "0.2"
            ]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_thread_counts() {
        match parse(&["sweep", "-w", "swim", "-j", "4"]) {
            Command::Sweep { threads, .. } => assert_eq!(threads, Some(4)),
            other => panic!("{other:?}"),
        }
        match parse(&["sweep", "-w", "swim", "--threads", "2"]) {
            Command::Sweep { threads, .. } => assert_eq!(threads, Some(2)),
            other => panic!("{other:?}"),
        }
        match parse(&["sweep", "-w", "swim"]) {
            Command::Sweep { threads, .. } => assert_eq!(threads, None),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&["sweep", "-w", "swim", "-j", "0"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["sweep", "-w", "swim", "-j", "many"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn sweep_defaults_to_hpc_delta() {
        match parse(&["sweep", "-w", "swim"]) {
            Command::Sweep { delta, .. } => assert_eq!(delta, edp_metrics::DELTA_HPC),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn all_listed_workloads_parse() {
        for name in Workload::names() {
            assert!(parse_workload(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn strategy_parsing_covers_all_forms() {
        assert_eq!(
            parse_strategy("static-600").unwrap(),
            DvsStrategy::StaticMhz(600)
        );
        assert_eq!(
            parse_strategy("dynamic-1400").unwrap(),
            DvsStrategy::DynamicBaseMhz(1400)
        );
        assert_eq!(parse_strategy("cpuspeed").unwrap(), DvsStrategy::Cpuspeed);
        assert_eq!(parse_strategy("ondemand").unwrap(), DvsStrategy::OnDemand);
        assert_eq!(
            parse_strategy("conservative").unwrap(),
            DvsStrategy::Conservative
        );
        assert!(parse_strategy("warp-speed").is_err());
    }

    #[test]
    fn errors_become_help_with_message() {
        assert!(matches!(
            parse(&["run", "-w", "nope"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(parse(&["run"]), Command::Help(Some(_))));
        assert!(matches!(parse(&["frobnicate"]), Command::Help(Some(_))));
        assert!(matches!(
            parse(&["sweep", "-w", "swim", "--delta", "3"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_run_out_dir() {
        match parse(&["run", "-w", "swim", "-s", "static-600", "-o", "/tmp/x"]) {
            Command::Run {
                out_dir, strategy, ..
            } => {
                assert_eq!(out_dir.as_deref(), Some("/tmp/x"));
                assert_eq!(strategy, DvsStrategy::StaticMhz(600));
            }
            other => panic!("{other:?}"),
        }
        // Without -o the run writes nothing.
        match parse(&["run", "-w", "swim", "-s", "static-600"]) {
            Command::Run { out_dir, .. } => assert_eq!(out_dir, None),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&["run", "-w", "swim", "-s", "static-600", "-o"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_run_observability_flags() {
        match parse(&[
            "run",
            "-w",
            "ft-scale-256",
            "-s",
            "static-1400",
            "--metrics",
            "--causal",
            "--blocking-waits",
            "5",
            "--out",
            "blame",
            "--topology",
            "fat-tree:radix=16,oversub=2",
        ]) {
            Command::Run {
                metrics,
                causal,
                blocking_ms,
                out_dir,
                topology,
                ..
            } => {
                assert!(metrics && causal);
                assert_eq!(blocking_ms, Some(5));
                assert_eq!(out_dir.as_deref(), Some("blame"));
                assert!(matches!(topology, Topology::FatTree { radix: 16, .. }));
            }
            other => panic!("{other:?}"),
        }
        match parse(&["run", "-w", "swim", "-s", "static-800"]) {
            Command::Run {
                metrics, causal, ..
            } => assert!(!metrics && !causal),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn removed_commands_and_flags_are_rejected() {
        // `run -o` and `sweep --delta` replaced these subcommands.
        for sub in ["trace", "stats", "export", "analyze", "best"] {
            match parse(&[sub, "-w", "ft-test4", "-s", "static-800"]) {
                Command::Help(Some(msg)) => assert!(msg.contains("unknown subcommand"), "{msg}"),
                other => panic!("{sub}: {other:?}"),
            }
        }
        let run = ["run", "-w", "ft-test4", "-s", "static-800"];
        for extra in [&["--trace-capacity", "64"][..], &["--perfetto", "f.json"]] {
            let argv: Vec<&str> = run.iter().chain(extra).copied().collect();
            assert!(matches!(parse(&argv), Command::Help(Some(_))), "{argv:?}");
        }
        assert!(matches!(
            parse(&["sweep", "-w", "ft-test4", "--no-cache"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_faults_spec() {
        use pwrperf::Fault;
        match parse(&[
            "run",
            "-w",
            "swim",
            "-s",
            "static-800",
            "--faults",
            "seed:9,slow:1:1.5,skip-sample:0.1",
        ]) {
            Command::Run { faults, .. } => {
                assert_eq!(faults.seed, 9);
                assert_eq!(faults.faults.len(), 2);
                assert!(matches!(
                    faults.faults[0],
                    Fault::ComputeSlowdown { node: 1, .. }
                ));
            }
            other => panic!("{other:?}"),
        }
        // Default: empty spec (no fault runtime armed).
        match parse(&["run", "-w", "swim", "-s", "static-800"]) {
            Command::Run { faults, .. } => assert!(faults.is_empty()),
            other => panic!("{other:?}"),
        }
        // Sweep accepts the flag too.
        match parse(&["sweep", "-w", "ft-test4", "--faults", "dvfs-fail:0:1.0"]) {
            Command::Sweep { faults, .. } => assert_eq!(faults.faults.len(), 1),
            other => panic!("{other:?}"),
        }
        // Bad specs surface as help with a message.
        assert!(matches!(
            parse(&[
                "run",
                "-w",
                "swim",
                "-s",
                "static-800",
                "--faults",
                "bogus:1"
            ]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_sweep_store_flags() {
        match parse(&[
            "sweep",
            "-w",
            "ft-test4",
            "--store",
            "/tmp/cache",
            "--dry-run",
        ]) {
            Command::Sweep { store, dry_run, .. } => {
                assert_eq!(store.as_deref(), Some("/tmp/cache"));
                assert!(dry_run);
            }
            other => panic!("{other:?}"),
        }
        // Without --store a sweep is uncached.
        match parse(&["sweep", "-w", "ft-test4"]) {
            Command::Sweep { store, dry_run, .. } => {
                assert_eq!(store, None);
                assert!(!dry_run);
            }
            other => panic!("{other:?}"),
        }
        // --dry-run without a store has nothing to plan against.
        assert!(matches!(
            parse(&["sweep", "-w", "ft-test4", "--dry-run"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_scale_workloads() {
        match parse_workload("ft-scale-4096").unwrap() {
            Workload::FtScale { ranks } => assert_eq!(ranks, 4096),
            other => panic!("{other:?}"),
        }
        assert!(parse_workload("ft-scale-100").is_err(), "non-pow2 rejected");
        assert!(parse_workload("ft-scale-0").is_err());
        assert!(parse_workload("ft-scale-lots").is_err());
    }

    #[test]
    fn parses_topology() {
        match parse(&[
            "run",
            "-w",
            "ft-scale-256",
            "-s",
            "static-1400",
            "--topology",
            "fat-tree:radix=16,oversub=2",
        ]) {
            Command::Run { topology, .. } => {
                assert_eq!(
                    topology,
                    Topology::FatTree {
                        radix: 16,
                        oversub: 2.0
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        // Default: the flat switch.
        match parse(&["run", "-w", "swim", "-s", "static-800"]) {
            Command::Run { topology, .. } => assert_eq!(topology, Topology::Flat),
            other => panic!("{other:?}"),
        }
        // Next to --metrics (solver domain counters show there).
        assert!(matches!(
            parse(&[
                "run",
                "-w",
                "ft-test4",
                "-s",
                "static-800",
                "--metrics",
                "--topology",
                "fat-tree",
            ]),
            Command::Run {
                metrics: true,
                topology: Topology::FatTree { .. },
                ..
            }
        ));
        // Bad specs surface as help with a message.
        assert!(matches!(
            parse(&[
                "run",
                "-w",
                "swim",
                "-s",
                "static-800",
                "--topology",
                "torus"
            ]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_run_causal_flag() {
        match parse(&["run", "-w", "ft-test4", "-s", "static-800", "--causal"]) {
            Command::Run { causal, .. } => assert!(causal),
            other => panic!("{other:?}"),
        }
        match parse(&["run", "-w", "ft-test4", "-s", "static-800"]) {
            Command::Run { causal, .. } => assert!(!causal),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_power_cap() {
        // Bare watts on run: redistribute is the default policy.
        match parse(&["run", "-w", "ft-test4", "--power-cap", "120"]) {
            Command::Run { strategy, .. } => assert_eq!(
                strategy,
                DvsStrategy::PowerCap {
                    watts: 120,
                    policy: CapPolicy::Redistribute
                }
            ),
            other => panic!("{other:?}"),
        }
        match parse(&["run", "-w", "ft-test4", "--power-cap", "96,policy=uniform"]) {
            Command::Run { strategy, .. } => assert_eq!(
                strategy,
                DvsStrategy::PowerCap {
                    watts: 96,
                    policy: CapPolicy::Uniform
                }
            ),
            other => panic!("{other:?}"),
        }
        // Sweep keeps the policy optional (None = compare both).
        match parse(&["sweep", "-w", "ft-test4", "--power-cap", "120"]) {
            Command::Sweep { power_cap, .. } => assert_eq!(power_cap, Some((120, None))),
            other => panic!("{other:?}"),
        }
        match parse(&[
            "sweep",
            "-w",
            "ft-test4",
            "--power-cap",
            "120,policy=redistribute",
        ]) {
            Command::Sweep { power_cap, .. } => {
                assert_eq!(power_cap, Some((120, Some(CapPolicy::Redistribute))))
            }
            other => panic!("{other:?}"),
        }
        // Conflicts and malformed specs surface as help with a message.
        assert!(matches!(
            parse(&[
                "run",
                "-w",
                "ft-test4",
                "-s",
                "static-800",
                "--power-cap",
                "120"
            ]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["sweep", "-w", "ft-test4", "--dynamic", "--power-cap", "120"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["run", "-w", "ft-test4", "--power-cap", "0"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["run", "-w", "ft-test4", "--power-cap", "120,policy=fair"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["run", "-w", "ft-test4", "--power-cap", "120,uniform"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn parses_sweep_topology() {
        // Regression: sweep used to silently drop the flag, so fat-tree
        // sweeps could not be driven from the CLI at all.
        match parse(&[
            "sweep",
            "-w",
            "ft-test4",
            "--topology",
            "fat-tree:radix=4,oversub=2",
        ]) {
            Command::Sweep { topology, .. } => {
                assert_eq!(
                    topology,
                    Topology::FatTree {
                        radix: 4,
                        oversub: 2.0
                    }
                );
            }
            other => panic!("{other:?}"),
        }
        match parse(&["sweep", "-w", "ft-test4"]) {
            Command::Sweep { topology, .. } => assert_eq!(topology, Topology::Flat),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_serve_and_client() {
        match parse(&[
            "serve",
            "--store",
            "/tmp/cache",
            "--socket",
            "/tmp/pwrperfd.sock",
            "-j",
            "4",
            "--max-store-bytes",
            "1048576",
        ]) {
            Command::Serve {
                store,
                socket,
                tcp,
                threads,
                max_store_bytes,
            } => {
                assert_eq!(store, "/tmp/cache");
                assert_eq!(socket.as_deref(), Some("/tmp/pwrperfd.sock"));
                assert_eq!(tcp, None);
                assert_eq!(threads, Some(4));
                assert_eq!(max_store_bytes, Some(1_048_576));
            }
            other => panic!("{other:?}"),
        }
        match parse(&[
            "client",
            "sweep",
            "--tcp",
            "127.0.0.1:7777",
            "-w",
            "ft-test4",
            "-w",
            "mem-micro",
            "-s",
            "static-800",
            "-s",
            "cap-80-uniform",
            "--delta",
            "0.2",
            "--faults",
            "slow:0:2.0",
        ]) {
            Command::Client {
                tcp,
                action: ClientAction::Sweep(spec),
                ..
            } => {
                assert_eq!(tcp.as_deref(), Some("127.0.0.1:7777"));
                assert_eq!(spec.workloads, vec!["ft-test4", "mem-micro"]);
                assert_eq!(spec.strategies, vec!["static-800", "cap-80-uniform"]);
                assert_eq!(spec.deltas, vec![0.2]);
                assert_eq!(spec.fault_specs, vec!["slow:0:2.0"]);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&["client", "status", "--socket", "/tmp/d.sock"]),
            Command::Client {
                action: ClientAction::Status,
                ..
            }
        ));
        assert!(matches!(
            parse(&["client", "shutdown", "--tcp", "127.0.0.1:7777"]),
            Command::Client {
                action: ClientAction::Shutdown,
                ..
            }
        ));
        // Endpoint discipline and name validation happen at parse time.
        assert!(matches!(
            parse(&["serve", "--store", "/tmp/c"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["serve", "--store", "/tmp/c", "--socket", "/a", "--tcp", "b:1"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["client", "sweep", "--socket", "/a", "-w", "warp", "-s", "cpuspeed"]),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&["client", "sweep", "--socket", "/a"]),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn bare_invocation_is_help() {
        assert!(matches!(parse(&[]), Command::Help(None)));
        assert!(matches!(parse(&["--help"]), Command::Help(None)));
    }
}
