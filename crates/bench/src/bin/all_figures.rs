//! Regenerate every table and figure in the paper's evaluation, in order.
//!
//! With `--store <dir>`, ladder crescendos are served through the
//! content-addressed result cache: the first (cold) regeneration fills
//! it, subsequent (warm) ones replay the identical results without
//! executing the engine — `scripts/bench.sh` times both modes.
//!
//! `--topology <spec>` applies to every run (the same spec `pwrperf run`
//! takes).
fn main() {
    const USAGE: &str = "usage: all_figures [--store <dir>] [--topology <spec>]";
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--store" => match args.next() {
                Some(dir) => pwrperf_bench::figures::set_result_store(dir),
                None => {
                    eprintln!("error: --store needs a directory\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--topology" => {
                let spec = args.next().unwrap_or_default();
                match pwrperf::Topology::parse(&spec) {
                    Ok(topology) => pwrperf_bench::figures::set_topology(topology),
                    Err(e) => {
                        eprintln!("error: bad --topology spec: {e}\n{USAGE}");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("error: unknown flag '{other}' ({USAGE})");
                std::process::exit(2);
            }
        }
    }
    pwrperf_bench::figures::all();
}
