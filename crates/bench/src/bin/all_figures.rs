//! Regenerate every table and figure in the paper's evaluation, in order.
//!
//! With `--store <dir>`, every run goes through the content-addressed
//! result cache: the first (cold) regeneration fills it, subsequent
//! (warm) ones replay the identical results without executing the
//! engine. The store's traffic (`… hits, 0 misses, …` when warm) goes to
//! stderr at exit, so stdout is byte-identical with and without a store.
//!
//! `--topology <spec>` applies to every run (the same spec `pwrperf run`
//! takes).
fn main() {
    const USAGE: &str = "usage: all_figures [--store <dir>] [--topology <spec>]";
    let mut args = std::env::args().skip(1);
    let mut store_dir = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--store" => {
                let Some(dir) = args.next() else {
                    eprintln!("error: --store needs a directory\n{USAGE}");
                    std::process::exit(2);
                };
                if let Err(e) = pwrperf_bench::figures::set_result_store(&dir) {
                    eprintln!("error: cannot open store {dir}: {e}");
                    std::process::exit(1);
                }
                store_dir = Some(dir);
            }
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
    if let (Some(dir), Some(stats)) = (store_dir, pwrperf_bench::figures::result_store_stats()) {
        eprintln!("store {dir}: {stats}");
    }
}
