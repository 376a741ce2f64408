//! `blame-256`: `ft-scale-256` on the flat single switch with causal
//! recording and metrics on, then the blame analysis and every export a
//! user asks for — attribution, the analyze table, Perfetto JSON and
//! metrics NDJSON. It exercises the exact flat max-min solver at scale
//! and the `obs` recorders and `scope` exports, which every other
//! workload leaves off.

use std::time::Instant;

use pwrperf::{analyze_text, metrics_ndjson, perfetto_json, RunAttribution, RunResult};

use crate::fat_tree::single_run;
use crate::report::{expect_eq, median, Outcome};
use crate::rounds::{self, Config};

const RANKS: usize = 256;
const SMOKE_RANKS: usize = 16;
const STREAM: u64 = 3;
const SETUP_REPS: usize = 31;

/// One round's exports and their timings.
#[derive(Default)]
struct Exports {
    analyze_s: f64,
    perfetto_s: f64,
    ndjson_s: f64,
    perfetto_bytes: usize,
    /// Seconds to recompute the attribution, after the round's wall was
    /// taken.
    attribution_s: f64,
    /// The analyze table, Perfetto JSON and metrics NDJSON, until the
    /// round's check has read them.
    texts: Vec<String>,
}

pub fn run(cfg: &Config) -> Outcome {
    let ranks = if cfg.smoke { SMOKE_RANKS } else { RANKS };
    let label = format!("ft-scale-{ranks}");
    let timed = |f: &dyn Fn() -> String| {
        let t0 = Instant::now();
        let text = f();
        (text, t0.elapsed().as_secs_f64())
    };
    let exports = |result: &RunResult| {
        let Some(attribution) = &result.attribution else {
            return Exports::default();
        };
        let (table, analyze_s) = timed(&|| analyze_text(&label, "static-1400", attribution));
        let (perfetto, perfetto_s) = timed(&|| perfetto_json(result));
        let (ndjson, ndjson_s) = timed(&|| metrics_ndjson(result));
        Exports {
            analyze_s,
            perfetto_s,
            ndjson_s,
            perfetto_bytes: perfetto.len(),
            attribution_s: 0.0,
            texts: vec![table, perfetto, ndjson],
        }
    };
    let check = |result: &RunResult, e: &mut Exports| {
        let attribution = result
            .attribution
            .as_ref()
            .ok_or("causal run without an attribution")?;
        check_blame(result, attribution)?;
        let t0 = Instant::now();
        let recomputed = reattribute(result);
        e.attribution_s = t0.elapsed().as_secs_f64();
        expect_eq(
            Some(&recomputed?),
            Some(attribution),
            "recomputed vs engine attribution",
        )?;
        let texts = std::mem::take(&mut e.texts);
        let [table, perfetto, ndjson] = &texts[..] else {
            return Err("an export is missing".to_string());
        };
        if table.is_empty() || !perfetto.starts_with('{') || ndjson.is_empty() {
            return Err("an export came back empty".to_string());
        }
        Ok(())
    };
    let (mut out, rounds) =
        single_run(cfg, ranks, "flat", STREAM, SETUP_REPS, true, exports, check);
    if cfg.trace && !rounds.is_empty() {
        let traced = |f: fn(&Exports) -> f64| {
            median(&rounds::per_round(&rounds, true, |m| f(&m.data.exports)))
        };
        out.layers.extend([
            ("scope.attribution_s", traced(|e| e.attribution_s)),
            ("scope.analyze_s", traced(|e| e.analyze_s)),
            ("scope.perfetto_s", traced(|e| e.perfetto_s)),
            ("scope.ndjson_s", traced(|e| e.ndjson_s)),
            ("scope.perfetto_bytes", traced(|e| e.perfetto_bytes as f64)),
        ]);
    }
    out
}

/// Recompute the run's attribution from its public causal log, engine
/// breakdown and node energies (the same call the engine makes at
/// finalize), so its cost can be timed from outside.
fn reattribute(result: &RunResult) -> Result<RunAttribution, String> {
    let log = result
        .causal
        .as_ref()
        .ok_or("causal run without a causal log")?;
    let buckets: Vec<obs::BucketTotals> = result
        .breakdown
        .iter()
        .map(|b| obs::BucketTotals {
            compute: b.compute + b.mem_stall,
            wait: b.wait_busy + b.wait_blocked,
            transition: b.transition,
        })
        .collect();
    let node_total_j: Vec<f64> = result.per_node.iter().map(|e| e.total_j()).collect();
    Ok(obs::attribute(log, &buckets, &node_total_j))
}

/// The blame identities: the critical path is exactly the makespan (the
/// backward walk is contiguous), the makespan is the run's duration, and
/// every rank's attributed split sums to its engine breakdown.
pub fn check_blame(result: &RunResult, a: &RunAttribution) -> Result<(), String> {
    expect_eq(a.critical_path, a.makespan, "critical path vs makespan")?;
    expect_eq(a.makespan, result.duration, "makespan vs duration")?;
    expect_eq(a.ranks.len(), result.breakdown.len(), "attributed ranks")?;
    for (rank, (row, b)) in a.ranks.iter().zip(&result.breakdown).enumerate() {
        expect_eq(
            row.wall(),
            b.total(),
            &format!("rank {rank} split vs breakdown"),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwrperf::{DvsStrategy, EngineConfig, Experiment, Workload};

    #[test]
    fn tampered_attribution_fails_the_gate() {
        let result = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(1400))
            .with_engine(EngineConfig {
                causal: true,
                ..EngineConfig::default()
            })
            .run();
        let attribution = reattribute(&result).unwrap();
        assert_eq!(Some(&attribution), result.attribution.as_ref());
        assert!(check_blame(&result, &attribution).is_ok());

        let mut tampered = attribution.clone();
        tampered.critical_path += sim_core::SimDuration(1);
        assert!(check_blame(&result, &tampered).is_err());

        let mut tampered = attribution;
        tampered.ranks[1].comm += sim_core::SimDuration(1);
        assert!(check_blame(&result, &tampered).is_err());
    }
}
