//! Bit-exact serialization of [`RunResult`] for the on-disk store.
//!
//! The decoder must reproduce a value that is `==` to the original —
//! including `f64` bit patterns (raw IEEE-754 bits on the wire), the
//! `&'static str` payloads inside trace events (re-minted through
//! [`sim_core::intern_static`]), and the *insertion order* of the
//! metrics registry (derived `PartialEq` on [`MetricsRegistry`] compares
//! the insertion-ordered vectors, so serialization iterates in insertion
//! order, not export order).

use mpi_sim::{RankBreakdown, RunResult, SampleRow};
use obs::{Histogram, MetricsRegistry, RankAttribution, RunAttribution};
use power_model::EnergyReport;
use sim_core::{
    intern_static, CausalLog, DvfsRecord, FaultCounts, MsgRecord, SimDuration, SimTime,
    TraceDetail, TraceEvent, TraceKind, WaitCause, WaitRecord,
};

use super::codec::{ByteReader, ByteWriter, DecodeError, Sink};

/// Encode a run result into the store's canonical payload bytes.
pub fn encode_run_result(result: &RunResult) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(result.duration.0);
    w.put_usize(result.per_node.len());
    for report in &result.per_node {
        encode_energy(&mut w, report);
    }
    encode_energy(&mut w, &result.total);
    w.put_usize(result.breakdown.len());
    for b in &result.breakdown {
        w.put_u64(b.compute.0);
        w.put_u64(b.mem_stall.0);
        w.put_u64(b.wait_busy.0);
        w.put_u64(b.wait_blocked.0);
        w.put_u64(b.transition.0);
    }
    w.put_usize(result.transitions.len());
    for &t in &result.transitions {
        w.put_u64(t);
    }
    w.put_usize(result.samples.len());
    for row in &result.samples {
        encode_sample(&mut w, row);
    }
    w.put_usize(result.trace.len());
    for event in &result.trace {
        encode_trace_event(&mut w, event);
    }
    w.put_u64(result.trace_dropped);
    w.put_usize(result.freq_residency.len());
    for node in &result.freq_residency {
        w.put_usize(node.len());
        for &(mhz, residency) in node {
            w.put_u32(mhz);
            w.put_u64(residency.0);
        }
    }
    w.put_u64(result.events);
    encode_fault_counts(&mut w, &result.faults);
    match &result.metrics {
        None => w.put_u8(0),
        Some(registry) => {
            w.put_u8(1);
            encode_metrics(&mut w, registry);
        }
    }
    match &result.causal {
        None => w.put_u8(0),
        Some(log) => {
            w.put_u8(1);
            encode_causal(&mut w, log);
        }
    }
    match &result.attribution {
        None => w.put_u8(0),
        Some(attribution) => {
            w.put_u8(1);
            encode_attribution(&mut w, attribution);
        }
    }
    w.into_bytes()
}

/// Decode a payload produced by [`encode_run_result`]. Never panics:
/// corrupt or truncated input comes back as a typed `DecodeError`.
pub fn decode_run_result(bytes: &[u8]) -> Result<RunResult, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let duration = SimDuration(r.get_u64()?);
    let per_node_len = r.get_seq_len("per-node energy", 48)?;
    let mut per_node = Vec::with_capacity(per_node_len);
    for _ in 0..per_node_len {
        per_node.push(decode_energy(&mut r)?);
    }
    let total = decode_energy(&mut r)?;
    let breakdown_len = r.get_seq_len("rank breakdown", 40)?;
    let mut breakdown = Vec::with_capacity(breakdown_len);
    for _ in 0..breakdown_len {
        breakdown.push(RankBreakdown {
            compute: SimDuration(r.get_u64()?),
            mem_stall: SimDuration(r.get_u64()?),
            wait_busy: SimDuration(r.get_u64()?),
            wait_blocked: SimDuration(r.get_u64()?),
            transition: SimDuration(r.get_u64()?),
        });
    }
    let transitions_len = r.get_seq_len("transitions", 8)?;
    let mut transitions = Vec::with_capacity(transitions_len);
    for _ in 0..transitions_len {
        transitions.push(r.get_u64()?);
    }
    let samples_len = r.get_seq_len("samples", 40)?;
    let mut samples = Vec::with_capacity(samples_len);
    for _ in 0..samples_len {
        samples.push(decode_sample(&mut r)?);
    }
    let trace_len = r.get_seq_len("trace", 18)?;
    let mut trace = Vec::with_capacity(trace_len);
    for _ in 0..trace_len {
        trace.push(decode_trace_event(&mut r)?);
    }
    let trace_dropped = r.get_u64()?;
    let residency_len = r.get_seq_len("freq residency", 8)?;
    let mut freq_residency = Vec::with_capacity(residency_len);
    for _ in 0..residency_len {
        let points = r.get_seq_len("freq residency points", 12)?;
        let mut node = Vec::with_capacity(points);
        for _ in 0..points {
            let mhz = r.get_u32()?;
            node.push((mhz, SimDuration(r.get_u64()?)));
        }
        freq_residency.push(node);
    }
    let events = r.get_u64()?;
    let faults = decode_fault_counts(&mut r)?;
    let metrics = match r.get_u8()? {
        0 => None,
        1 => Some(decode_metrics(&mut r)?),
        tag => {
            return Err(DecodeError::BadTag {
                offset: r.offset().saturating_sub(1),
                what: "metrics presence",
                tag,
            })
        }
    };
    let causal = match r.get_u8()? {
        0 => None,
        1 => Some(decode_causal(&mut r)?),
        tag => {
            return Err(DecodeError::BadTag {
                offset: r.offset().saturating_sub(1),
                what: "causal presence",
                tag,
            })
        }
    };
    let attribution = match r.get_u8()? {
        0 => None,
        1 => Some(decode_attribution(&mut r)?),
        tag => {
            return Err(DecodeError::BadTag {
                offset: r.offset().saturating_sub(1),
                what: "attribution presence",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(RunResult {
        duration,
        per_node,
        total,
        breakdown,
        transitions,
        samples,
        trace,
        trace_dropped,
        freq_residency,
        events,
        faults,
        metrics,
        causal,
        attribution,
    })
}

fn encode_energy(w: &mut ByteWriter, report: &EnergyReport) {
    w.put_f64(report.cpu_dynamic_j);
    w.put_f64(report.cpu_static_j);
    w.put_f64(report.base_j);
    w.put_f64(report.memory_j);
    w.put_f64(report.nic_j);
    w.put_f64(report.transition_j);
}

fn decode_energy(r: &mut ByteReader<'_>) -> Result<EnergyReport, DecodeError> {
    Ok(EnergyReport {
        cpu_dynamic_j: r.get_f64()?,
        cpu_static_j: r.get_f64()?,
        base_j: r.get_f64()?,
        memory_j: r.get_f64()?,
        nic_j: r.get_f64()?,
        transition_j: r.get_f64()?,
    })
}

fn encode_sample(w: &mut ByteWriter, row: &SampleRow) {
    w.put_u64(row.time.0);
    w.put_usize(row.node_power_w.len());
    for &p in &row.node_power_w {
        w.put_f64(p);
    }
    w.put_usize(row.node_energy_j.len());
    for &e in &row.node_energy_j {
        w.put_f64(e);
    }
    w.put_usize(row.node_mhz.len());
    for &m in &row.node_mhz {
        w.put_u32(m);
    }
    w.put_usize(row.node_battery_mwh.len());
    for &b in &row.node_battery_mwh {
        w.put_u64(b);
    }
}

fn decode_sample(r: &mut ByteReader<'_>) -> Result<SampleRow, DecodeError> {
    let time = SimTime(r.get_u64()?);
    let power_len = r.get_seq_len("sample power", 8)?;
    let mut node_power_w = Vec::with_capacity(power_len);
    for _ in 0..power_len {
        node_power_w.push(r.get_f64()?);
    }
    let energy_len = r.get_seq_len("sample energy", 8)?;
    let mut node_energy_j = Vec::with_capacity(energy_len);
    for _ in 0..energy_len {
        node_energy_j.push(r.get_f64()?);
    }
    let mhz_len = r.get_seq_len("sample mhz", 4)?;
    let mut node_mhz = Vec::with_capacity(mhz_len);
    for _ in 0..mhz_len {
        node_mhz.push(r.get_u32()?);
    }
    let battery_len = r.get_seq_len("sample battery", 8)?;
    let mut node_battery_mwh = Vec::with_capacity(battery_len);
    for _ in 0..battery_len {
        node_battery_mwh.push(r.get_u64()?);
    }
    Ok(SampleRow {
        time,
        node_power_w,
        node_energy_j,
        node_mhz,
        node_battery_mwh,
    })
}

fn encode_trace_event(w: &mut ByteWriter, event: &TraceEvent) {
    w.put_u64(event.time.0);
    w.put_usize(event.node);
    let kind_tag = match event.kind {
        TraceKind::PhaseBegin => 0u8,
        TraceKind::PhaseEnd => 1,
        TraceKind::FreqChange => 2,
        TraceKind::MsgStart => 3,
        TraceKind::MsgEnd => 4,
    };
    w.put_u8(kind_tag);
    match event.detail {
        TraceDetail::Phase(name) => {
            w.put_u8(1);
            w.put_str(name);
        }
        TraceDetail::MsgTo { dst, bytes } => {
            w.put_u8(2);
            w.put_usize(dst);
            w.put_u64(bytes);
        }
        TraceDetail::MsgFrom { src } => {
            w.put_u8(3);
            w.put_usize(src);
        }
        TraceDetail::Freq { from_mhz, to_mhz } => {
            w.put_u8(4);
            w.put_u32(from_mhz);
            w.put_u32(to_mhz);
        }
    }
}

fn decode_trace_event(r: &mut ByteReader<'_>) -> Result<TraceEvent, DecodeError> {
    let time = SimTime(r.get_u64()?);
    let node = decode_node_index(r)?;
    let kind_offset = r.offset();
    let kind = match r.get_u8()? {
        0 => TraceKind::PhaseBegin,
        1 => TraceKind::PhaseEnd,
        2 => TraceKind::FreqChange,
        3 => TraceKind::MsgStart,
        4 => TraceKind::MsgEnd,
        tag => {
            return Err(DecodeError::BadTag {
                offset: kind_offset,
                what: "trace kind",
                tag,
            })
        }
    };
    let detail_offset = r.offset();
    let detail = match r.get_u8()? {
        1 => TraceDetail::Phase(intern_static(&r.get_str()?)),
        2 => TraceDetail::MsgTo {
            dst: decode_node_index(r)?,
            bytes: r.get_u64()?,
        },
        3 => TraceDetail::MsgFrom {
            src: decode_node_index(r)?,
        },
        4 => TraceDetail::Freq {
            from_mhz: r.get_u32()?,
            to_mhz: r.get_u32()?,
        },
        tag => {
            return Err(DecodeError::BadTag {
                offset: detail_offset,
                what: "trace detail",
                tag,
            })
        }
    };
    Ok(TraceEvent {
        time,
        node,
        kind,
        detail,
    })
}

/// Node and rank indices round-trip through `u64`; only a value that does
/// not fit `usize` is rejected.
fn decode_node_index(r: &mut ByteReader<'_>) -> Result<usize, DecodeError> {
    usize::try_from(r.get_u64()?).map_err(|_| DecodeError::BadLength { what: "node index" })
}

fn encode_fault_counts(w: &mut ByteWriter, counts: &FaultCounts) {
    for (_, n) in counts.named() {
        w.put_u64(n);
    }
}

fn decode_fault_counts(r: &mut ByteReader<'_>) -> Result<FaultCounts, DecodeError> {
    Ok(FaultCounts {
        compute_slowdowns: r.get_u64()?,
        dvfs_failures: r.get_u64()?,
        dvfs_latency_spikes: r.get_u64()?,
        battery_stuck_reads: r.get_u64()?,
        battery_noisy_reads: r.get_u64()?,
        battery_errors: r.get_u64()?,
        samples_skipped: r.get_u64()?,
        meter_biased_samples: r.get_u64()?,
        degraded_links: r.get_u64()?,
    })
}

fn encode_metrics(w: &mut ByteWriter, registry: &MetricsRegistry) {
    w.put_usize(registry.counters().count());
    for (name, value) in registry.counters() {
        w.put_str(name);
        w.put_u64(value);
    }
    w.put_usize(registry.gauges().count());
    for (name, value) in registry.gauges() {
        w.put_str(name);
        w.put_f64(value);
    }
    w.put_usize(registry.histograms().count());
    for (name, h) in registry.histograms() {
        w.put_str(name);
        w.put_usize(h.bounds().len());
        for &b in h.bounds() {
            w.put_f64(b);
        }
        w.put_usize(h.counts().len());
        for &c in h.counts() {
            w.put_u64(c);
        }
        w.put_u64(h.count());
        w.put_f64(h.sum());
    }
}

fn decode_metrics(r: &mut ByteReader<'_>) -> Result<MetricsRegistry, DecodeError> {
    let mut registry = MetricsRegistry::new();
    let counters = r.get_seq_len("metric counters", 16)?;
    for _ in 0..counters {
        let name = r.get_str()?;
        let value = r.get_u64()?;
        registry.counter_add(&name, value);
    }
    let gauges = r.get_seq_len("metric gauges", 16)?;
    for _ in 0..gauges {
        let name = r.get_str()?;
        let value = r.get_f64()?;
        registry.gauge_set(&name, value);
    }
    let histograms = r.get_seq_len("metric histograms", 32)?;
    for _ in 0..histograms {
        let name = r.get_str()?;
        let bounds_len = r.get_seq_len("histogram bounds", 8)?;
        let mut bounds = Vec::with_capacity(bounds_len);
        for _ in 0..bounds_len {
            bounds.push(r.get_f64()?);
        }
        let counts_len = r.get_seq_len("histogram counts", 8)?;
        let mut counts = Vec::with_capacity(counts_len);
        for _ in 0..counts_len {
            counts.push(r.get_u64()?);
        }
        let count = r.get_u64()?;
        let sum = r.get_f64()?;
        let histogram =
            Histogram::from_parts(bounds, counts, count, sum).ok_or(DecodeError::Invalid {
                what: "histogram bucket shape",
            })?;
        registry.histogram_insert(&name, histogram);
    }
    Ok(registry)
}

fn encode_opt_time(w: &mut ByteWriter, t: Option<SimTime>) {
    match t {
        None => w.put_u8(0),
        Some(t) => {
            w.put_u8(1);
            w.put_u64(t.0);
        }
    }
}

fn decode_opt_time(r: &mut ByteReader<'_>) -> Result<Option<SimTime>, DecodeError> {
    let tag_offset = r.offset();
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(SimTime(r.get_u64()?))),
        tag => Err(DecodeError::BadTag {
            offset: tag_offset,
            what: "optional time presence",
            tag,
        }),
    }
}

fn encode_causal(w: &mut ByteWriter, log: &CausalLog) {
    w.put_usize(log.msgs.len());
    for m in &log.msgs {
        w.put_usize(m.src);
        w.put_usize(m.dst);
        w.put_u64(m.bytes);
        w.put_bool(m.collective);
        w.put_u64(m.posted_at.0);
        encode_opt_time(w, m.flow_started_at);
        encode_opt_time(w, m.drained_at);
        encode_opt_time(w, m.delivered_at);
    }
    w.put_usize(log.waits.len());
    for wait in &log.waits {
        w.put_usize(wait.rank);
        w.put_u64(wait.start.0);
        w.put_u64(wait.end.0);
        match wait.cause {
            WaitCause::SendDrained(id) => {
                w.put_u8(0);
                w.put_usize(id);
            }
            WaitCause::RecvDelivered(id) => {
                w.put_u8(1);
                w.put_usize(id);
            }
        }
        w.put_f64(wait.energy_start_j);
        w.put_f64(wait.energy_end_j);
    }
    w.put_usize(log.dvfs.len());
    for d in &log.dvfs {
        w.put_usize(d.node);
        w.put_u64(d.start.0);
        w.put_u64(d.end.0);
    }
    w.put_usize(log.finish.len());
    for &t in &log.finish {
        w.put_u64(t.0);
    }
    w.put_usize(log.finish_energy_j.len());
    for &e in &log.finish_energy_j {
        w.put_f64(e);
    }
}

fn decode_causal(r: &mut ByteReader<'_>) -> Result<CausalLog, DecodeError> {
    let msgs_len = r.get_seq_len("causal messages", 44)?;
    let mut msgs = Vec::with_capacity(msgs_len);
    for _ in 0..msgs_len {
        msgs.push(MsgRecord {
            src: decode_node_index(r)?,
            dst: decode_node_index(r)?,
            bytes: r.get_u64()?,
            collective: r.get_bool()?,
            posted_at: SimTime(r.get_u64()?),
            flow_started_at: decode_opt_time(r)?,
            drained_at: decode_opt_time(r)?,
            delivered_at: decode_opt_time(r)?,
        });
    }
    let waits_len = r.get_seq_len("causal waits", 49)?;
    let mut waits = Vec::with_capacity(waits_len);
    for _ in 0..waits_len {
        let rank = decode_node_index(r)?;
        let start = SimTime(r.get_u64()?);
        let end = SimTime(r.get_u64()?);
        let cause_offset = r.offset();
        let cause = match r.get_u8()? {
            0 => WaitCause::SendDrained(decode_node_index(r)?),
            1 => WaitCause::RecvDelivered(decode_node_index(r)?),
            tag => {
                return Err(DecodeError::BadTag {
                    offset: cause_offset,
                    what: "wait cause",
                    tag,
                })
            }
        };
        waits.push(WaitRecord {
            rank,
            start,
            end,
            cause,
            energy_start_j: r.get_f64()?,
            energy_end_j: r.get_f64()?,
        });
    }
    let dvfs_len = r.get_seq_len("causal dvfs", 24)?;
    let mut dvfs = Vec::with_capacity(dvfs_len);
    for _ in 0..dvfs_len {
        dvfs.push(DvfsRecord {
            node: decode_node_index(r)?,
            start: SimTime(r.get_u64()?),
            end: SimTime(r.get_u64()?),
        });
    }
    let finish_len = r.get_seq_len("causal finish times", 8)?;
    let mut finish = Vec::with_capacity(finish_len);
    for _ in 0..finish_len {
        finish.push(SimTime(r.get_u64()?));
    }
    let energy_len = r.get_seq_len("causal finish energy", 8)?;
    let mut finish_energy_j = Vec::with_capacity(energy_len);
    for _ in 0..energy_len {
        finish_energy_j.push(r.get_f64()?);
    }
    Ok(CausalLog {
        msgs,
        waits,
        dvfs,
        finish,
        finish_energy_j,
    })
}

fn encode_attribution(w: &mut ByteWriter, a: &RunAttribution) {
    w.put_u64(a.makespan.0);
    w.put_u64(a.critical_path.0);
    w.put_u64(a.cp_comm.0);
    w.put_u64(a.cp_hops);
    w.put_usize(a.ranks.len());
    for rank in &a.ranks {
        w.put_u64(rank.compute.0);
        w.put_u64(rank.comm.0);
        w.put_u64(rank.blocked.0);
        w.put_u64(rank.cp_residency.0);
        w.put_u64(rank.finish.0);
        w.put_f64(rank.compute_j);
        w.put_f64(rank.comm_j);
        w.put_f64(rank.blocked_j);
        w.put_f64(rank.idle_tail_j);
        w.put_f64(rank.slack_j);
        w.put_f64(rank.total_j);
    }
    w.put_f64(a.redistributable_j);
}

fn decode_attribution(r: &mut ByteReader<'_>) -> Result<RunAttribution, DecodeError> {
    let makespan = SimDuration(r.get_u64()?);
    let critical_path = SimDuration(r.get_u64()?);
    let cp_comm = SimDuration(r.get_u64()?);
    let cp_hops = r.get_u64()?;
    let ranks_len = r.get_seq_len("attribution ranks", 88)?;
    let mut ranks = Vec::with_capacity(ranks_len);
    for _ in 0..ranks_len {
        ranks.push(RankAttribution {
            compute: SimDuration(r.get_u64()?),
            comm: SimDuration(r.get_u64()?),
            blocked: SimDuration(r.get_u64()?),
            cp_residency: SimDuration(r.get_u64()?),
            finish: SimTime(r.get_u64()?),
            compute_j: r.get_f64()?,
            comm_j: r.get_f64()?,
            blocked_j: r.get_f64()?,
            idle_tail_j: r.get_f64()?,
            slack_j: r.get_f64()?,
            total_j: r.get_f64()?,
        });
    }
    let redistributable_j = r.get_f64()?;
    Ok(RunAttribution {
        makespan,
        critical_path,
        cp_comm,
        cp_hops,
        ranks,
        redistributable_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::strategy::DvsStrategy;
    use crate::workload::Workload;
    use mpi_sim::EngineConfig;

    fn rich_result() -> RunResult {
        let engine = EngineConfig {
            sample_interval: Some(SimDuration::from_millis(5)),
            trace_capacity: 1 << 16,
            metrics: true,
            causal: true,
            ..EngineConfig::default()
        };
        Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(1400))
            .with_engine(engine)
            .run()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let original = rich_result();
        assert!(!original.samples.is_empty());
        assert!(!original.trace.is_empty());
        assert!(original.metrics.is_some());
        assert!(original.causal.as_ref().is_some_and(|c| !c.msgs.is_empty()));
        assert!(original.attribution.is_some());
        let bytes = encode_run_result(&original);
        let decoded = decode_run_result(&bytes).unwrap();
        assert_eq!(original, decoded);
        // And encoding the decoded value reproduces the same bytes.
        assert_eq!(bytes, encode_run_result(&decoded));
    }

    #[test]
    fn truncation_at_every_prefix_is_an_error_not_a_panic() {
        let bytes = encode_run_result(&rich_result());
        // Check a spread of prefixes (every length would be slow in debug).
        for len in (0..bytes.len()).step_by(97) {
            assert!(
                decode_run_result(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_run_result(&rich_result());
        bytes.push(0);
        assert_eq!(
            decode_run_result(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        );
    }
}
