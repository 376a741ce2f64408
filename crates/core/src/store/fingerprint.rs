//! Content-addressed experiment fingerprints.
//!
//! A fingerprint is a 128-bit digest of an experiment's *semantic
//! content*: the built per-rank programs (which bake in the workload's
//! structure and the [`mpi_sim::MsgCostModel`] software costs), the DVS
//! strategy, the full [`EngineConfig`] (wait policy, sampling, tracing,
//! metrics, fault spec), any cluster overrides, and a format-version
//! tag. Identical configurations collide by construction; changing any
//! single field changes the canonical byte stream and therefore the key.
//!
//! The digest is two independently salted passes of the workspace's
//! deterministic [`FxHasher`] over the same canonical bytes. FxHash has
//! no per-process state, so fingerprints are stable across processes and
//! machines — the property the on-disk cache stands on (and that the
//! golden-key test in `tests/sweepstore.rs` pins).
//!
//! The encoding is written once, against a [`Sink`]. Fingerprinting
//! streams it into both hashers as it is produced, so a 1024-rank job's
//! tens of megabytes of expanded ops are never buffered;
//! [`canonical_experiment_bytes`] collects the same bytes into a vector.

use std::hash::Hasher as _;

use cluster_sim::NodeConfig;
use dvfs::{AppSpeedRequest, CapPolicy};
use mpi_sim::{EngineConfig, Op, Program, Topology, WaitPolicy};
use net_model::NetworkParams;
use power_model::DvfsLadder;
use sim_core::hash::FxHasher;
use sim_core::Fault;

use super::codec::ByteWriter;
use crate::experiment::Experiment;
use crate::strategy::DvsStrategy;

/// Version tag mixed into every fingerprint and written into every
/// record header. Bump it whenever the canonical encoding or the record
/// payload layout changes; old cache entries then miss (and are
/// rejected) instead of decoding garbage.
///
/// v3: `RunResult` payloads gained the causal log and attribution
/// summary, and `EngineConfig::causal` joined the engine encoding.
///
/// v4: strategy frequencies are ladder-resolved before encoding (so
/// requests clamping to the same operating point share one record), and
/// the `PowerCap` controller strategy joined the strategy encoding.
pub(crate) const STORE_FORMAT_VERSION: u32 = 4;

const FINGERPRINT_MAGIC: &[u8; 4] = b"PWRF";
const SALT_LO: u64 = 0x5EED_CAFE_0000_0001;
const SALT_HI: u64 = 0x5EED_CAFE_0000_0002;
const SALT_CHECKSUM: u64 = 0x5EED_CAFE_0000_0003;

/// Where the canonical encoding goes, in the store's conventions
/// (little-endian fixed-width integers, `f64` as raw bits, `u64`
/// length prefixes): a [`ByteWriter`] or a [`DigestSink`].
trait Sink {
    fn put_raw(&mut self, bytes: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_raw(s.as_bytes());
    }
}

impl Sink for ByteWriter {
    fn put_raw(&mut self, bytes: &[u8]) {
        ByteWriter::put_raw(self, bytes);
    }
}

/// Hashes the encoding as it is written, into the two salted hashers of
/// [`Fingerprint::of_bytes`]. Bytes collect in a small buffer that is
/// hashed in whole 8-byte words counted from the start of the stream;
/// only the final tail is zero-padded, exactly how [`FxHasher::write`]
/// cuts one buffer, so the digest equals `Fingerprint::of_bytes` over
/// the buffered encoding.
struct DigestSink {
    lo: FxHasher,
    hi: FxHasher,
    buf: Vec<u8>,
}

impl DigestSink {
    /// Buffer size at which whole words are hashed out (a multiple of 8).
    const FLUSH_AT: usize = 4096;

    fn new() -> Self {
        let salted = |salt| {
            let mut h = FxHasher::default();
            h.write_u64(salt);
            h
        };
        DigestSink {
            lo: salted(SALT_LO),
            hi: salted(SALT_HI),
            buf: Vec::with_capacity(Self::FLUSH_AT + 64),
        }
    }

    /// Hash the buffer's whole words and keep its partial tail. Out of
    /// line, so the per-field `put_raw` stays an inlined append.
    #[inline(never)]
    fn flush_words(&mut self) {
        let whole = self.buf.len() / 8 * 8;
        for chunk in self.buf[..whole].chunks_exact(8) {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            let v = u64::from_le_bytes(word);
            self.lo.write_u64(v);
            self.hi.write_u64(v);
        }
        self.buf.drain(..whole);
    }

    fn finish(mut self) -> Fingerprint {
        self.flush_words();
        // What `FxHasher::write` does with a tail: one zero-padded word.
        self.lo.write(&self.buf);
        self.hi.write(&self.buf);
        Fingerprint {
            lo: self.lo.finish(),
            hi: self.hi.finish(),
        }
    }
}

impl Sink for DigestSink {
    #[inline]
    fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= Self::FLUSH_AT {
            self.flush_words();
        }
    }
}

fn fx_hash(salt: u64, bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(salt);
    h.write(bytes);
    h.finish()
}

/// Deterministic 64-bit record checksum (salted differently from the
/// fingerprint words so a record cannot checksum itself into validity).
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    fx_hash(SALT_CHECKSUM, bytes)
}

/// A 128-bit content digest; the hex form names the record on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint {
    lo: u64,
    hi: u64,
}

impl Fingerprint {
    /// Digest a canonical byte stream.
    pub fn of_bytes(bytes: &[u8]) -> Self {
        Fingerprint {
            lo: fx_hash(SALT_LO, bytes),
            hi: fx_hash(SALT_HI, bytes),
        }
    }

    /// 32 lowercase hex characters (the on-disk record stem).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.lo, self.hi)
    }

    /// The digest as 16 little-endian bytes (lo word first).
    pub(crate) fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        let (lo_half, hi_half) = out.split_at_mut(8);
        lo_half.copy_from_slice(&self.lo.to_le_bytes());
        hi_half.copy_from_slice(&self.hi.to_le_bytes());
        out
    }

    /// Parse the 32-hex-digit form produced by [`Fingerprint::to_hex`]
    /// (a record's file stem). `None` for anything else — compaction
    /// uses this to tell record files from strays.
    pub(crate) fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 32 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let lo = u64::from_str_radix(hex.get(..16)?, 16).ok()?;
        let hi = u64::from_str_radix(hex.get(16..)?, 16).ok()?;
        Some(Fingerprint { lo, hi })
    }

    /// Rebuild from [`Fingerprint::to_bytes`] output.
    pub(crate) fn from_bytes(bytes: [u8; 16]) -> Self {
        let mut lo = [0u8; 8];
        let mut hi = [0u8; 8];
        let (lo_half, hi_half) = bytes.split_at(8);
        lo.copy_from_slice(lo_half);
        hi.copy_from_slice(hi_half);
        Fingerprint {
            lo: u64::from_le_bytes(lo),
            hi: u64::from_le_bytes(hi),
        }
    }
}

/// Fingerprint one experiment (the cache key for [`Experiment::run`]).
pub fn fingerprint_experiment(experiment: &Experiment) -> Fingerprint {
    fingerprint_with_programs(experiment, &built_programs(experiment))
}

/// [`fingerprint_experiment`] from the experiment's already-built
/// programs (what `workload.programs(strategy.wants_instrumentation())`
/// returns). A sweep planner builds them once per workload and reuses
/// them for every cell of that workload; the key is the same either way.
pub(crate) fn fingerprint_with_programs(
    experiment: &Experiment,
    programs: &[Program],
) -> Fingerprint {
    let mut sink = DigestSink::new();
    encode_experiment(&mut sink, experiment, programs);
    sink.finish()
}

/// The canonical byte encoding [`fingerprint_experiment`] hashes.
/// Exposed so tests can assert the encoding itself is deterministic and
/// injective over single-field edits.
pub fn canonical_experiment_bytes(experiment: &Experiment) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_experiment(&mut w, experiment, &built_programs(experiment));
    w.into_bytes()
}

fn built_programs(experiment: &Experiment) -> Vec<Program> {
    experiment
        .workload
        .programs(experiment.strategy.wants_instrumentation())
}

fn encode_experiment(w: &mut impl Sink, experiment: &Experiment, programs: &[Program]) {
    encode_parts(
        w,
        programs,
        experiment.strategy,
        &experiment.engine,
        experiment.node_config.as_ref(),
        experiment.network.as_ref(),
    )
}

/// Fingerprint from already-built parts — for callers that assemble
/// programs directly (e.g. with a custom [`mpi_sim::MsgCostModel`], which
/// is baked into the lowered ops and therefore into this digest).
pub fn fingerprint_parts(
    programs: &[Program],
    strategy: DvsStrategy,
    engine: &EngineConfig,
) -> Fingerprint {
    let mut sink = DigestSink::new();
    encode_parts(&mut sink, programs, strategy, engine, None, None);
    sink.finish()
}

fn encode_parts(
    w: &mut impl Sink,
    programs: &[Program],
    strategy: DvsStrategy,
    engine: &EngineConfig,
    node_config: Option<&NodeConfig>,
    network: Option<&NetworkParams>,
) {
    w.put_raw(FINGERPRINT_MAGIC);
    w.put_u32(STORE_FORMAT_VERSION);
    encode_strategy(w, strategy, node_config);
    encode_programs(w, programs);
    encode_engine(w, engine);
    // Cluster overrides enter via their `Debug` form: Rust formats f64
    // with shortest-round-trip precision, so distinct parameter values
    // produce distinct strings, and the default (None) is encoded
    // distinctly from an explicit override that happens to match it.
    encode_debug_override(w, node_config);
    encode_debug_override(w, network);
}

fn encode_debug_override<T: std::fmt::Debug>(w: &mut impl Sink, value: Option<&T>) {
    match value {
        None => w.put_u8(0),
        Some(v) => {
            w.put_u8(1);
            w.put_str(&format!("{v:?}"));
        }
    }
}

fn encode_strategy(w: &mut impl Sink, strategy: DvsStrategy, node_config: Option<&NodeConfig>) {
    // Requested frequencies are snapped to the ladder the run will
    // actually use before encoding: `StaticMhz(5000)` and
    // `StaticMhz(1400)` execute identically on the Pentium-M ladder, so
    // they must share one cache record.
    let default_ladder;
    let ladder = match node_config {
        Some(config) => &config.ladder,
        None => {
            default_ladder = DvfsLadder::pentium_m_1400();
            &default_ladder
        }
    };
    match strategy.resolved(ladder) {
        DvsStrategy::Cpuspeed => w.put_u8(0),
        DvsStrategy::StaticMhz(mhz) => {
            w.put_u8(1);
            w.put_u32(mhz);
        }
        DvsStrategy::DynamicBaseMhz(mhz) => {
            w.put_u8(2);
            w.put_u32(mhz);
        }
        DvsStrategy::OnDemand => w.put_u8(3),
        DvsStrategy::Conservative => w.put_u8(4),
        DvsStrategy::PowerCap { watts, policy } => {
            w.put_u8(5);
            w.put_u32(watts);
            w.put_u8(match policy {
                CapPolicy::Uniform => 0,
                CapPolicy::Redistribute => 1,
            });
        }
    }
}

fn encode_programs(w: &mut impl Sink, programs: &[Program]) {
    w.put_usize(programs.len());
    for program in programs {
        w.put_usize(program.len());
        program.for_each_op(|op| encode_op(w, op));
    }
}

fn encode_op(w: &mut impl Sink, op: &Op) {
    match op {
        Op::Compute(work) => {
            w.put_u8(0);
            w.put_f64(work.cpu_cycles);
            w.put_f64(work.l2_accesses);
            w.put_f64(work.dram_accesses);
        }
        Op::Send { dst, bytes, tag } => {
            w.put_u8(1);
            w.put_usize(*dst);
            w.put_u64(*bytes);
            w.put_u32(*tag);
        }
        Op::Recv { src, tag } => {
            w.put_u8(2);
            w.put_usize(*src);
            w.put_u32(*tag);
        }
        Op::SendRecv {
            dst,
            send_bytes,
            send_tag,
            src,
            recv_tag,
        } => {
            w.put_u8(3);
            w.put_usize(*dst);
            w.put_u64(*send_bytes);
            w.put_u32(*send_tag);
            w.put_usize(*src);
            w.put_u32(*recv_tag);
        }
        Op::Isend { dst, bytes, tag } => {
            w.put_u8(4);
            w.put_usize(*dst);
            w.put_u64(*bytes);
            w.put_u32(*tag);
        }
        Op::Irecv { src, tag } => {
            w.put_u8(5);
            w.put_usize(*src);
            w.put_u32(*tag);
        }
        Op::WaitAll => w.put_u8(6),
        Op::SetSpeed(request) => {
            w.put_u8(7);
            encode_speed_request(w, *request);
        }
        Op::PhaseBegin(name) => {
            w.put_u8(8);
            w.put_str(name);
        }
        Op::PhaseEnd(name) => {
            w.put_u8(9);
            w.put_str(name);
        }
    }
}

fn encode_speed_request(w: &mut impl Sink, request: AppSpeedRequest) {
    match request {
        AppSpeedRequest::Lowest => w.put_u8(0),
        AppSpeedRequest::Highest => w.put_u8(1),
        AppSpeedRequest::Index(i) => {
            w.put_u8(2);
            w.put_usize(i);
        }
        AppSpeedRequest::Restore => w.put_u8(3),
    }
}

fn encode_engine(w: &mut impl Sink, engine: &EngineConfig) {
    w.put_u64(engine.eager_threshold);
    match engine.wait_policy {
        WaitPolicy::BusyPoll => w.put_u8(0),
        WaitPolicy::PollThenBlock(window) => {
            w.put_u8(1);
            w.put_u64(window.0);
        }
    }
    match engine.sample_interval {
        None => w.put_u8(0),
        Some(interval) => {
            w.put_u8(1);
            w.put_u64(interval.0);
        }
    }
    w.put_usize(engine.trace_capacity);
    w.put_bool(engine.metrics);
    w.put_u64(engine.faults.seed);
    w.put_usize(engine.faults.faults.len());
    for fault in &engine.faults.faults {
        encode_fault(w, fault);
    }
    match engine.topology {
        Topology::Flat => w.put_u8(0),
        Topology::FatTree { radix, oversub } => {
            w.put_u8(1);
            w.put_usize(radix);
            w.put_f64(oversub);
        }
    }
    // `causal` keys the cache: it leaves the simulated bits untouched
    // but adds the causal log and attribution to the stored payload, so
    // a causal run must not replay a record cached without them (or vice
    // versa).
    w.put_bool(engine.causal);
}

fn encode_fault(w: &mut impl Sink, fault: &Fault) {
    match *fault {
        Fault::ComputeSlowdown { node, factor } => {
            w.put_u8(0);
            w.put_usize(node);
            w.put_f64(factor);
        }
        Fault::BatteryStuck { node, after_s } => {
            w.put_u8(1);
            w.put_usize(node);
            w.put_f64(after_s);
        }
        Fault::BatteryNoise {
            node,
            amplitude_mwh,
        } => {
            w.put_u8(2);
            w.put_usize(node);
            w.put_u64(amplitude_mwh);
        }
        Fault::MeterBias { node, factor } => {
            w.put_u8(3);
            w.put_usize(node);
            w.put_f64(factor);
        }
        Fault::SampleSkip { probability } => {
            w.put_u8(4);
            w.put_f64(probability);
        }
        Fault::DvfsFail { node, probability } => {
            w.put_u8(5);
            w.put_usize(node);
            w.put_f64(probability);
        }
        Fault::DvfsLatency { node, factor } => {
            w.put_u8(6);
            w.put_usize(node);
            w.put_f64(factor);
        }
        Fault::DegradedLink {
            node,
            bandwidth_factor,
        } => {
            w.put_u8(7);
            w.put_usize(node);
            w.put_f64(bandwidth_factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn experiment() -> Experiment {
        Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(800))
    }

    #[test]
    fn identical_experiments_collide() {
        assert_eq!(
            fingerprint_experiment(&experiment()),
            fingerprint_experiment(&experiment())
        );
    }

    #[test]
    fn strategy_and_engine_fields_change_the_key() {
        let base = fingerprint_experiment(&experiment());
        let other_strategy = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(600));
        assert_ne!(base, fingerprint_experiment(&other_strategy));

        let mut metrics_on = experiment();
        metrics_on.engine.metrics = true;
        assert_ne!(base, fingerprint_experiment(&metrics_on));
    }

    #[test]
    fn topology_and_causal_change_the_key() {
        let base = fingerprint_experiment(&experiment());

        // The fabric shapes rates, so it must key the cache.
        let mut tree = experiment();
        tree.engine.topology = Topology::FatTree {
            radix: 4,
            oversub: 2.0,
        };
        assert_ne!(base, fingerprint_experiment(&tree));
        let mut wider = experiment();
        wider.engine.topology = Topology::FatTree {
            radix: 8,
            oversub: 2.0,
        };
        assert_ne!(
            fingerprint_experiment(&tree),
            fingerprint_experiment(&wider)
        );

        // Causal recording changes the stored payload, so it must key.
        let mut causal = experiment();
        causal.engine.causal = true;
        assert_ne!(base, fingerprint_experiment(&causal));
    }

    #[test]
    fn requests_resolving_to_the_same_point_share_a_key() {
        // 5000 MHz clamps to the 1400 MHz ladder top; the two runs are
        // bit-identical, so the cache must serve one record for both.
        let requested = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(5000));
        let resolved = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1400));
        assert_eq!(
            fingerprint_experiment(&requested),
            fingerprint_experiment(&resolved)
        );
        // Off-ladder dynamic bases snap too.
        let low = Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(100));
        let floor = Experiment::new(Workload::ft_test(2), DvsStrategy::DynamicBaseMhz(600));
        assert_eq!(fingerprint_experiment(&low), fingerprint_experiment(&floor));
        // Distinct resolved points still get distinct keys.
        let mid = Experiment::new(Workload::ft_test(2), DvsStrategy::StaticMhz(1000));
        assert_ne!(
            fingerprint_experiment(&requested),
            fingerprint_experiment(&mid)
        );
    }

    #[test]
    fn power_cap_watts_and_policy_key_the_cache() {
        let cap = |watts, policy| {
            fingerprint_experiment(&Experiment::new(
                Workload::ft_test(2),
                DvsStrategy::PowerCap { watts, policy },
            ))
        };
        let base = cap(120, CapPolicy::Uniform);
        assert_eq!(base, cap(120, CapPolicy::Uniform));
        assert_ne!(base, cap(110, CapPolicy::Uniform));
        assert_ne!(base, cap(120, CapPolicy::Redistribute));
        assert_ne!(base, fingerprint_experiment(&experiment()));
    }

    /// Keys of existing stores must stay valid across refactors of the
    /// engine: these hex digests are pinned, not recomputed. A mismatch
    /// means every on-disk record would silently miss.
    #[test]
    fn fingerprints_are_pinned() {
        let paper_cell = Experiment::new(Workload::ft_b8(), DvsStrategy::DynamicBaseMhz(1200));
        let mut causal_tree = Experiment::new(Workload::ft_test(4), DvsStrategy::StaticMhz(1400));
        causal_tree.engine.topology = Topology::FatTree {
            radix: 4,
            oversub: 2.0,
        };
        causal_tree.engine.causal = true;
        let faulted = Experiment::new(Workload::ft_test(4), DvsStrategy::DynamicBaseMhz(1400))
            .with_faults(
                mpi_sim::FaultSpec::parse("seed:11,slow:1:1.4,dvfs-fail:2:0.3,weak-link:3:0.6")
                    .expect("valid fault spec"),
            );
        for (name, experiment, pinned) in [
            (
                "paper cell",
                &paper_cell,
                "d3b45c243815d632170f36df3f125c88",
            ),
            (
                "fat-tree causal",
                &causal_tree,
                "4967841a89d2ec88f9cf922de41a27dd",
            ),
            ("faulted", &faulted, "f008c98215c2770f6c26f55775020aa5"),
        ] {
            assert_eq!(
                fingerprint_experiment(experiment).to_hex(),
                pinned,
                "{name}: store key drifted"
            );
        }
    }

    #[test]
    fn streamed_digest_equals_the_digest_of_the_buffered_bytes() {
        // Experiments: a compact pairwise all-to-all at 64 ranks, and
        // the same with the fft phases instrumented.
        for strategy in [
            DvsStrategy::StaticMhz(1400),
            DvsStrategy::DynamicBaseMhz(1400),
        ] {
            let e = Experiment::new(Workload::ft_scale(64), strategy);
            assert_eq!(
                fingerprint_experiment(&e),
                Fingerprint::of_bytes(&canonical_experiment_bytes(&e)),
                "{strategy:?}"
            );
        }
        // Parts: a ring all-to-all on 5 ranks, and a zero-cost model
        // whose small exchanges expand without any `Compute`.
        let zero = mpi_sim::MsgCostModel {
            per_msg_cycles: 0.0,
            cycles_per_byte: 0.0,
            ..mpi_sim::MsgCostModel::default()
        };
        for cost in [mpi_sim::MsgCostModel::default(), zero] {
            let programs: Vec<Program> = (0..5)
                .map(|rank| {
                    let mut b = mpi_sim::ProgramBuilder::with_cost(
                        rank,
                        5,
                        cost.clone(),
                        mem_model::MemHierarchy::pentium_m_1400(),
                    );
                    b.alltoall(4096)
                        .phase_begin("odd")
                        .alltoall(7)
                        .phase_end("odd");
                    b.build()
                })
                .collect();
            let strategy = DvsStrategy::Cpuspeed;
            let engine = EngineConfig::default();
            let mut bytes = ByteWriter::new();
            encode_parts(&mut bytes, &programs, strategy, &engine, None, None);
            assert_eq!(
                fingerprint_parts(&programs, strategy, &engine),
                Fingerprint::of_bytes(&bytes.into_bytes()),
                "{cost:?}"
            );
        }
    }

    #[test]
    fn hex_and_bytes_round_trip() {
        let fp = fingerprint_experiment(&experiment());
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(Fingerprint::from_bytes(fp.to_bytes()), fp);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()), Some(fp));
        assert_eq!(Fingerprint::from_hex("not-a-key"), None);
        assert_eq!(Fingerprint::from_hex(&fp.to_hex()[..31]), None);
    }

    #[test]
    fn checksum_differs_from_fingerprint_words() {
        let bytes = canonical_experiment_bytes(&experiment());
        let fp = Fingerprint::of_bytes(&bytes);
        assert_ne!(checksum64(&bytes), fp.lo);
        assert_ne!(checksum64(&bytes), fp.hi);
    }
}
