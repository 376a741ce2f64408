//! Per-rank programs and the builder that assembles them.
//!
//! A [`Program`] is the lowered instruction stream one rank executes:
//! compute segments, point-to-point messages, DVFS requests, and phase
//! markers. Collectives never reach the engine — [`ProgramBuilder`] lowers
//! them to point-to-point operations using MPICH's algorithms (see
//! [`crate::collectives`]) when the program is built, so the engine's
//! semantics stay small and fully testable.
//!
//! The builder also injects each message's *software* cost (stack
//! overhead and buffer copies) as explicit [`Op::Compute`] work. That cost
//! scales with CPU frequency — it is precisely the part of communication
//! that DVFS slows down, and what makes the paper's communication
//! microbenchmark delays rise a few percent at 600 MHz instead of zero.
//!
//! One collective is stored compactly: a pairwise/ring all-to-all would
//! lower to `3n - 2` ops on each of `n` ranks, O(n²) in all, so a program
//! keeps it as a single step and expands it op by op when iterated or
//! executed. [`Program::ops`], [`Program::len`] and
//! [`Program::bytes_sent`] all describe the expanded stream, which is
//! exactly what eager lowering would have produced.

use dvfs::AppSpeedRequest;
use mem_model::{MemHierarchy, WorkUnit};

use crate::collectives::{self, AllToAll};
use crate::config::MsgCostModel;

/// Rank index within the job (also the node index: one rank per node,
/// as in all the paper's experiments).
pub type Rank = usize;

/// Message tag. User tags must stay below `ProgramBuilder::COLLECTIVE_TAG_BASE`.
pub type Tag = u32;

/// One lowered operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Local computation.
    Compute(WorkUnit),
    /// Blocking send of `bytes` to `dst`.
    Send {
        /// Destination rank.
        dst: Rank,
        /// Payload size.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Blocking receive from `src`.
    Recv {
        /// Source rank.
        src: Rank,
        /// Matching tag.
        tag: Tag,
    },
    /// Simultaneous send+receive (MPI_Sendrecv); completes when both do.
    SendRecv {
        /// Destination of the outgoing message.
        dst: Rank,
        /// Outgoing payload size.
        send_bytes: u64,
        /// Outgoing tag.
        send_tag: Tag,
        /// Source of the incoming message.
        src: Rank,
        /// Incoming tag.
        recv_tag: Tag,
    },
    /// Non-blocking send (MPI_Isend): posts and continues. Completion is
    /// collected by the next [`Op::WaitAll`].
    Isend {
        /// Destination rank.
        dst: Rank,
        /// Payload size.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Non-blocking receive (MPI_Irecv): posts and continues. Completion
    /// is collected by the next [`Op::WaitAll`].
    Irecv {
        /// Source rank.
        src: Rank,
        /// Matching tag.
        tag: Tag,
    },
    /// Block until every outstanding non-blocking operation completes
    /// (MPI_Waitall over everything posted since the last WaitAll).
    WaitAll,
    /// Application-directed DVFS request (PowerPack `set_speed`).
    SetSpeed(AppSpeedRequest),
    /// Named phase entry, for tracing and profile alignment.
    PhaseBegin(&'static str),
    /// Named phase exit.
    PhaseEnd(&'static str),
}

/// One stored step of a [`Program`]: a plain op, or a compact all-to-all
/// (an index into [`Program::alltoalls`]) expanded when fetched. The
/// index sits in [`Op`]'s niche, so a step is no larger than an op.
#[derive(Debug, Clone)]
enum Step {
    Op(Op),
    AllToAll(u32),
}

/// A rank's complete instruction stream.
#[derive(Debug, Clone, Default)]
pub struct Program {
    steps: Vec<Step>,
    alltoalls: Vec<AllToAll>,
}

/// Position of a rank in its program: the stored step and, inside a
/// compact all-to-all, the expanded op.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cursor {
    step: usize,
    sub: usize,
}

impl Program {
    /// Build a program directly from lowered operations. Low-level: used
    /// by tests and hand-assembled programs; ordinary construction goes
    /// through [`ProgramBuilder`], and rewriting tools use
    /// [`Program::rewrite`].
    pub fn from_ops(ops: Vec<Op>) -> Self {
        Program {
            steps: ops.into_iter().map(Step::Op).collect(),
            alltoalls: Vec::new(),
        }
    }

    /// The lowered operations in execution order, compact all-to-alls
    /// expanded.
    pub fn ops(&self) -> Ops<'_> {
        Ops {
            program: self,
            cursor: Cursor::default(),
            remaining: self.len(),
        }
    }

    /// Call `f` on every op [`Program::ops`] yields, in order, without
    /// cloning the stored ones (the store fingerprint's hot loop).
    pub fn for_each_op(&self, mut f: impl FnMut(&Op)) {
        for step in &self.steps {
            match step {
                Step::Op(op) => f(op),
                Step::AllToAll(i) => self.alltoalls[*i as usize].for_each_op(&mut f),
            }
        }
    }

    /// Number of operations (compact all-to-alls counted expanded).
    pub fn len(&self) -> usize {
        let expanded: usize = self.alltoalls.iter().map(AllToAll::len).sum();
        self.steps.len() - self.alltoalls.len() + expanded
    }

    /// True for a program with no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored steps: plain ops, plus one per compact
    /// all-to-all whatever its size.
    pub fn stored_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total message payload bytes this rank sends (sends + sendrecv sends).
    pub fn bytes_sent(&self) -> u64 {
        let plain: u64 = self
            .steps
            .iter()
            .map(|step| match step {
                Step::Op(Op::Send { bytes, .. }) => *bytes,
                Step::Op(Op::SendRecv { send_bytes, .. }) => *send_bytes,
                _ => 0,
            })
            .sum();
        plain + self.alltoalls.iter().map(AllToAll::bytes_sent).sum::<u64>()
    }

    /// Rewrite every stored op through `f`, which pushes its replacement
    /// ops (none, itself, or several) onto the given vector. Compact
    /// all-to-alls are carried over unchanged: they hold only compute and
    /// exchange ops, never the phase markers or speed requests a rewriter
    /// acts on.
    pub fn rewrite(&self, mut f: impl FnMut(&Op, &mut Vec<Op>)) -> Program {
        let mut steps = Vec::with_capacity(self.steps.len() + 8);
        let mut buf = Vec::new();
        for step in &self.steps {
            match step {
                Step::Op(op) => {
                    f(op, &mut buf);
                    steps.extend(buf.drain(..).map(Step::Op));
                }
                Step::AllToAll(i) => steps.push(Step::AllToAll(*i)),
            }
        }
        Program {
            steps,
            alltoalls: self.alltoalls.clone(),
        }
    }

    /// The op at `cursor`, advancing it; `None` at the end.
    #[inline]
    pub(crate) fn fetch(&self, cursor: &mut Cursor) -> Option<Op> {
        match self.steps.get(cursor.step)? {
            Step::Op(op) => {
                cursor.step += 1;
                Some(op.clone())
            }
            Step::AllToAll(i) => {
                let a = &self.alltoalls[*i as usize];
                let op = a.op(cursor.sub);
                cursor.sub += 1;
                if cursor.sub == a.len() {
                    cursor.step += 1;
                    cursor.sub = 0;
                }
                Some(op)
            }
        }
    }
}

/// Iterator over a [`Program`]'s expanded ops ([`Program::ops`]).
#[derive(Debug, Clone)]
pub struct Ops<'a> {
    program: &'a Program,
    cursor: Cursor,
    remaining: usize,
}

impl Iterator for Ops<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = self.program.fetch(&mut self.cursor)?;
        self.remaining -= 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Ops<'_> {}

/// Builds one rank's program, lowering collectives and charging message
/// software costs.
#[derive(Debug)]
pub struct ProgramBuilder {
    rank: Rank,
    size: usize,
    cost: MsgCostModel,
    mem: MemHierarchy,
    program: Program,
    collective_epoch: u32,
}

impl ProgramBuilder {
    /// Tags at or above this value are reserved for lowered collectives.
    pub(crate) const COLLECTIVE_TAG_BASE: Tag = 0x8000_0000;

    /// A builder for `rank` of a `size`-rank job with default cost model
    /// and the paper's memory hierarchy.
    pub fn new(rank: Rank, size: usize) -> Self {
        ProgramBuilder::with_cost(
            rank,
            size,
            MsgCostModel::default(),
            MemHierarchy::pentium_m_1400(),
        )
    }

    /// Full-control constructor.
    pub fn with_cost(rank: Rank, size: usize, cost: MsgCostModel, mem: MemHierarchy) -> Self {
        assert!(size > 0, "job needs at least one rank");
        assert!(rank < size, "rank {rank} out of range for size {size}");
        ProgramBuilder {
            rank,
            size,
            cost,
            mem,
            program: Program::default(),
            collective_epoch: 0,
        }
    }

    /// This builder's rank.
    pub(crate) fn rank(&self) -> Rank {
        self.rank
    }

    /// Job size.
    pub(crate) fn size(&self) -> usize {
        self.size
    }

    /// The frequency-scaled (plus DRAM, for large payloads) software cost
    /// of one message end.
    pub(crate) fn msg_cost(&self, bytes: u64) -> WorkUnit {
        let cpu_cycles = self.cost.per_msg_cycles + bytes as f64 * self.cost.cycles_per_byte;
        if bytes > self.cost.dram_copy_threshold {
            // Copies stream through DRAM: one miss per line at each end.
            let lines = bytes as f64 / self.mem.line_bytes as f64;
            WorkUnit {
                cpu_cycles,
                l2_accesses: lines,
                dram_accesses: lines,
            }
        } else {
            WorkUnit::pure_cpu(cpu_cycles)
        }
    }

    /// Append raw compute work.
    pub fn compute(&mut self, work: WorkUnit) -> &mut Self {
        if !work.is_zero() {
            self.push(Op::Compute(work));
        }
        self
    }

    /// Append a blocking send (software cost + wire operation).
    pub fn send(&mut self, dst: Rank, bytes: u64, tag: Tag) -> &mut Self {
        assert!(dst < self.size, "send dst {dst} out of range");
        self.compute(self.msg_cost(bytes));
        self.push(Op::Send { dst, bytes, tag });
        self
    }

    /// Append a blocking receive (wire operation + software cost; the
    /// expected payload size must be supplied to price the receive copy).
    pub fn recv(&mut self, src: Rank, bytes: u64, tag: Tag) -> &mut Self {
        assert!(src < self.size, "recv src {src} out of range");
        self.push(Op::Recv { src, tag });
        self.compute(self.msg_cost(bytes));
        self
    }

    /// Append a simultaneous exchange.
    pub fn sendrecv(
        &mut self,
        dst: Rank,
        send_bytes: u64,
        send_tag: Tag,
        src: Rank,
        recv_bytes: u64,
        recv_tag: Tag,
    ) -> &mut Self {
        assert!(
            dst < self.size && src < self.size,
            "sendrecv peer out of range"
        );
        self.compute(self.msg_cost(send_bytes));
        self.push(Op::SendRecv {
            dst,
            send_bytes,
            send_tag,
            src,
            recv_tag,
        });
        self.compute(self.msg_cost(recv_bytes));
        self
    }

    /// Append a non-blocking send; its software cost is still charged
    /// inline (the copy happens at post time).
    pub(crate) fn isend(&mut self, dst: Rank, bytes: u64, tag: Tag) -> &mut Self {
        assert!(dst < self.size, "isend dst {dst} out of range");
        self.compute(self.msg_cost(bytes));
        self.push(Op::Isend { dst, bytes, tag });
        self
    }

    /// Append a non-blocking receive; the receive-side copy cost is
    /// charged at the matching [`ProgramBuilder::wait_all`].
    pub(crate) fn irecv(&mut self, src: Rank, tag: Tag) -> &mut Self {
        assert!(src < self.size, "irecv src {src} out of range");
        self.push(Op::Irecv { src, tag });
        self
    }

    /// Wait for all outstanding non-blocking operations, charging
    /// `recv_copy_bytes` of receive-side copy cost afterwards (the sum of
    /// the posted irecvs' payloads).
    pub(crate) fn wait_all(&mut self, recv_copy_bytes: u64) -> &mut Self {
        self.push(Op::WaitAll);
        self.compute(self.msg_cost_bytes_only(recv_copy_bytes));
        self
    }

    /// Copy-only cost (no per-message overhead), for aggregate receive
    /// copies after a waitall.
    fn msg_cost_bytes_only(&self, bytes: u64) -> WorkUnit {
        if bytes == 0 {
            return WorkUnit::ZERO;
        }
        let cpu_cycles = bytes as f64 * self.cost.cycles_per_byte;
        if bytes > self.cost.dram_copy_threshold {
            let lines = bytes as f64 / self.mem.line_bytes as f64;
            WorkUnit {
                cpu_cycles,
                l2_accesses: lines,
                dram_accesses: lines,
            }
        } else {
            WorkUnit::pure_cpu(cpu_cycles)
        }
    }

    /// Flood-style all-to-all (how MPI_Alltoall is implemented on fully
    /// connected fabrics): post every irecv and isend at once, then wait.
    /// Contrast with [`ProgramBuilder::alltoall`]'s round-structured
    /// pairwise exchange.
    pub fn alltoall_nonblocking(&mut self, bytes_per_pair: u64) -> &mut Self {
        let n = self.size;
        if n == 1 {
            return self;
        }
        let r = self.rank;
        let tag = self.next_collective_tag();
        // Local block copy.
        self.compute(self.msg_cost(bytes_per_pair));
        for round in 1..n {
            let src = (r + n - round) % n;
            self.irecv(src, tag + round as Tag);
        }
        for round in 1..n {
            let dst = (r + round) % n;
            self.isend(dst, bytes_per_pair, tag + round as Tag);
        }
        self.wait_all(bytes_per_pair * (n as u64 - 1));
        self
    }

    /// Append a DVFS request.
    pub fn set_speed(&mut self, request: AppSpeedRequest) -> &mut Self {
        self.push(Op::SetSpeed(request));
        self
    }

    /// Append a phase-begin marker.
    pub fn phase_begin(&mut self, name: &'static str) -> &mut Self {
        self.push(Op::PhaseBegin(name));
        self
    }

    /// Append a phase-end marker.
    pub fn phase_end(&mut self, name: &'static str) -> &mut Self {
        self.push(Op::PhaseEnd(name));
        self
    }

    /// Fresh tag namespace for one collective instance.
    pub(crate) fn next_collective_tag(&mut self) -> Tag {
        let epoch = self.collective_epoch;
        self.collective_epoch += 1;
        Self::COLLECTIVE_TAG_BASE | (epoch << 8)
    }

    /// Dissemination barrier across all ranks.
    pub fn barrier(&mut self) -> &mut Self {
        collectives::barrier(self);
        self
    }

    /// Binomial-tree broadcast of `bytes` from `root`.
    pub fn bcast(&mut self, root: Rank, bytes: u64) -> &mut Self {
        collectives::bcast(self, root, bytes);
        self
    }

    /// Reduce-then-broadcast allreduce (MPICH-1's algorithm).
    pub fn allreduce(&mut self, bytes: u64) -> &mut Self {
        collectives::reduce(self, 0, bytes);
        collectives::bcast(self, 0, bytes);
        self
    }

    /// Every rank sends `bytes_per_rank` to `root`.
    pub fn gather(&mut self, root: Rank, bytes_per_rank: u64) -> &mut Self {
        collectives::gather(self, root, bytes_per_rank);
        self
    }

    /// Allgather of each rank's `bytes_per_rank` block (recursive doubling
    /// for power-of-two sizes, ring otherwise).
    pub fn allgather(&mut self, bytes_per_rank: u64) -> &mut Self {
        collectives::allgather(self, bytes_per_rank);
        self
    }

    /// Complete exchange: every rank sends `bytes_per_pair` to every other
    /// rank (pairwise-exchange for power-of-two sizes, ring otherwise).
    pub fn alltoall(&mut self, bytes_per_pair: u64) -> &mut Self {
        collectives::alltoall(self, bytes_per_pair);
        self
    }

    /// Finish, yielding the program.
    pub fn build(self) -> Program {
        self.program
    }

    fn push(&mut self, op: Op) {
        self.program.steps.push(Step::Op(op));
    }

    /// Append one rank's part of an all-to-all as a single compact step.
    pub(crate) fn push_alltoall(&mut self, step: AllToAll) {
        let program = &mut self.program;
        #[expect(
            clippy::expect_used,
            reason = "four billion all-to-alls in one program cannot be built in memory anyway"
        )]
        let index = u32::try_from(program.alltoalls.len()).expect("all-to-all count fits u32");
        program.alltoalls.push(step);
        program.steps.push(Step::AllToAll(index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_charges_software_cost_first() {
        let mut b = ProgramBuilder::new(0, 2);
        b.send(1, 1024, 7);
        let p = b.build();
        let ops: Vec<Op> = p.ops().collect();
        assert_eq!(p.len(), 2);
        assert!(matches!(ops[0], Op::Compute(_)));
        assert!(matches!(
            ops[1],
            Op::Send {
                dst: 1,
                bytes: 1024,
                tag: 7
            }
        ));
    }

    #[test]
    fn recv_charges_software_cost_after() {
        let mut b = ProgramBuilder::new(1, 2);
        b.recv(0, 1024, 7);
        let p = b.build();
        let ops: Vec<Op> = p.ops().collect();
        assert!(matches!(ops[0], Op::Recv { src: 0, tag: 7 }));
        assert!(matches!(ops[1], Op::Compute(_)));
    }

    #[test]
    fn large_message_cost_streams_dram() {
        let b = ProgramBuilder::new(0, 2);
        let small = b.msg_cost(4 * 1024);
        let large = b.msg_cost(4 * 1024 * 1024);
        assert_eq!(small.dram_accesses, 0.0);
        assert!(large.dram_accesses > 0.0);
        assert!(large.cpu_cycles > small.cpu_cycles);
    }

    #[test]
    fn a_stored_step_is_no_larger_than_an_op() {
        // The all-to-all index sits in `Op`'s niche, so programs without
        // all-to-alls (the paper grid) do not grow.
        assert_eq!(std::mem::size_of::<Op>(), 40);
        assert!(std::mem::size_of::<Step>() <= 40);
    }

    #[test]
    fn alltoall_is_one_stored_step() {
        let mut b = ProgramBuilder::new(3, 64);
        b.compute(WorkUnit::pure_cpu(10.0)).alltoall(4096);
        let p = b.build();
        assert_eq!(p.stored_steps(), 2);
        assert_eq!(p.len(), 1 + 3 * 64 - 2);
        assert_eq!(p.ops().count(), p.len());
        assert_eq!(p.bytes_sent(), 63 * 4096);
    }

    #[test]
    fn rewrite_keeps_alltoalls_compact() {
        let mut b = ProgramBuilder::new(0, 16);
        b.phase_begin("x").alltoall(100).phase_end("x");
        let p = b.build();
        let speed = Op::SetSpeed(AppSpeedRequest::Lowest);
        let q = p.rewrite(|op, out| {
            out.push(op.clone());
            if matches!(op, Op::PhaseBegin(_)) {
                out.push(speed.clone());
            }
        });
        assert_eq!(q.stored_steps(), p.stored_steps() + 1);
        let mut expect: Vec<Op> = p.ops().collect();
        expect.insert(1, speed);
        assert_eq!(q.ops().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn zero_work_compute_is_elided() {
        let mut b = ProgramBuilder::new(0, 1);
        b.compute(WorkUnit::ZERO);
        assert!(b.build().is_empty());
    }

    #[test]
    fn collective_tags_are_distinct_per_instance() {
        let mut b = ProgramBuilder::new(0, 4);
        let t1 = b.next_collective_tag();
        let t2 = b.next_collective_tag();
        assert_ne!(t1, t2);
        assert!(t1 >= ProgramBuilder::COLLECTIVE_TAG_BASE);
    }

    #[test]
    fn bytes_sent_counts_all_outgoing() {
        let mut b = ProgramBuilder::new(0, 2);
        b.send(1, 100, 1);
        b.sendrecv(1, 200, 2, 1, 300, 3);
        assert_eq!(b.build().bytes_sent(), 300);
    }

    #[test]
    fn isend_charges_cost_and_does_not_block_shape() {
        let mut b = ProgramBuilder::new(0, 2);
        b.isend(1, 2048, 3)
            .compute(WorkUnit::pure_cpu(10.0))
            .wait_all(2048);
        let p = b.build();
        let ops: Vec<Op> = p.ops().collect();
        assert!(matches!(ops[0], Op::Compute(_))); // send-side copy
        assert!(matches!(
            ops[1],
            Op::Isend {
                dst: 1,
                bytes: 2048,
                tag: 3
            }
        ));
        assert!(matches!(ops[3], Op::WaitAll));
        assert!(matches!(ops[4], Op::Compute(_))); // recv-side copy
    }

    #[test]
    fn wait_all_zero_bytes_charges_nothing() {
        let mut b = ProgramBuilder::new(0, 1);
        b.wait_all(0);
        let p = b.build();
        let ops: Vec<Op> = p.ops().collect();
        assert_eq!(p.len(), 1);
        assert!(matches!(ops[0], Op::WaitAll));
    }

    #[test]
    fn nonblocking_alltoall_posts_all_then_waits() {
        let mut b = ProgramBuilder::new(0, 4);
        b.alltoall_nonblocking(1000);
        let p = b.build();
        let irecvs = p.ops().filter(|op| matches!(op, Op::Irecv { .. })).count();
        let isends = p.ops().filter(|op| matches!(op, Op::Isend { .. })).count();
        let waits = p.ops().filter(|op| matches!(op, Op::WaitAll)).count();
        assert_eq!(irecvs, 3);
        assert_eq!(isends, 3);
        assert_eq!(waits, 1);
        // All irecvs precede all isends (posting order avoids unexpected
        // eager buffering in real MPIs; we mirror the idiom).
        let first_isend = p
            .ops()
            .position(|op| matches!(op, Op::Isend { .. }))
            .unwrap();
        let last_irecv = p
            .ops()
            .collect::<Vec<_>>()
            .iter()
            .rposition(|op| matches!(op, Op::Irecv { .. }))
            .unwrap();
        assert!(last_irecv < first_isend);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_unknown_rank_panics() {
        ProgramBuilder::new(0, 2).send(5, 1, 0);
    }

    #[test]
    #[should_panic(expected = "rank 3 out of range")]
    fn builder_rank_must_fit_size() {
        let _ = ProgramBuilder::new(3, 2);
    }
}
