//! Collective algorithms lowered to point-to-point operations.
//!
//! These are the algorithms MPICH-1.2.5 shipped: dissemination barrier,
//! binomial-tree broadcast and reduce, linear gather, and pairwise-exchange
//! (power-of-two) / ring (general) all-to-all. Each function appends the
//! *calling rank's* part of the collective to its [`ProgramBuilder`]; when
//! every rank of the job runs its lowered sequence, the message pattern is
//! exactly the collective's.
//!
//! The all-to-all is the one collective whose per-rank lowering grows
//! with the job (`3n - 2` ops per rank), so it is stored as one compact
//! [`AllToAll`] step and expanded op by op when the program is iterated
//! or executed; the expansion equals the eager lowering op for op.
//!
//! Correctness of the lowering is tested here structurally (per-rank
//! send/recv multisets match across the job, the compact all-to-all
//! against the eager reference) and end-to-end in the engine tests (all
//! lowered collectives complete without deadlock and with the right
//! synchronization semantics).

use mem_model::WorkUnit;

use crate::program::{Op, ProgramBuilder, Rank, Tag};

/// Payload used for barrier notifications (an empty MPI message still
/// carries an envelope on the wire).
const BARRIER_BYTES: u64 = 64;

/// Core cycles to combine one byte in a reduction (sum of doubles: one
/// flop per 8 bytes plus load/store).
const REDUCE_CYCLES_PER_BYTE: f64 = 0.5;

/// Dissemination barrier: ceil(log2 n) rounds; in round `k`, rank `r`
/// sends to `(r + 2^k) mod n` and receives from `(r - 2^k) mod n`.
pub fn barrier(b: &mut ProgramBuilder) {
    let n = b.size();
    if n == 1 {
        return;
    }
    let r = b.rank();
    let tag = b.next_collective_tag();
    let mut k = 0u32;
    while (1usize << k) < n {
        let dist = 1usize << k;
        let dst = (r + dist) % n;
        let src = (r + n - dist) % n;
        b.sendrecv(dst, BARRIER_BYTES, tag + k, src, BARRIER_BYTES, tag + k);
        k += 1;
    }
}

/// Binomial-tree broadcast of `bytes` from `root`.
pub fn bcast(b: &mut ProgramBuilder, root: Rank, bytes: u64) {
    let n = b.size();
    assert!(root < n, "bcast root out of range");
    if n == 1 {
        return;
    }
    let tag = b.next_collective_tag();
    let relative = (b.rank() + n - root) % n;
    let abs = |rel: usize| (rel + root) % n;

    // Receive phase: a non-root rank receives from the rank that differs
    // in its lowest set bit.
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            b.recv(abs(relative - mask), bytes, tag);
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward down the subtree. A rank's children are at
    // offsets equal to every bit below the one it received at (all of
    // which are clear in `relative`, its lowest set bit being the
    // receive bit).
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n && relative & mask == 0 {
            b.send(abs(relative + mask), bytes, tag);
        }
        mask >>= 1;
    }
}

/// Binomial-tree reduction of `bytes` to `root`; each merge charges the
/// combine cost as compute.
pub fn reduce(b: &mut ProgramBuilder, root: Rank, bytes: u64) {
    let n = b.size();
    assert!(root < n, "reduce root out of range");
    if n == 1 {
        return;
    }
    let tag = b.next_collective_tag();
    let relative = (b.rank() + n - root) % n;
    let abs = |rel: usize| (rel + root) % n;

    let mut mask = 1usize;
    while mask < n {
        if relative & mask == 0 {
            let peer = relative | mask;
            if peer < n {
                b.recv(abs(peer), bytes, tag);
                b.compute(WorkUnit::pure_cpu(bytes as f64 * REDUCE_CYCLES_PER_BYTE));
            }
        } else {
            b.send(abs(relative - mask), bytes, tag);
            break;
        }
        mask <<= 1;
    }
}

/// Linear gather: every non-root rank sends `bytes` to `root`; the root
/// receives from every other rank in rank order.
pub fn gather(b: &mut ProgramBuilder, root: Rank, bytes: u64) {
    let n = b.size();
    assert!(root < n, "gather root out of range");
    if n == 1 {
        return;
    }
    let tag = b.next_collective_tag();
    if b.rank() == root {
        for src in 0..n {
            if src != root {
                b.recv(src, bytes, tag);
            }
        }
    } else {
        b.send(root, bytes, tag);
    }
}

/// Binomial-tree scatter: the root starts holding `bytes_per_rank` for
/// every rank and forwards each subtree's share down the same tree
/// broadcast uses — so the payload halves at every level.
pub fn scatter(b: &mut ProgramBuilder, root: Rank, bytes_per_rank: u64) {
    let n = b.size();
    assert!(root < n, "scatter root out of range");
    if n == 1 {
        return;
    }
    let tag = b.next_collective_tag();
    let relative = (b.rank() + n - root) % n;
    let abs = |rel: usize| (rel + root) % n;
    // Subtree rooted at `rel` when entered via bit `mask` spans
    // min(mask, n - rel) ranks.
    let subtree = |rel: usize, mask: usize| mask.min(n - rel) as u64;

    // Receive this rank's subtree payload from the parent.
    let mut mask = 1usize;
    while mask < n {
        if relative & mask != 0 {
            let payload = subtree(relative, mask) * bytes_per_rank;
            b.recv(abs(relative - mask), payload, tag);
            break;
        }
        mask <<= 1;
    }
    // Forward children's shares.
    mask >>= 1;
    while mask > 0 {
        if relative + mask < n && relative & mask == 0 {
            let payload = subtree(relative + mask, mask) * bytes_per_rank;
            b.send(abs(relative + mask), payload, tag);
        }
        mask >>= 1;
    }
}

/// Allgather: recursive doubling for power-of-two sizes (round `k`
/// exchanges `2^k · bytes` with `rank XOR 2^k`), ring otherwise
/// (`n-1` rounds passing one block to the right neighbour).
pub fn allgather(b: &mut ProgramBuilder, bytes_per_rank: u64) {
    let n = b.size();
    if n == 1 {
        return;
    }
    let r = b.rank();
    let tag = b.next_collective_tag();
    if n.is_power_of_two() {
        let mut k = 0u32;
        while (1usize << k) < n {
            let dist = 1usize << k;
            let partner = r ^ dist;
            let payload = dist as u64 * bytes_per_rank;
            b.sendrecv(partner, payload, tag + k, partner, payload, tag + k);
            k += 1;
        }
    } else {
        let dst = (r + 1) % n;
        let src = (r + n - 1) % n;
        for round in 0..(n - 1) as u32 {
            b.sendrecv(
                dst,
                bytes_per_rank,
                tag + round,
                src,
                bytes_per_rank,
                tag + round,
            );
        }
    }
}

/// Complete exchange of `bytes_per_pair` between every rank pair.
///
/// Power-of-two sizes use pairwise exchange (round `r`: partner =
/// `rank XOR r`, perfectly disjoint pairs that saturate every link's full
/// duplex); other sizes use the ring schedule (round `r`: send to
/// `rank + r`, receive from `rank - r`). The rank-to-self block is a local
/// copy and charges only its copy cost. The rank's part is stored as one
/// [`AllToAll`] step.
pub fn alltoall(b: &mut ProgramBuilder, bytes_per_pair: u64) {
    let n = b.size();
    if n == 1 {
        return;
    }
    let tag = b.next_collective_tag();
    b.push_alltoall(AllToAll {
        rank: b.rank(),
        size: n,
        bytes_per_pair,
        tag,
        cost: b.msg_cost(bytes_per_pair),
    });
}

/// One rank's part of an [`alltoall`], kept as a single program step.
///
/// Expanded, it is the local-copy `Compute(cost)` followed, for each
/// round `1..size`, by `Compute(cost)`, the round's `SendRecv` (tag
/// `tag + round`) and `Compute(cost)` — the send copy, the exchange and
/// the receive copy. A zero `cost` drops every `Compute`, as
/// [`ProgramBuilder::compute`] does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AllToAll {
    rank: Rank,
    size: usize,
    bytes_per_pair: u64,
    /// Base tag; round `r` uses `tag + r`.
    tag: Tag,
    /// Software cost of one message end ([`ProgramBuilder::msg_cost`]).
    cost: WorkUnit,
}

impl AllToAll {
    /// Number of ops the step expands to.
    pub(crate) fn len(&self) -> usize {
        if self.cost.is_zero() {
            self.size - 1
        } else {
            3 * self.size - 2
        }
    }

    /// Payload bytes this rank sends.
    pub(crate) fn bytes_sent(&self) -> u64 {
        self.bytes_per_pair * (self.size as u64 - 1)
    }

    /// The `k`-th expanded op, `k < len()`.
    #[inline]
    pub(crate) fn op(&self, k: usize) -> Op {
        // Position in the full pattern: the local copy, then three ops
        // per round. Without a cost only the exchanges remain.
        let k = if self.cost.is_zero() { 3 * k + 2 } else { k };
        if k == 0 || (k - 1) % 3 != 1 {
            return Op::Compute(self.cost);
        }
        self.exchange((k - 1) / 3 + 1)
    }

    /// Call `f` on every expanded op in order: what `op(0..len())`
    /// gives, without the per-op position arithmetic.
    pub(crate) fn for_each_op(&self, mut f: impl FnMut(&Op)) {
        let copy = Op::Compute(self.cost);
        if self.cost.is_zero() {
            for round in 1..self.size {
                f(&self.exchange(round));
            }
            return;
        }
        f(&copy);
        for round in 1..self.size {
            f(&copy);
            f(&self.exchange(round));
            f(&copy);
        }
    }

    /// Round `round`'s exchange.
    #[inline]
    fn exchange(&self, round: usize) -> Op {
        let (n, r) = (self.size, self.rank);
        let (dst, src) = if n.is_power_of_two() {
            (r ^ round, r ^ round)
        } else {
            ((r + round) % n, (r + n - round) % n)
        };
        let tag = self.tag + round as Tag;
        Op::SendRecv {
            dst,
            send_bytes: self.bytes_per_pair,
            send_tag: tag,
            src,
            recv_tag: tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsgCostModel;
    use crate::program::Program;
    use mem_model::MemHierarchy;

    /// The eager lowering [`alltoall`] replaced: the local copy, then one
    /// `Compute, SendRecv, Compute` triple per round. The reference the
    /// compact step must expand to.
    fn alltoall_eager(b: &mut ProgramBuilder, bytes_per_pair: u64) {
        let n = b.size();
        if n == 1 {
            return;
        }
        let r = b.rank();
        let tag = b.next_collective_tag();
        b.compute(b.msg_cost(bytes_per_pair));
        for round in 1..n {
            let (dst, src) = if n.is_power_of_two() {
                (r ^ round, r ^ round)
            } else {
                ((r + round) % n, (r + n - round) % n)
            };
            let t = tag + round as Tag;
            b.sendrecv(dst, bytes_per_pair, t, src, bytes_per_pair, t);
        }
    }

    #[test]
    fn compact_alltoall_expands_to_the_eager_lowering() {
        // A zero-cost model drops every `Compute` of a small exchange; a
        // payload past the DRAM threshold keeps them (copy stalls).
        let zero = MsgCostModel {
            per_msg_cycles: 0.0,
            cycles_per_byte: 0.0,
            ..MsgCostModel::default()
        };
        for cost in [MsgCostModel::default(), zero] {
            for n in [1usize, 2, 3, 5, 8, 15, 16, 33, 64] {
                for rank in 0..n {
                    let build = |all: fn(&mut ProgramBuilder, u64)| {
                        let mut b = ProgramBuilder::with_cost(
                            rank,
                            n,
                            cost.clone(),
                            MemHierarchy::pentium_m_1400(),
                        );
                        b.phase_begin("exchange");
                        all(&mut b, 4096);
                        b.barrier();
                        all(&mut b, 1 << 20);
                        b.phase_end("exchange");
                        b.build()
                    };
                    let compact = build(alltoall);
                    let eager = build(alltoall_eager);
                    let expanded: Vec<Op> = compact.ops().collect();
                    assert_eq!(
                        expanded,
                        eager.ops().collect::<Vec<_>>(),
                        "n={n} rank={rank}"
                    );
                    let mut visited = Vec::new();
                    compact.for_each_op(|op| visited.push(op.clone()));
                    assert_eq!(visited, expanded, "n={n} rank={rank}");
                    assert_eq!(compact.len(), eager.len(), "n={n} rank={rank}");
                    assert_eq!(compact.ops().len(), expanded.len(), "n={n} rank={rank}");
                    assert_eq!(
                        compact.bytes_sent(),
                        eager.bytes_sent(),
                        "n={n} rank={rank}"
                    );
                }
            }
        }
    }

    /// Build all ranks' programs for a closure over the builder.
    fn lower_all(n: usize, f: impl Fn(&mut ProgramBuilder)) -> Vec<Program> {
        (0..n)
            .map(|r| {
                let mut b = ProgramBuilder::new(r, n);
                f(&mut b);
                b.build()
            })
            .collect()
    }

    /// Collect (src, dst, tag, bytes) for every send and the matching
    /// multiset for every recv across the job; they must be identical for
    /// the pattern to complete.
    type Sends = Vec<(usize, usize, Tag, u64)>;
    type Recvs = Vec<(usize, usize, Tag)>;

    fn matched_sends_recvs(programs: &[Program]) -> (Sends, Recvs) {
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (rank, p) in programs.iter().enumerate() {
            for op in p.ops() {
                match op {
                    Op::Send { dst, bytes, tag } => sends.push((rank, dst, tag, bytes)),
                    Op::Recv { src, tag } => recvs.push((src, rank, tag)),
                    Op::SendRecv {
                        dst,
                        send_bytes,
                        send_tag,
                        src,
                        recv_tag,
                    } => {
                        sends.push((rank, dst, send_tag, send_bytes));
                        recvs.push((src, rank, recv_tag));
                    }
                    _ => {}
                }
            }
        }
        (sends, recvs)
    }

    fn assert_pattern_closed(programs: &[Program]) {
        let (sends, recvs) = matched_sends_recvs(programs);
        let mut s: Vec<(usize, usize, Tag)> = sends.iter().map(|&(a, b, t, _)| (a, b, t)).collect();
        let mut r = recvs.clone();
        s.sort_unstable();
        r.sort_unstable();
        assert_eq!(s, r, "every send needs exactly one matching recv");
    }

    #[test]
    fn barrier_pattern_is_closed_for_all_sizes() {
        for n in 1..=9 {
            assert_pattern_closed(&lower_all(n, |b| {
                barrier(b);
            }));
        }
    }

    #[test]
    fn barrier_rounds_are_logarithmic() {
        let p = lower_all(8, |b| {
            barrier(b);
        });
        let exchanges = p[0]
            .ops()
            .filter(|op| matches!(op, Op::SendRecv { .. }))
            .count();
        assert_eq!(exchanges, 3); // log2(8)
    }

    #[test]
    fn bcast_pattern_is_closed_for_all_sizes_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                assert_pattern_closed(&lower_all(n, |b| {
                    bcast(b, root, 4096);
                }));
            }
        }
    }

    #[test]
    fn bcast_root_only_sends_leaf_only_receives() {
        let p = lower_all(8, |b| {
            bcast(b, 2, 100);
        });
        assert!(!p[2].ops().any(|op| matches!(op, Op::Recv { .. })));
        // Rank (2+7)%8 = 1 is the deepest leaf: receives once, sends never.
        assert!(!p[1].ops().any(|op| matches!(op, Op::Send { .. })));
    }

    #[test]
    fn reduce_pattern_is_closed_for_all_sizes_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                assert_pattern_closed(&lower_all(n, |b| {
                    reduce(b, root, 4096);
                }));
            }
        }
    }

    #[test]
    fn reduce_charges_combine_work_at_receivers() {
        let p = lower_all(4, |b| {
            reduce(b, 0, 8000);
        });
        // Root merges log2(4) = 2 partial results.
        let computes = p[0].ops().filter(|op| matches!(op, Op::Compute(_))).count();
        // recv cost + combine per merge = 2 computes per merge.
        assert_eq!(computes, 4);
    }

    #[test]
    fn gather_pattern_is_closed() {
        for n in 2..=6 {
            assert_pattern_closed(&lower_all(n, |b| {
                gather(b, 0, 1024);
            }));
        }
    }

    #[test]
    fn gather_root_receives_n_minus_one() {
        let p = lower_all(15, |b| {
            gather(b, 0, 1024);
        });
        let recvs = p[0]
            .ops()
            .filter(|op| matches!(op, Op::Recv { .. }))
            .count();
        assert_eq!(recvs, 14);
    }

    #[test]
    fn scatter_pattern_is_closed_for_all_sizes_and_roots() {
        for n in 1..=9 {
            for root in 0..n {
                assert_pattern_closed(&lower_all(n, |b| {
                    scatter(b, root, 1000);
                }));
            }
        }
    }

    #[test]
    fn scatter_volume_halves_down_the_tree() {
        let p = lower_all(8, |b| {
            scatter(b, 0, 100);
        });
        // Root sends subtree shares: 4, 2, 1 ranks worth.
        let root_sends: Vec<u64> = p[0]
            .ops()
            .filter_map(|op| match op {
                Op::Send { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(root_sends, vec![400, 200, 100]);
        // The deepest leaf receives exactly its own share.
        let leaf_recv_cost: Vec<Op> = p[7]
            .ops()
            .filter(|op| matches!(op, Op::Recv { .. }))
            .collect();
        assert_eq!(leaf_recv_cost.len(), 1);
    }

    #[test]
    fn scatter_non_pow2_total_volume_conserved() {
        // Across all ranks, received payload must equal (n-1) own shares
        // plus forwarded subtree traffic; check sends == recvs by bytes.
        for n in [3usize, 5, 6, 7] {
            let p = lower_all(n, |b| {
                scatter(b, 0, 10);
            });
            let (sends, _recvs) = matched_sends_recvs(&p);
            let sent: u64 = sends.iter().map(|&(_, _, _, b)| b).sum();
            // Every non-root rank's subtree share crosses exactly one link
            // on its way down, so total bytes = sum of subtree sizes at
            // each transfer >= (n-1) shares.
            assert!(sent >= (n as u64 - 1) * 10, "n={n}: sent {sent}");
        }
    }

    #[test]
    fn allgather_pattern_is_closed_pow2_and_ring() {
        for n in [1usize, 2, 4, 8, 3, 5, 15] {
            assert_pattern_closed(&lower_all(n, |b| {
                allgather(b, 4096);
            }));
        }
    }

    #[test]
    fn allgather_recursive_doubling_volume() {
        let p = lower_all(8, |b| {
            allgather(b, 100);
        });
        // Each rank sends 100 + 200 + 400 = (n-1)*100 bytes total.
        assert_eq!(p[0].bytes_sent(), 700);
        let rounds = p[0]
            .ops()
            .filter(|op| matches!(op, Op::SendRecv { .. }))
            .count();
        assert_eq!(rounds, 3);
    }

    #[test]
    fn allgather_ring_takes_n_minus_one_rounds() {
        let p = lower_all(5, |b| {
            allgather(b, 100);
        });
        let rounds = p[2]
            .ops()
            .filter(|op| matches!(op, Op::SendRecv { .. }))
            .count();
        assert_eq!(rounds, 4);
        assert_eq!(p[2].bytes_sent(), 400);
    }

    #[test]
    fn alltoall_pattern_is_closed_pow2_and_ring() {
        for n in [2usize, 4, 8, 3, 5, 15] {
            assert_pattern_closed(&lower_all(n, |b| {
                alltoall(b, 4096);
            }));
        }
    }

    #[test]
    fn alltoall_pow2_uses_disjoint_pairs() {
        // In each round of the XOR schedule, partners are symmetric:
        // partner(partner(r)) == r.
        for n in [2usize, 4, 8, 16] {
            for round in 1..n {
                for r in 0..n {
                    assert_eq!((r ^ round) ^ round, r);
                    assert!(r ^ round < n);
                }
            }
        }
    }

    #[test]
    fn alltoall_exchanges_with_every_peer_exactly_once() {
        let p = lower_all(8, |b| {
            alltoall(b, 10);
        });
        for (rank, prog) in p.iter().enumerate() {
            let mut partners: Vec<usize> = prog
                .ops()
                .filter_map(|op| match op {
                    Op::SendRecv { dst, .. } => Some(dst),
                    _ => None,
                })
                .collect();
            partners.sort_unstable();
            let expect: Vec<usize> = (0..8).filter(|&x| x != rank).collect();
            assert_eq!(partners, expect);
        }
    }

    #[test]
    fn single_rank_collectives_are_empty_or_local() {
        let p = lower_all(1, |b| {
            barrier(b);
            bcast(b, 0, 100);
            reduce(b, 0, 100);
            gather(b, 0, 100);
        });
        assert!(p[0].is_empty());
    }
}
