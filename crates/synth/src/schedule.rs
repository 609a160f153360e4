//! Resource-constrained list scheduling of one DFG.
//!
//! The scheduler models Monet's documented behaviour: operations start as
//! soon as possible (ASAP), memory accesses contend for their memory's
//! single port, and reads are scheduled before writes. By default
//! datapath operators are unconstrained during scheduling; *allocation*
//! then derives the number of operator instances from the maximum
//! concurrency the schedule exhibits — behavioral synthesis shares
//! operators across cycles (and, in the estimator, across code
//! segments). With designer [`ResourceConstraints`] (paper §2.3) the
//! bounded classes serialize onto their units instead.

use crate::constraints::ResourceConstraints;
use crate::dfg::{Dfg, NodeId};
use crate::memory::MemoryModel;
use crate::oplib::{op_spec, HwOp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ready-list ordering policy.
///
/// Monet schedules ASAP (the default and the paper's model). The
/// slack-driven policy is the textbook list-scheduling refinement: under
/// designer operator bounds it starts critical-path operations first,
/// often shortening the constrained schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ListPriority {
    /// First-ready-first (ties by reads-before-writes, then node id) —
    /// Monet's documented behaviour.
    #[default]
    Asap,
    /// Least-slack-first (critical path operations ahead of slack ones).
    Slack,
}

/// Peak/total usage of one operator class at one width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpUsage {
    /// Maximum instances active in any single cycle (the allocation).
    pub max_concurrent: u32,
    /// Total operation instances bound to this class (drives multiplexing
    /// overhead when shared).
    pub total_uses: u32,
}

/// The result of scheduling one segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    /// Cycles until every node has finished.
    pub length: u64,
    /// Start cycle per node (indexed by `NodeId`).
    pub start: Vec<u64>,
    /// Finish cycle per node.
    pub finish: Vec<u64>,
    /// Port-occupancy cycles per memory bank.
    pub mem_busy_per_bank: Vec<u64>,
    /// Memory-limited time: the maximum bank occupancy (`F`'s
    /// denominator).
    pub t_mem: u64,
    /// Compute-limited time: the longest chain of operator latencies
    /// (`C`'s denominator).
    pub t_comp: u64,
    /// Bits moved to/from memory.
    pub bits_transferred: u64,
    /// Number of read accesses.
    pub reads: usize,
    /// Number of write accesses.
    pub writes: usize,
    /// Operator usage per (class, width).
    pub op_usage: HashMap<(HwOp, u32), OpUsage>,
}

/// Schedule `dfg` against `mem` with unbounded datapath operators.
///
/// Deterministic: ties break on node id. Nodes are visited in a
/// topological order prioritized by (ASAP time, reads-before-writes,
/// id).
pub fn schedule_dfg(dfg: &Dfg, mem: &MemoryModel) -> Schedule {
    schedule_dfg_constrained(dfg, mem, &ResourceConstraints::new())
}

/// Schedule `dfg` against `mem` under designer resource constraints
/// (paper §2.3): operator classes with a bound serialize onto that many
/// units, lengthening the schedule but capping the allocation.
pub fn schedule_dfg_constrained(
    dfg: &Dfg,
    mem: &MemoryModel,
    constraints: &ResourceConstraints,
) -> Schedule {
    schedule_dfg_prioritized(dfg, mem, constraints, ListPriority::Asap)
}

/// The most general scheduling entry point: resource constraints plus a
/// ready-list priority policy. Schedules `dfg` as built, the identity
/// view of the estimator's flag-annotated graphs.
pub fn schedule_dfg_prioritized(
    dfg: &Dfg,
    mem: &MemoryModel,
    constraints: &ResourceConstraints,
    priority: ListPriority,
) -> Schedule {
    schedule_nodes(&dfg.resolve(mem), mem, constraints, priority)
}

/// What a node does, as far as scheduling and allocation care: one
/// view of a DFG node, with arrays numbered.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    Source,
    /// Loads of the same `(array, bank, word)` share one fetch.
    Load {
        array: u32,
        bank: usize,
        bits: u32,
        word: i64,
    },
    Store {
        bank: usize,
        bits: u32,
    },
    Op {
        op: HwOp,
        bits: u32,
    },
    Rotate,
}

/// A DFG node resolved for one schedule: its predecessors, its step and
/// the latency that step takes against the memory model.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SchedNode<'g> {
    pub preds: &'g [NodeId],
    pub step: Step,
    pub latency: u64,
}

impl<'g> SchedNode<'g> {
    pub(crate) fn new(preds: &'g [NodeId], step: Step, mem: &MemoryModel) -> SchedNode<'g> {
        let latency = match step {
            Step::Load { .. } => mem.read_latency as u64,
            Step::Store { .. } => mem.write_latency as u64,
            Step::Op { op, bits } => op_spec(op, bits).latency as u64,
            Step::Rotate => 1,
            Step::Source => 0,
        };
        SchedNode {
            preds,
            step,
            latency,
        }
    }

    /// Latency on the compute critical path: operators only.
    fn op_latency(&self) -> u64 {
        match self.step {
            Step::Op { .. } => self.latency,
            _ => 0,
        }
    }
}

/// The list scheduler over resolved nodes (in topological order).
pub(crate) fn schedule_nodes(
    nodes: &[SchedNode<'_>],
    mem: &MemoryModel,
    constraints: &ResourceConstraints,
    priority: ListPriority,
) -> Schedule {
    let n = nodes.len();
    let mut sched = Schedule {
        start: vec![0; n],
        finish: vec![0; n],
        mem_busy_per_bank: vec![0; mem.num_memories.max(1)],
        ..Schedule::default()
    };
    if n == 0 {
        return sched;
    }

    // Unconstrained ASAP levels for priority.
    let mut asap = vec![0u64; n];
    for (i, node) in nodes.iter().enumerate() {
        asap[i] = node
            .preds
            .iter()
            .map(|p| asap[p.0] + nodes[p.0].latency)
            .max()
            .unwrap_or(0);
    }

    // Slack = ALAP − ASAP: the scheduling freedom of each node. The
    // reverse longest path gives ALAP against the unconstrained critical
    // path length.
    let slack: Vec<u64> = match priority {
        ListPriority::Asap => Vec::new(),
        ListPriority::Slack => {
            let total = (0..n)
                .map(|i| asap[i] + nodes[i].latency)
                .max()
                .unwrap_or(0);
            let mut tail = vec![0u64; n]; // longest path from node to a sink
            for (i, node) in nodes.iter().enumerate().rev() {
                // Successor tails were already computed (reverse order of a
                // topologically ordered node list).
                for p in node.preds {
                    tail[p.0] = tail[p.0].max(tail[i] + node.latency);
                }
            }
            (0..n)
                .map(|i| {
                    let alap = total.saturating_sub(tail[i] + nodes[i].latency);
                    alap.saturating_sub(asap[i])
                })
                .collect()
        }
    };

    // Kahn's algorithm with a priority heap; successors stored flat.
    let mut indeg = vec![0usize; n];
    let mut succ_ends = vec![0usize; n];
    for node in nodes {
        for p in node.preds {
            succ_ends[p.0] += 1;
        }
    }
    for i in 1..n {
        succ_ends[i] += succ_ends[i - 1];
    }
    let mut succs = vec![0usize; succ_ends[n - 1]];
    let mut fill: Vec<usize> = (0..n)
        .map(|i| if i == 0 { 0 } else { succ_ends[i - 1] })
        .collect();
    for (i, node) in nodes.iter().enumerate() {
        indeg[i] = node.preds.len();
        for p in node.preds {
            succs[fill[p.0]] = i;
            fill[p.0] += 1;
        }
    }
    // Max-heap: invert ordering (smallest ASAP first, reads before
    // writes, then id).
    #[derive(PartialEq, Eq)]
    struct Prio(u64, u8, usize);
    impl Ord for Prio {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .cmp(&self.0)
                .then(other.1.cmp(&self.1))
                .then(other.2.cmp(&self.2))
        }
    }
    impl PartialOrd for Prio {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let key = |id: usize| -> Prio {
        let class = matches!(nodes[id].step, Step::Store { .. }) as u8;
        match priority {
            ListPriority::Asap => Prio(asap[id], class, id),
            ListPriority::Slack => Prio(slack[id], class, id),
        }
    };
    let mut heap: BinaryHeap<Prio> = (0..n).filter(|&i| indeg[i] == 0).map(key).collect();

    let mut bank_free: Vec<u64> = vec![0; mem.num_memories.max(1)];
    // Packed-word fetches already issued: (array, bank, word) → the
    // fetch's start cycle. Follow-up loads of the same word ride along
    // without occupying the port again.
    let mut fetched_words: HashMap<(u32, usize, i64), u64> = HashMap::new();
    // Bounded operator classes: a min-heap of unit-free times per class.
    let mut unit_pools: HashMap<HwOp, BinaryHeap<Reverse<u64>>> = HashMap::new();
    for (op, units) in constraints.iter() {
        let mut pool = BinaryHeap::with_capacity(units as usize);
        for _ in 0..units {
            pool.push(Reverse(0u64));
        }
        unit_pools.insert(op, pool);
    }
    while let Some(Prio(_, _, id)) = heap.pop() {
        let node = &nodes[id];
        let data_ready = node
            .preds
            .iter()
            .map(|p| sched.finish[p.0])
            .max()
            .unwrap_or(0);
        let (start, fin) = match node.step {
            Step::Load {
                array,
                bank,
                bits,
                word,
            } => {
                let bank = bank % bank_free.len();
                match fetched_words.get(&(array, bank, word)) {
                    // The word is already being fetched: ride along.
                    Some(&fetch_start) => {
                        let start = data_ready.max(fetch_start);
                        (start, fetch_start.max(start) + node.latency)
                    }
                    None => {
                        let start = data_ready.max(bank_free[bank]);
                        bank_free[bank] = start + mem.read_occupancy() as u64;
                        sched.mem_busy_per_bank[bank] += mem.read_occupancy() as u64;
                        sched.bits_transferred += bits as u64;
                        sched.reads += 1;
                        fetched_words.insert((array, bank, word), start);
                        (start, start + node.latency)
                    }
                }
            }
            Step::Store { bank, bits } => {
                let bank = bank % bank_free.len();
                let start = data_ready.max(bank_free[bank]);
                bank_free[bank] = start + mem.write_occupancy() as u64;
                sched.mem_busy_per_bank[bank] += mem.write_occupancy() as u64;
                sched.bits_transferred += bits as u64;
                sched.writes += 1;
                (start, start + node.latency)
            }
            Step::Op { op, .. } => match unit_pools.get_mut(&op) {
                Some(pool) => {
                    let Reverse(unit_free) = pool.pop().expect("pool non-empty");
                    let start = data_ready.max(unit_free);
                    // A unit is occupied for at least one cycle even
                    // for combinational (0-latency) classes.
                    pool.push(Reverse(start + node.latency.max(1)));
                    (start, start + node.latency)
                }
                None => (data_ready, data_ready + node.latency),
            },
            Step::Rotate => (data_ready, data_ready + node.latency),
            Step::Source => (0, 0),
        };
        sched.start[id] = start;
        sched.finish[id] = fin;
        sched.length = sched.length.max(fin);
        let first = if id == 0 { 0 } else { succ_ends[id - 1] };
        for &s in &succs[first..succ_ends[id]] {
            indeg[s] -= 1;
            if indeg[s] == 0 {
                heap.push(key(s));
            }
        }
    }

    sched.t_mem = sched.mem_busy_per_bank.iter().copied().max().unwrap_or(0);
    sched.t_comp = compute_critical_path(nodes);
    sched.op_usage = allocate(
        nodes
            .iter()
            .enumerate()
            .filter_map(|(i, node)| match node.step {
                Step::Op { op, bits } => Some((i, op, bits)),
                _ => None,
            }),
        &sched.start,
        &sched.finish,
    );
    sched
}

/// Longest chain of operator latencies through the graph (memory and
/// rotation nodes contribute zero) — the "computational delay" of the
/// balance metric's consumption rate.
fn compute_critical_path(nodes: &[SchedNode<'_>]) -> u64 {
    let mut cpl = vec![0u64; nodes.len()];
    let mut best = 0;
    for (i, node) in nodes.iter().enumerate() {
        let pred_max = node.preds.iter().map(|p| cpl[p.0]).max().unwrap_or(0);
        cpl[i] = pred_max + node.op_latency();
        best = best.max(cpl[i]);
    }
    best
}

/// Derive operator allocation from schedule concurrency: `ops` are the
/// operator nodes as `(node index, class, width)`, timed by `start` and
/// `finish`.
pub(crate) fn allocate(
    ops: impl Iterator<Item = (usize, HwOp, u32)>,
    start: &[u64],
    finish: &[u64],
) -> HashMap<(HwOp, u32), OpUsage> {
    // Sweep-line concurrency per (op, width).
    let mut events: HashMap<(HwOp, u32), Vec<(u64, i64)>> = HashMap::new();
    for (i, op, bits) in ops {
        let s = start[i];
        // Zero-latency units still occupy their wiring for the cycle.
        let f = finish[i].max(s + 1);
        let ev = events.entry((op, bits)).or_default();
        ev.push((s, 1));
        ev.push((f, -1));
    }
    let mut usage = HashMap::new();
    for ((op, bits), mut ev) in events {
        ev.sort();
        let mut cur = 0i64;
        let mut peak = 0i64;
        let mut total = 0u32;
        for (_, d) in ev {
            cur += d;
            peak = peak.max(cur);
            if d > 0 {
                total += 1;
            }
        }
        usage.insert(
            (op, bits),
            OpUsage {
                max_concurrent: peak as u32,
                total_uses: total,
            },
        );
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::build_dfg;
    use defacto_ir::parse_kernel;
    use defacto_xform::assign_memories;

    fn sched_for(src: &str, mem: &MemoryModel, banks: usize) -> Schedule {
        let k = parse_kernel(src).unwrap();
        let binding = assign_memories(&k, banks);
        let nest = k.perfect_nest().unwrap();
        let dfg = build_dfg(nest.innermost_body(), &k, &binding);
        schedule_dfg(&dfg, mem)
    }

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn fir_body_pipelined() {
        let s = sched_for(FIR, &MemoryModel::pipelined(4), 4);
        // Load (1 cycle) → 32-bit mul (2) → add (1) → store (1): length 5
        // when the three loads issue in parallel on distinct banks.
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 1);
        assert_eq!(s.length, 5);
        assert_eq!(s.t_comp, 3); // mul(2) + add(1)
        assert!(s.t_mem <= 2); // ≤ 2 accesses per bank
        assert_eq!(s.bits_transferred, 4 * 32);
    }

    #[test]
    fn single_memory_serializes_accesses() {
        let p4 = sched_for(FIR, &MemoryModel::pipelined(4), 4);
        let p1 = sched_for(FIR, &MemoryModel::pipelined(1), 1);
        assert!(p1.t_mem > p4.t_mem);
        assert!(p1.length >= p4.length);
        assert_eq!(p1.t_mem, 4); // 4 accesses × 1 cycle on one port
    }

    #[test]
    fn non_pipelined_occupancy() {
        let s = sched_for(FIR, &MemoryModel::non_pipelined(4), 4);
        // Each read occupies its bank for 7 cycles.
        assert!(s.t_mem >= 7);
        assert!(s.length >= 7);
    }

    #[test]
    fn reads_preferred_over_writes() {
        // Two independent accesses to one bank: the read goes first even
        // though the store's value is ready immediately.
        let s = sched_for(
            "kernel rw { in A: i32[8]; out B: i32[8]; out Cc: i32[8]; var t: i32;
               for i in 0..8 {
                 B[i] = 7;
                 t = A[i] + 1;
                 Cc[i] = t;
               } }",
            &MemoryModel::pipelined(1),
            1,
        );
        let _ = s;
        // All three accesses share bank 0; the read must be scheduled at
        // cycle 0.
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.t_mem, 3);
    }

    #[test]
    fn allocation_counts_concurrency() {
        // Four independent multiplies: with parallel data they all start
        // at the same cycle → allocation of 4 multipliers.
        let s = sched_for(
            "kernel m4 { in A: i32[8]; in B: i32[8]; out C: i32[4];
               for i in 0..1 {
                 C[0] = A[0] * B[0];
                 C[1] = A[1] * B[1];
                 C[2] = A[2] * B[2];
                 C[3] = A[3] * B[3];
               } }",
            &MemoryModel::pipelined(4),
            4,
        );
        let mul = s.op_usage.get(&(HwOp::Mul, 32)).copied().unwrap();
        assert_eq!(mul.total_uses, 4);
        assert!(mul.max_concurrent >= 2);
        assert!(mul.max_concurrent <= 4);
    }

    #[test]
    fn empty_graph() {
        let dfg = Dfg::default();
        let s = schedule_dfg(&dfg, &MemoryModel::pipelined(4));
        assert_eq!(s.length, 0);
        assert_eq!(s.t_mem, 0);
        assert_eq!(s.t_comp, 0);
    }

    #[test]
    fn schedule_is_deterministic() {
        let a = sched_for(FIR, &MemoryModel::pipelined(4), 4);
        let b = sched_for(FIR, &MemoryModel::pipelined(4), 4);
        assert_eq!(a, b);
    }

    const M4: &str = "kernel m4 { in A: i32[8]; in B: i32[8]; out C: i32[4];
       for i in 0..1 {
         C[0] = A[0] * B[0];
         C[1] = A[1] * B[1];
         C[2] = A[2] * B[2];
         C[3] = A[3] * B[3];
       } }";

    fn constrained_sched(src: &str, c: &ResourceConstraints) -> Schedule {
        let k = defacto_ir::parse_kernel(src).unwrap();
        let binding = defacto_xform::assign_memories(&k, 4);
        let nest = k.perfect_nest().unwrap();
        let dfg = crate::dfg::build_dfg(nest.innermost_body(), &k, &binding);
        schedule_dfg_constrained(&dfg, &MemoryModel::pipelined(4), c)
    }

    #[test]
    fn multiplier_limit_serializes_and_caps_allocation() {
        let free = constrained_sched(M4, &ResourceConstraints::new());
        let one = constrained_sched(M4, &ResourceConstraints::new().with_limit(HwOp::Mul, 1));
        let two = constrained_sched(M4, &ResourceConstraints::new().with_limit(HwOp::Mul, 2));
        assert!(one.length > two.length, "{} vs {}", one.length, two.length);
        assert!(two.length >= free.length);
        assert_eq!(one.op_usage[&(HwOp::Mul, 32)].max_concurrent, 1);
        assert!(two.op_usage[&(HwOp::Mul, 32)].max_concurrent <= 2);
        // The four multiplies still all execute.
        assert_eq!(one.op_usage[&(HwOp::Mul, 32)].total_uses, 4);
    }

    #[test]
    fn constraints_never_violate_dependences() {
        let k = defacto_ir::parse_kernel(FIR).unwrap();
        let binding = defacto_xform::assign_memories(&k, 4);
        let nest = k.perfect_nest().unwrap();
        let dfg = crate::dfg::build_dfg(nest.innermost_body(), &k, &binding);
        let c = ResourceConstraints::new()
            .with_limit(HwOp::Mul, 1)
            .with_limit(HwOp::AddSub, 1);
        let s = schedule_dfg_constrained(&dfg, &MemoryModel::pipelined(4), &c);
        for node in dfg.nodes() {
            for p in &node.preds {
                assert!(
                    s.start[node.id.0] >= s.finish[p.0],
                    "node {:?} starts before pred {:?} finishes",
                    node.id,
                    p
                );
            }
        }
    }

    #[test]
    fn slack_priority_beats_asap_under_constraints() {
        // A slack-free critical chain (mult feeding three serial adds)
        // competes with an independent multiply that appears FIRST in
        // program order; both consume the same pre-loaded registers so
        // only the multiplier is contended. With one multiplier, ASAP's
        // id tie-break starts the uncritical multiply first and delays
        // the chain; slack priority starts the critical multiply
        // immediately.
        let k = defacto_ir::parse_kernel(
            "kernel sl { in A: i32[8]; in B: i32[8];
               out C: i32[1]; out D2: i32[1];
               var x: i32; var y: i32;
               for t in 0..1 {
                 x = A[0];
                 y = B[0];
                 D2[0] = x * y;
                 C[0] = x * y + x + x + x;
               } }",
        )
        .unwrap();
        let binding = defacto_xform::assign_memories(&k, 4);
        let nest = k.perfect_nest().unwrap();
        let dfg = crate::dfg::build_dfg(nest.innermost_body(), &k, &binding);
        let mem = MemoryModel::pipelined(4);
        let c = ResourceConstraints::new().with_limit(HwOp::Mul, 1);
        let asap = schedule_dfg_prioritized(&dfg, &mem, &c, ListPriority::Asap);
        let slack = schedule_dfg_prioritized(&dfg, &mem, &c, ListPriority::Slack);
        assert!(
            slack.length < asap.length,
            "slack {} vs asap {}",
            slack.length,
            asap.length
        );
        // Both respect dependences.
        for node in dfg.nodes() {
            for p in &node.preds {
                assert!(slack.start[node.id.0] >= slack.finish[p.0]);
            }
        }
    }

    #[test]
    fn slack_equals_asap_without_contention() {
        let k = defacto_ir::parse_kernel(FIR).unwrap();
        let binding = defacto_xform::assign_memories(&k, 4);
        let nest = k.perfect_nest().unwrap();
        let dfg = crate::dfg::build_dfg(nest.innermost_body(), &k, &binding);
        let mem = MemoryModel::pipelined(4);
        let free = ResourceConstraints::new();
        let a = schedule_dfg_prioritized(&dfg, &mem, &free, ListPriority::Asap);
        let b = schedule_dfg_prioritized(&dfg, &mem, &free, ListPriority::Slack);
        assert_eq!(a.length, b.length);
    }

    #[test]
    fn unconstrained_matches_default_entry_point() {
        let k = defacto_ir::parse_kernel(FIR).unwrap();
        let binding = defacto_xform::assign_memories(&k, 4);
        let nest = k.perfect_nest().unwrap();
        let dfg = crate::dfg::build_dfg(nest.innermost_body(), &k, &binding);
        let mem = MemoryModel::pipelined(4);
        assert_eq!(
            schedule_dfg(&dfg, &mem),
            schedule_dfg_constrained(&dfg, &mem, &ResourceConstraints::new())
        );
    }
}
