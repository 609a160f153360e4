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
//!
//! Cost per view of a segment with `n` nodes, `e` edges, deepest ASAP
//! level `d`, schedule length `l` and `c` operator classes: one pass over
//! the edges for ASAP levels and the compute critical path, a counting
//! sort over `2d + 2` buckets for the start order, one sweep over the
//! edges that times every node, and one difference array of `l + 2`
//! cycles per class for the allocation: `O(n + e + c·l)` time, with no
//! ready heap, map, successor list or node copy per view. Slack priority,
//! and memories whose writes take no cycles, pop a ready heap over the
//! successor lists the graph built once (`O(n + e log n)`). The buckets
//! and difference arrays take `O(d + c·l)` words: with `L` the largest
//! latency or memory-port occupancy of any node, `d ≤ n·L` and
//! `l ≤ n·(L + 1)`, so memories with long latencies make them long.

use crate::constraints::ResourceConstraints;
use crate::dfg::{Dfg, FlagDfg, View, Word};
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
    let (graph, view) = dfg.flags();
    let mut sched = schedule_view(graph, view, mem, constraints, priority);
    sched.op_usage = allocate(graph.ops(view), &sched.start, &sched.finish)
        .into_iter()
        .collect();
    sched
}

/// What a node does, as far as scheduling and allocation care: one
/// view of a DFG node.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    Source,
    /// Loads of the same packed word share one fetch; a load without a
    /// word (unpacked) never shares its fetch.
    Load {
        bank: usize,
        bits: u32,
        word: Option<Word>,
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

impl Step {
    /// Cycles from start to finish against `mem`.
    fn latency(self, mem: &MemoryModel) -> u64 {
        match self {
            Step::Load { .. } => mem.read_latency as u64,
            Step::Store { .. } => mem.write_latency as u64,
            Step::Op { op, bits } => op_spec(op, bits).latency as u64,
            Step::Rotate => 1,
            Step::Source => 0,
        }
    }
}

/// List-schedule `graph` under `view`, leaving `op_usage` empty for the
/// caller to [`allocate`].
///
/// Nodes start in Kahn's order under the key `(priority, store, id)`:
/// ready nodes first by ASAP level (or slack), reads before writes, then
/// by id. Along an edge `p → s`, `asap[s] ≥ asap[p] + latency[p]` and
/// `s > p`, so the ASAP key only grows, unless `p` is a store that takes
/// no cycles. While it only grows, the least unscheduled node is always
/// ready, and Kahn's order is just the sorted key order: one counting
/// sort and no ready heap. Slack keys, and memories whose writes take
/// no cycles, keep Kahn's algorithm over the graph's successor lists.
pub(crate) fn schedule_view(
    graph: &FlagDfg,
    view: View,
    mem: &MemoryModel,
    constraints: &ResourceConstraints,
    priority: ListPriority,
) -> Schedule {
    let n = graph.len();
    let mut sched = Schedule {
        start: vec![0; n],
        finish: vec![0; n],
        mem_busy_per_bank: vec![0; mem.num_memories.max(1)],
        ..Schedule::default()
    };
    if n == 0 {
        return sched;
    }

    // Unconstrained ASAP levels, held in `start` (and ASAP finishes in
    // `finish`) until the sweep overwrites them, with the compute
    // critical path: the longest chain of operator latencies (memory and
    // rotation nodes contribute zero), the "computational delay" of the
    // balance metric's consumption rate.
    let mut chain = vec![0u64; n];
    for i in 0..n {
        let (mut ready, mut longest) = (0, 0);
        for p in graph.preds(i) {
            ready = ready.max(sched.finish[p.0]);
            longest = longest.max(chain[p.0]);
        }
        let step = graph.step(i, view);
        let latency = step.latency(mem);
        let op_latency = if matches!(step, Step::Op { .. }) {
            latency
        } else {
            0
        };
        sched.start[i] = ready;
        sched.finish[i] = ready + latency;
        chain[i] = longest + op_latency;
        sched.t_comp = sched.t_comp.max(chain[i]);
    }

    let order = match priority {
        ListPriority::Asap if mem.write_latency > 0 => asap_order(graph, &sched.start),
        ListPriority::Asap => kahn_order(graph, &sched.start),
        ListPriority::Slack => kahn_order(graph, &slack(graph, &sched.start, &sched.finish)),
    };

    let mut bank_free: Vec<u64> = vec![0; mem.num_memories.max(1)];
    // Packed-word fetches already issued, by word slot: the fetch's
    // start cycle. Follow-up loads of the same word ride along without
    // occupying the port again.
    let mut fetched: Vec<Option<u64>> = vec![None; if view.pack { graph.words() } else { 0 }];
    // Bounded operator classes: a min-heap of unit-free times per class.
    let mut unit_pools: HashMap<HwOp, BinaryHeap<Reverse<u64>>> = HashMap::new();
    for (op, units) in constraints.iter() {
        let mut pool = BinaryHeap::with_capacity(units as usize);
        for _ in 0..units {
            pool.push(Reverse(0u64));
        }
        unit_pools.insert(op, pool);
    }
    for id in order {
        let id = id as usize;
        let step = graph.step(id, view);
        let latency = step.latency(mem);
        let data_ready = graph
            .preds(id)
            .iter()
            .map(|p| sched.finish[p.0])
            .max()
            .unwrap_or(0);
        let (start, fin) = match step {
            Step::Load { bank, bits, word } => {
                let bank = bank % bank_free.len();
                match word.and_then(|w| fetched[w.slot as usize]) {
                    // The word is already being fetched: ride along.
                    Some(fetch_start) => {
                        let start = data_ready.max(fetch_start);
                        (start, fetch_start.max(start) + latency)
                    }
                    None => {
                        let start = data_ready.max(bank_free[bank]);
                        bank_free[bank] = start + mem.read_occupancy() as u64;
                        sched.mem_busy_per_bank[bank] += mem.read_occupancy() as u64;
                        sched.bits_transferred += bits as u64;
                        sched.reads += 1;
                        if let Some(w) = word {
                            fetched[w.slot as usize] = Some(start);
                        }
                        (start, start + latency)
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
                (start, start + latency)
            }
            Step::Op { op, .. } => match unit_pools.get_mut(&op) {
                Some(pool) => {
                    let Reverse(unit_free) = pool.pop().expect("pool non-empty");
                    let start = data_ready.max(unit_free);
                    // A unit is occupied for at least one cycle even
                    // for combinational (0-latency) classes.
                    pool.push(Reverse(start + latency.max(1)));
                    (start, start + latency)
                }
                None => (data_ready, data_ready + latency),
            },
            Step::Rotate => (data_ready, data_ready + latency),
            Step::Source => (0, 0),
        };
        sched.start[id] = start;
        sched.finish[id] = fin;
        sched.length = sched.length.max(fin);
    }
    sched.t_mem = sched.mem_busy_per_bank.iter().copied().max().unwrap_or(0);
    sched
}

/// Node ids sorted by `(asap, store, id)`: a counting sort over the
/// `2 · max(asap) + 2` buckets of `(asap, store)`, which ids fill in
/// ascending order.
fn asap_order(graph: &FlagDfg, asap: &[u64]) -> Vec<u32> {
    let n = asap.len();
    let bucket = |i: usize| 2 * asap[i] as usize + graph.is_store(i) as usize;
    let top = asap.iter().copied().max().unwrap_or(0);
    // `next[b]` is where the next id of bucket `b` goes.
    let mut next = vec![0usize; 2 * top as usize + 2];
    for i in 0..n {
        next[bucket(i)] += 1;
    }
    let mut sum = 0;
    for b in &mut next {
        sum += std::mem::replace(b, sum);
    }
    let mut order = vec![0u32; n];
    for i in 0..n {
        let b = bucket(i);
        order[next[b]] = i as u32;
        next[b] += 1;
    }
    order
}

/// Kahn's topological order, popping the ready node of least
/// `(key, store, id)` first.
fn kahn_order(graph: &FlagDfg, key: &[u64]) -> Vec<u32> {
    let n = graph.len();
    let prio = |i: usize| Reverse((key[i], graph.is_store(i), i));
    let mut indeg: Vec<usize> = (0..n).map(|i| graph.preds(i).len()).collect();
    let mut ready: BinaryHeap<_> = (0..n).filter(|&i| indeg[i] == 0).map(prio).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse((_, _, id))) = ready.pop() {
        order.push(id as u32);
        for &s in graph.succs(id) {
            let s = s as usize;
            indeg[s] -= 1;
            if indeg[s] == 0 {
                ready.push(prio(s));
            }
        }
    }
    order
}

/// Slack = ALAP − ASAP per node: its scheduling freedom. The reverse
/// longest path gives ALAP against the unconstrained critical path
/// length. `asap` and `asap_finish` are each node's unconstrained
/// start and finish.
fn slack(graph: &FlagDfg, asap: &[u64], asap_finish: &[u64]) -> Vec<u64> {
    let n = asap.len();
    let total = asap_finish.iter().copied().max().unwrap_or(0);
    let latency = |i: usize| asap_finish[i] - asap[i];
    let mut tail = vec![0u64; n]; // longest path from node to a sink
    for i in (0..n).rev() {
        // Successor tails were already computed (reverse order of a
        // topologically ordered node list).
        for p in graph.preds(i) {
            tail[p.0] = tail[p.0].max(tail[i] + latency(i));
        }
    }
    (0..n)
        .map(|i| {
            let alap = total.saturating_sub(tail[i] + latency(i));
            alap.saturating_sub(asap[i])
        })
        .collect()
}

/// Derive operator allocation from schedule concurrency: `ops` are the
/// operator nodes as `(node index, class, width)`, timed by `start` and
/// `finish`. One entry per `(class, width)`, in order of first operator.
///
/// An operator is busy over `[start, max(finish, start + 1))`: a finish
/// at cycle t frees its unit for a start at t, and zero-latency units
/// still occupy their wiring for the cycle. Each class adds +1 at every
/// start and −1 at every end of one difference array over the cycles;
/// its running sum is the number of busy units, and its peak the
/// allocation. The arrays take `c · (length + 2)` counters for `c`
/// classes.
pub(crate) fn allocate(
    ops: impl Iterator<Item = (usize, HwOp, u32)>,
    start: &[u64],
    finish: &[u64],
) -> Vec<((HwOp, u32), OpUsage)> {
    // Every busy interval ends by the last finish + 1.
    let width = finish.iter().copied().max().unwrap_or(0) as usize + 2;
    // A handful of classes, so a linear search beats hashing. Class `c`'s
    // difference array is `diff[c * width..(c + 1) * width]`.
    let mut classes: Vec<((HwOp, u32), u32)> = Vec::new();
    let mut diff: Vec<i32> = Vec::new();
    for (i, op, bits) in ops {
        let c = match classes.iter().position(|(class, _)| *class == (op, bits)) {
            Some(c) => c,
            None => {
                classes.push(((op, bits), 0));
                diff.resize(diff.len() + width, 0);
                classes.len() - 1
            }
        };
        classes[c].1 += 1;
        let s = start[i];
        let f = finish[i].max(s + 1);
        diff[c * width + s as usize] += 1;
        diff[c * width + f as usize] -= 1;
    }
    classes
        .iter()
        .zip(diff.chunks_exact(width))
        .map(|(&(class, total_uses), diff)| {
            let (mut busy, mut peak) = (0i32, 0i32);
            for &d in diff {
                busy += d;
                peak = peak.max(busy);
            }
            let usage = OpUsage {
                max_concurrent: peak as u32,
                total_uses,
            };
            (class, usage)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::{build_dfg, NodeId};
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

    /// The event-sort sweep `allocate` replaced: ±1 events per class,
    /// tuple-sorted so finishes at a cycle come before starts at it.
    fn allocate_reference(
        ops: &[(usize, HwOp, u32)],
        start: &[u64],
        finish: &[u64],
    ) -> HashMap<(HwOp, u32), OpUsage> {
        let mut events: HashMap<(HwOp, u32), Vec<(u64, i64)>> = HashMap::new();
        for &(i, op, bits) in ops {
            let s = start[i];
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

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Random operator intervals over a short horizon, so starts and
        /// finishes share cycles often; latencies include zero
        /// (`finish == start`) and several classes interleave.
        #[test]
        fn allocate_matches_the_event_sort_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..48,
            horizon in 1u64..16,
        ) {
            const CLASSES: [(HwOp, u32); 5] = [
                (HwOp::Mul, 32),
                (HwOp::Mul, 16),
                (HwOp::AddSub, 32),
                (HwOp::ConstShift, 8),
                (HwOp::Mux, 1),
            ];
            let mut next = splitmix(seed);
            // Interleave non-operator nodes, as a schedule does.
            let (mut start, mut finish, mut ops) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..2 * n {
                let s = next() % horizon;
                start.push(s);
                finish.push(s + next() % 4);
                if i % 2 == 1 {
                    let (op, bits) = CLASSES[(next() % CLASSES.len() as u64) as usize];
                    ops.push((i, op, bits));
                }
            }
            let got = allocate(ops.iter().copied(), &start, &finish);
            let order: Vec<(HwOp, u32)> = got.iter().map(|(class, _)| *class).collect();
            let mut first_seen: Vec<(HwOp, u32)> = Vec::new();
            for &(_, op, bits) in &ops {
                if !first_seen.contains(&(op, bits)) {
                    first_seen.push((op, bits));
                }
            }
            proptest::prop_assert_eq!(order, first_seen);
            let reference = allocate_reference(&ops, &start, &finish);
            let got: HashMap<(HwOp, u32), OpUsage> = got.into_iter().collect();
            proptest::prop_assert_eq!(&got, &reference);
        }

        /// Random DAGs with every kind of node, repeated predecessors,
        /// packed and unpacked loads and both operator widths, under both
        /// priorities, with and without operator bounds, against
        /// pipelined, non-pipelined, zero-latency-write and long-latency
        /// memories.
        #[test]
        fn schedules_match_the_heap_reference(
            seed in 0u64..u64::MAX,
            n in 0usize..64,
            memory in 0usize..4,
            banks in 1usize..5,
        ) {
            let mut next = splitmix(seed);
            let graph = random_dag(&mut next, n, banks);
            let mem = match memory {
                0 => MemoryModel::pipelined(banks),
                1 => MemoryModel::non_pipelined(banks),
                2 => MemoryModel {
                    write_latency: 0,
                    ..MemoryModel::pipelined(banks)
                },
                // Levels and schedule lengths far beyond the node count.
                _ => MemoryModel {
                    read_latency: 1000,
                    ..MemoryModel::non_pipelined(banks)
                },
            };
            let bounded = ResourceConstraints::new()
                .with_limit(HwOp::Mul, 1)
                .with_limit(HwOp::AddSub, 2);
            for constraints in [ResourceConstraints::new(), bounded] {
                for priority in [ListPriority::Asap, ListPriority::Slack] {
                    for (narrow, pack) in [(false, false), (false, true), (true, false), (true, true)] {
                        let view = View { narrow, pack };
                        let mut got = schedule_view(&graph, view, &mem, &constraints, priority);
                        got.op_usage = allocate(graph.ops(view), &got.start, &got.finish)
                            .into_iter()
                            .collect();
                        let want = reference_schedule(&graph, view, &mem, &constraints, priority);
                        proptest::prop_assert_eq!(got, want, "{:?} {:?} {:?}", view, priority, mem);
                    }
                }
            }
        }
    }

    /// SplitMix64.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// A random topologically numbered graph of `n` nodes. A packed
    /// word's bank is a function of its array and index, as the DFG
    /// builder's layouts make it.
    fn random_dag(next: &mut impl FnMut() -> u64, n: usize, banks: usize) -> FlagDfg {
        use crate::dfg::{FlagKind, Place, Widths};
        const WIDTHS: [u32; 4] = [4, 8, 16, 32];
        const OPS: [HwOp; 6] = [
            HwOp::Mul,
            HwOp::AddSub,
            HwOp::Div,
            HwOp::ConstShift,
            HwOp::Mux,
            HwOp::Cmp,
        ];
        let mut graph = FlagDfg::default();
        for i in 0..n {
            let mut pick = |k: usize| (next() % k as u64) as usize;
            let kind = match pick(5) {
                0 if i == 0 || pick(4) == 0 => FlagKind::Source,
                0 | 1 => {
                    let array = pick(3) as u32;
                    let unpacked = Place {
                        bank: pick(banks + 1),
                        word: None,
                    };
                    let index = pick(6) as i64;
                    let packed = if pick(2) == 0 {
                        Place {
                            bank: (array as usize + index as usize) % banks,
                            word: Some(Word { index, slot: 0 }),
                        }
                    } else {
                        unpacked
                    };
                    FlagKind::Load {
                        array,
                        bits: WIDTHS[pick(4)],
                        unpacked,
                        packed,
                    }
                }
                2 => FlagKind::Store {
                    array: pick(3) as u32,
                    bank: pick(banks + 1),
                    bits: WIDTHS[pick(4)],
                },
                3 if pick(4) == 0 => FlagKind::Rotate {
                    regs: 2,
                    bits: Widths {
                        wide: 32,
                        narrow: 8,
                    },
                },
                _ => {
                    let wide = WIDTHS[pick(4)];
                    FlagKind::Op {
                        op: OPS[pick(OPS.len())],
                        bits: Widths {
                            wide,
                            narrow: WIDTHS[pick(4)].min(wide),
                        },
                    }
                }
            };
            let preds: Vec<NodeId> = match kind {
                FlagKind::Source => Vec::new(),
                _ if i == 0 => Vec::new(),
                _ => (0..pick(4)).map(|_| NodeId(pick(i))).collect(),
            };
            graph.push(kind, &preds);
        }
        graph.finish();
        graph
    }

    /// The heap-based list scheduler [`schedule_view`] replaced: Kahn's
    /// algorithm over successor lists rebuilt per schedule, packed-word
    /// sharing keyed by `(array, bank, word)`, and the critical path in a
    /// pass of its own.
    fn reference_schedule(
        graph: &FlagDfg,
        view: View,
        mem: &MemoryModel,
        constraints: &ResourceConstraints,
        priority: ListPriority,
    ) -> Schedule {
        use crate::dfg::FlagKind;
        use std::collections::HashSet;
        #[derive(Clone, Copy)]
        enum Kind {
            Source,
            Load {
                array: u32,
                bank: usize,
                bits: u32,
                word: Option<i64>,
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
        struct Node<'g> {
            preds: &'g [NodeId],
            kind: Kind,
            latency: u64,
        }
        let nodes: Vec<Node<'_>> = (0..graph.len())
            .map(|i| {
                let kind = match graph.kind(i) {
                    FlagKind::Source => Kind::Source,
                    FlagKind::Load {
                        array,
                        bits,
                        unpacked,
                        packed,
                    } => {
                        let place = if view.pack { packed } else { unpacked };
                        Kind::Load {
                            array,
                            bank: place.bank,
                            bits,
                            word: place.word.map(|w| w.index),
                        }
                    }
                    FlagKind::Store { bank, bits, .. } => Kind::Store { bank, bits },
                    FlagKind::Op { op, bits } => Kind::Op {
                        op,
                        bits: if view.narrow { bits.narrow } else { bits.wide },
                    },
                    FlagKind::Rotate { .. } => Kind::Rotate,
                };
                let latency = match kind {
                    Kind::Load { .. } => mem.read_latency as u64,
                    Kind::Store { .. } => mem.write_latency as u64,
                    Kind::Op { op, bits } => op_spec(op, bits).latency as u64,
                    Kind::Rotate => 1,
                    Kind::Source => 0,
                };
                Node {
                    preds: graph.preds(i),
                    kind,
                    latency,
                }
            })
            .collect();
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
        let mut asap = vec![0u64; n];
        for (i, node) in nodes.iter().enumerate() {
            asap[i] = node
                .preds
                .iter()
                .map(|p| asap[p.0] + nodes[p.0].latency)
                .max()
                .unwrap_or(0);
        }
        let key: Vec<u64> = match priority {
            ListPriority::Asap => asap.clone(),
            ListPriority::Slack => {
                let total = (0..n)
                    .map(|i| asap[i] + nodes[i].latency)
                    .max()
                    .unwrap_or(0);
                let mut tail = vec![0u64; n];
                for (i, node) in nodes.iter().enumerate().rev() {
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
        let mut indeg: Vec<usize> = nodes.iter().map(|node| node.preds.len()).collect();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in nodes.iter().enumerate() {
            for p in node.preds {
                succs[p.0].push(i);
            }
        }
        let store = |i: usize| matches!(nodes[i].kind, Kind::Store { .. });
        let prio = |i: usize| Reverse((key[i], store(i), i));
        let mut heap: BinaryHeap<_> = (0..n).filter(|&i| indeg[i] == 0).map(prio).collect();
        let mut bank_free: Vec<u64> = vec![0; mem.num_memories.max(1)];
        let mut fetched_words: HashMap<(u32, usize, i64), u64> = HashMap::new();
        let mut unit_pools: HashMap<HwOp, BinaryHeap<Reverse<u64>>> = constraints
            .iter()
            .map(|(op, units)| (op, (0..units).map(|_| Reverse(0)).collect()))
            .collect();
        let mut popped = HashSet::new();
        while let Some(Reverse((_, _, id))) = heap.pop() {
            assert!(popped.insert(id));
            let node = &nodes[id];
            let data_ready = node
                .preds
                .iter()
                .map(|p| sched.finish[p.0])
                .max()
                .unwrap_or(0);
            let (start, fin) = match node.kind {
                Kind::Load {
                    array,
                    bank,
                    bits,
                    word,
                } => {
                    let bank = bank % bank_free.len();
                    match word.and_then(|w| fetched_words.get(&(array, bank, w)).copied()) {
                        Some(fetch_start) => {
                            let start = data_ready.max(fetch_start);
                            (start, fetch_start.max(start) + node.latency)
                        }
                        None => {
                            let start = data_ready.max(bank_free[bank]);
                            bank_free[bank] = start + mem.read_occupancy() as u64;
                            sched.mem_busy_per_bank[bank] += mem.read_occupancy() as u64;
                            sched.bits_transferred += bits as u64;
                            sched.reads += 1;
                            if let Some(w) = word {
                                fetched_words.insert((array, bank, w), start);
                            }
                            (start, start + node.latency)
                        }
                    }
                }
                Kind::Store { bank, bits } => {
                    let bank = bank % bank_free.len();
                    let start = data_ready.max(bank_free[bank]);
                    bank_free[bank] = start + mem.write_occupancy() as u64;
                    sched.mem_busy_per_bank[bank] += mem.write_occupancy() as u64;
                    sched.bits_transferred += bits as u64;
                    sched.writes += 1;
                    (start, start + node.latency)
                }
                Kind::Op { op, .. } => match unit_pools.get_mut(&op) {
                    Some(pool) => {
                        let Reverse(unit_free) = pool.pop().unwrap();
                        let start = data_ready.max(unit_free);
                        pool.push(Reverse(start + node.latency.max(1)));
                        (start, start + node.latency)
                    }
                    None => (data_ready, data_ready + node.latency),
                },
                Kind::Rotate => (data_ready, data_ready + node.latency),
                Kind::Source => (0, 0),
            };
            sched.start[id] = start;
            sched.finish[id] = fin;
            sched.length = sched.length.max(fin);
            for &s in &succs[id] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    heap.push(prio(s));
                }
            }
        }
        sched.t_mem = sched.mem_busy_per_bank.iter().copied().max().unwrap_or(0);
        let mut chain = vec![0u64; n];
        for (i, node) in nodes.iter().enumerate() {
            let op_latency = match node.kind {
                Kind::Op { .. } => node.latency,
                _ => 0,
            };
            chain[i] = node.preds.iter().map(|p| chain[p.0]).max().unwrap_or(0) + op_latency;
            sched.t_comp = sched.t_comp.max(chain[i]);
        }
        let ops: Vec<(usize, HwOp, u32)> = nodes
            .iter()
            .enumerate()
            .filter_map(|(i, node)| match node.kind {
                Kind::Op { op, bits } => Some((i, op, bits)),
                _ => None,
            })
            .collect();
        sched.op_usage = allocate_reference(&ops, &sched.start, &sched.finish);
        sched
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
