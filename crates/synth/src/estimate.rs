//! The behavioral-synthesis estimator.
//!
//! Walks the transformed kernel's (possibly imperfect) loop structure,
//! schedules every straight-line segment, and aggregates:
//!
//! - **cycles** — total execution time at the fixed 40 ns clock, with one
//!   FSM cycle of loop overhead per iteration and one of loop setup;
//! - **memory/compute busy time** — the denominators of the paper's
//!   fetch rate `F` and consumption rate `C`; their ratio is the balance
//!   metric (`B > 1`: compute bound, `B < 1`: memory bound);
//! - **slices** — datapath operators at their schedule-derived
//!   allocation (shared across segments, as behavioral synthesis reuses
//!   operators between peeled and steady bodies), registers, memory
//!   interfaces, loop counters and the control FSM.
//!
//! Estimation runs in two stages. [`EstimatePlan::new`] does the work
//! the narrowing/packing flags cannot change, once per design: the loop
//! walk, one flag-annotated DFG per segment and, when some sibling
//! narrows, one value-range inference. [`EstimatePlan::estimates`] then
//! schedules the segments under each requested flag pair.
//! [`estimate_opts`] is the plan of a single flag pair.

use crate::constraints::ResourceConstraints;
use crate::device::FpgaDevice;
use crate::dfg::{FlagDfg, ScalarTable, View};
use crate::memory::MemoryModel;
use crate::oplib::{
    fsm_state_slices, op_spec, register_slices, HwOp, FSM_BASE_SLICES, MEMORY_INTERFACE_SLICES,
};
use crate::schedule::{allocate, schedule_view, ListPriority, OpUsage, Schedule};
use defacto_analysis::{infer_ranges_indexed, narrowed_bits};
use defacto_ir::{DeclIndex, Stmt};
use defacto_xform::TransformedDesign;
use std::cell::Cell;

/// One FSM cycle per loop iteration (index update + branch).
pub(crate) const LOOP_ITER_OVERHEAD: u64 = 1;
/// One FSM cycle to enter a loop (index reset).
pub(crate) const LOOP_SETUP_OVERHEAD: u64 = 1;
/// Slices for one loop's 16-bit counter + bound comparator.
pub(crate) const LOOP_CONTROL_SLICES: u32 = 12;

/// How an estimate was produced — which estimator features shaped it and
/// how much scheduling work it took. Carried on every [`Estimate`] so
/// traces and reports can attribute a number to its configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Provenance {
    /// Straight-line segments scheduled (one DFG build + list schedule
    /// each) across the whole loop structure.
    pub segments: u32,
    /// Designer operator bounds were in effect (paper §2.3).
    pub constrained: bool,
    /// Bit-width narrowing was applied (paper §2.4).
    pub bitwidth_narrowed: bool,
    /// Small-type packing was applied (paper §4).
    pub packed: bool,
}

/// A behavioral-synthesis estimate for one design point.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Estimate {
    /// Total execution cycles.
    pub cycles: u64,
    /// Estimated area in slices.
    pub slices: u32,
    /// Aggregate memory-limited time (Σ per-segment max bank occupancy ×
    /// executions).
    pub memory_busy_cycles: u64,
    /// Aggregate compute-limited time (Σ per-segment operator critical
    /// path × executions).
    pub compute_busy_cycles: u64,
    /// Total bits moved to/from external memory.
    pub bits_from_memory: u64,
    /// On-chip registers (scalar variables of the design).
    pub registers: usize,
    /// The design's balance `B = F/C` (±∞ guarded; 1.0 when both idle).
    pub balance: f64,
    /// Clock period used (ns).
    pub clock_ns: u32,
    /// Whether the design fits the device.
    pub fits: bool,
    /// How the estimate was produced.
    pub provenance: Provenance,
}

impl Estimate {
    /// Wall-clock execution time in microseconds.
    pub fn exec_time_us(&self) -> f64 {
        self.cycles as f64 * self.clock_ns as f64 / 1000.0
    }

    /// True when the design is memory bound (`B < 1`).
    pub fn memory_bound(&self) -> bool {
        self.balance < 1.0
    }

    /// True when the design is compute bound (`B > 1`).
    pub fn compute_bound(&self) -> bool {
        self.balance > 1.0
    }
}

/// Estimate a transformed design against a memory model and device.
///
/// The balance metric compares the design's aggregate fetch rate `F`
/// (bits ÷ memory-busy time) with its consumption rate `C` (bits ÷
/// compute-critical time); since the numerators agree, `B` reduces to
/// compute time over memory time.
pub fn estimate(design: &TransformedDesign, mem: &MemoryModel, dev: &FpgaDevice) -> Estimate {
    estimate_opts(design, mem, dev, &SynthesisOptions::default())
}

/// Like [`estimate`] but with designer operator bounds (paper §2.3): the
/// schedule serializes onto the limited units, trading cycles for area.
pub fn estimate_constrained(
    design: &TransformedDesign,
    mem: &MemoryModel,
    dev: &FpgaDevice,
    constraints: &ResourceConstraints,
) -> Estimate {
    estimate_opts(
        design,
        mem,
        dev,
        &SynthesisOptions {
            constraints: constraints.clone(),
            ..SynthesisOptions::default()
        },
    )
}

/// Synthesis-side options for [`estimate_opts`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SynthesisOptions {
    /// Designer operator bounds (paper §2.3).
    pub constraints: ResourceConstraints,
    /// Bit-width narrowing from value-range analysis (paper §2.4): bind
    /// operators and registers at the widths the inferred intervals need
    /// instead of the declared C types.
    pub bitwidth_narrowing: bool,
    /// Small-type packing (paper §4): elements of arrays narrower than
    /// the memory word share fetches (e.g. four `u8` pixels per 32-bit
    /// word).
    pub pack_small_types: bool,
    /// Ready-list policy: Monet-style ASAP (default) or least-slack-first.
    pub priority: ListPriority,
}

/// The most general estimation entry point: the one-flag-pair
/// [`EstimatePlan`] of `opts`.
pub fn estimate_opts(
    design: &TransformedDesign,
    mem: &MemoryModel,
    dev: &FpgaDevice,
    opts: &SynthesisOptions,
) -> Estimate {
    EstimatePlan::new(design, mem, dev, opts, false)
        .estimates(&[(false, false)])
        .pop()
        .expect("one estimate per flag pair")
}

/// Everything needed to estimate one transformed design under any of
/// its narrowing/packing flag pairs — the flag-independent half of
/// estimation, done once for a whole sibling group.
///
/// The plan walks the loop structure and lowers every straight-line
/// segment into one DFG whose nodes carry both the declared and the
/// narrowed operator width and both the unpacked and the packed load
/// placement. Value ranges are inferred once, and only when the plan
/// narrows. The plan owns all of this and borrows nothing from the
/// design.
#[derive(Debug, Clone)]
pub struct EstimatePlan {
    mem: MemoryModel,
    dev: FpgaDevice,
    constraints: ResourceConstraints,
    priority: ListPriority,
    /// The flags `opts` turned on for every sibling.
    always: View,
    /// Narrowed annotations were built: some view may narrow.
    narrowable: bool,
    segments: Vec<FlagDfg>,
    /// The loop structure over `segments`.
    body: Vec<Block>,
    loops: u32,
    registers: usize,
    /// Register area at declared widths.
    register_slices_wide: u64,
    /// Register area at narrowed widths.
    register_slices_narrow: u64,
}

/// One statement run of the loop structure: a straight-line segment
/// (an index into [`EstimatePlan::segments`]) or a loop over blocks.
#[derive(Debug, Clone)]
enum Block {
    Segment(usize),
    Loop { trips: u64, body: Vec<Block> },
}

/// Dynamic quantities: one segment schedule's, or the trip-scaled
/// totals of a block list.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    cycles: u64,
    mem_busy: u64,
    comp_busy: u64,
    bits: u64,
}

impl Times {
    fn of(s: &Schedule) -> Times {
        Times {
            cycles: s.length,
            mem_busy: s.t_mem,
            comp_busy: s.t_comp,
            bits: s.bits_transferred,
        }
    }
}

/// One view's schedules, segment by segment: times in segment order, and
/// the operator usage shared across all segments.
struct ViewSchedules {
    times: Vec<Times>,
    op_usage: Vec<((HwOp, u32), OpUsage)>,
}

impl ViewSchedules {
    fn push(&mut self, time: Times, usage: impl IntoIterator<Item = ((HwOp, u32), OpUsage)>) {
        self.times.push(time);
        for (class, u) in usage {
            let i = match self.op_usage.iter().position(|(c, _)| *c == class) {
                Some(i) => i,
                None => {
                    self.op_usage.push((class, OpUsage::default()));
                    self.op_usage.len() - 1
                }
            };
            let e = &mut self.op_usage[i].1;
            // Operators are shared across segments: allocation is the max
            // concurrency anywhere; uses accumulate (they contend for the
            // shared units through multiplexers).
            e.max_concurrent = e.max_concurrent.max(u.max_concurrent);
            e.total_uses += u.total_uses;
        }
    }
}

impl EstimatePlan {
    /// Plan the estimation of `design` under `opts`. `narrow` asks for
    /// the narrowed annotations some sibling will need beyond what
    /// `opts.bitwidth_narrowing` already turns on; packed placements are
    /// always annotated, as they cost one offset per small-typed load.
    pub fn new(
        design: &TransformedDesign,
        mem: &MemoryModel,
        dev: &FpgaDevice,
        opts: &SynthesisOptions,
        narrow: bool,
    ) -> EstimatePlan {
        let always = View {
            narrow: opts.bitwidth_narrowing,
            pack: opts.pack_small_types,
        };
        let narrowable = always.narrow || narrow;
        tally(|w| w.plans += 1);
        let decls = DeclIndex::new(&design.kernel);
        let ranges = narrowable.then(|| {
            tally(|w| w.range_inferences += 1);
            infer_ranges_indexed(&design.kernel, &decls)
        });
        let mut lower = Lower {
            design,
            scalars: ScalarTable::new(&decls, ranges.as_ref(), design.kernel.scalars().len()),
            pack_word_bits: mem.width_bits,
            segments: Vec::new(),
            loops: 0,
        };
        let body = lower.blocks(design.kernel.body());
        // Saturating sums of non-negative terms, so adding the register
        // area as one term is the same as adding it register by register.
        let (mut wide, mut narrowed) = (0u64, 0u64);
        for s in design.kernel.scalars() {
            let declared = s.ty.bits();
            wide = wide.saturating_add(register_slices(declared) as u64);
            let bits = match &ranges {
                Some(info) => narrowed_bits(info.var(&s.name), declared),
                None => declared,
            };
            narrowed = narrowed.saturating_add(register_slices(bits) as u64);
        }
        EstimatePlan {
            mem: mem.clone(),
            dev: dev.clone(),
            constraints: opts.constraints.clone(),
            priority: opts.priority,
            always,
            narrowable,
            segments: lower.segments,
            body,
            loops: lower.loops,
            registers: design.kernel.scalars().len(),
            register_slices_wide: wide,
            register_slices_narrow: narrowed,
        }
    }

    /// One estimate per `(narrow, pack)` pair in `flags`, in order; each
    /// flag adds to the plan's options like the matching
    /// [`SynthesisOptions`] field. Every segment is list-scheduled once
    /// per distinct flag pair, except that a narrowed pair whose segment
    /// keeps every operator latency at its narrowed widths reuses its
    /// wide twin's timing and only reallocates operators.
    ///
    /// # Panics
    ///
    /// Panics if a pair narrows but the plan was built without
    /// narrowing.
    pub fn estimates(&self, flags: &[(bool, bool)]) -> Vec<Estimate> {
        let views: Vec<View> = flags
            .iter()
            .map(|&(narrow, pack)| View {
                narrow: self.always.narrow || narrow,
                pack: self.always.pack || pack,
            })
            .collect();
        assert!(
            self.narrowable || views.iter().all(|v| !v.narrow),
            "EstimatePlan: a flag pair narrows but the plan was built without narrowing"
        );
        let mut distinct = views.clone();
        distinct.sort();
        distinct.dedup();
        let mut schedules: Vec<ViewSchedules> = distinct
            .iter()
            .map(|_| ViewSchedules {
                times: Vec::with_capacity(self.segments.len()),
                op_usage: Vec::new(),
            })
            .collect();
        // This segment's full schedule per view, for narrow twins to share.
        let mut timed: Vec<Option<Schedule>> = vec![None; distinct.len()];
        for seg in &self.segments {
            for (i, &view) in distinct.iter().enumerate() {
                // Views are sorted wide first, so the wide twin (if
                // requested) is already scheduled.
                let twin = View {
                    narrow: false,
                    ..view
                };
                let shared = (view.narrow && seg.narrow_keeps_timing())
                    .then(|| distinct[..i].iter().position(|&v| v == twin))
                    .flatten();
                match shared {
                    Some(_) => tally(|w| w.allocation_schedules += 1),
                    None => {
                        tally(|w| w.full_schedules += 1);
                        let s =
                            schedule_view(seg, view, &self.mem, &self.constraints, self.priority);
                        timed[i] = Some(s);
                    }
                }
                let timing = timed[shared.unwrap_or(i)]
                    .as_ref()
                    .expect("the wide twin was scheduled first");
                let usage = allocate(seg.ops(view), &timing.start, &timing.finish);
                schedules[i].push(Times::of(timing), usage);
            }
        }
        let estimates: Vec<Estimate> = distinct
            .iter()
            .zip(&schedules)
            .map(|(&view, s)| self.estimate(view, s))
            .collect();
        views
            .iter()
            .map(|v| estimates[distinct.partition_point(|d| d < v)].clone())
            .collect()
    }

    /// Aggregate one view's segment schedules over the loop structure.
    fn estimate(&self, view: View, s: &ViewSchedules) -> Estimate {
        let totals = fold(&self.body, &s.times);
        let balance = match (totals.comp_busy, totals.mem_busy) {
            (0, 0) => 1.0,
            (_, 0) => f64::INFINITY,
            (c, m) => c as f64 / m as f64,
        };

        // Area. Accumulated in u64 with saturating arithmetic: a heavily
        // unrolled kernel can push any single term past u32 range, and the
        // clamp back to the `Estimate::slices` width must happen exactly
        // once, visibly, at the end. The terms are non-negative, so their
        // order does not matter.
        let mut area: u64 = 0;
        for ((op, bits), usage) in &s.op_usage {
            let spec = op_spec(*op, *bits);
            area = area.saturating_add(spec.area_slices as u64 * usage.max_concurrent as u64);
            // Sharing multiplexers: each use beyond the allocated instances
            // steers operands through a mux tree.
            let shared = usage.total_uses.saturating_sub(usage.max_concurrent);
            area = area.saturating_add(shared as u64 * (bits / 4 + 1) as u64);
        }
        area = area.saturating_add(if view.narrow {
            self.register_slices_narrow
        } else {
            self.register_slices_wide
        });
        area = area.saturating_add(self.mem.num_memories as u64 * MEMORY_INTERFACE_SLICES as u64);
        area = area.saturating_add(self.loops as u64 * LOOP_CONTROL_SLICES as u64);
        let fsm_states: u64 = s.times.iter().map(|t| t.cycles).sum();
        area = area
            .saturating_add(FSM_BASE_SLICES as u64)
            .saturating_add(fsm_state_slices(fsm_states));
        let slices = area.min(u32::MAX as u64) as u32;

        Estimate {
            cycles: totals.cycles,
            slices,
            memory_busy_cycles: totals.mem_busy,
            compute_busy_cycles: totals.comp_busy,
            bits_from_memory: totals.bits,
            registers: self.registers,
            balance,
            clock_ns: self.dev.clock_ns,
            fits: self.dev.fits(slices),
            provenance: Provenance {
                segments: self.segments.len() as u32,
                constrained: self.constraints != ResourceConstraints::default(),
                bitwidth_narrowed: view.narrow,
                packed: view.pack,
            },
        }
    }
}

/// The trip-scaled totals of `blocks`, given every segment's times.
fn fold(blocks: &[Block], times: &[Times]) -> Times {
    let mut t = Times::default();
    for block in blocks {
        match block {
            Block::Segment(i) => {
                let s = &times[*i];
                t.cycles += s.cycles;
                t.mem_busy += s.mem_busy;
                t.comp_busy += s.comp_busy;
                t.bits += s.bits;
            }
            Block::Loop { trips, body } => {
                let inner = fold(body, times);
                t.cycles += LOOP_SETUP_OVERHEAD + trips * (inner.cycles + LOOP_ITER_OVERHEAD);
                t.mem_busy += trips * inner.mem_busy;
                t.comp_busy += trips * inner.comp_busy;
                t.bits += trips * inner.bits;
            }
        }
    }
    t
}

/// The loop walk of [`EstimatePlan::new`]: lowers each straight-line
/// segment into a [`FlagDfg`] and records the loops around them. The
/// segments share one scalar table, so each scalar of the design is
/// resolved and looked up once.
struct Lower<'a> {
    design: &'a TransformedDesign,
    scalars: ScalarTable<'a, 'a>,
    pack_word_bits: u32,
    segments: Vec<FlagDfg>,
    loops: u32,
}

impl<'a> Lower<'a> {
    fn blocks(&mut self, stmts: &'a [Stmt]) -> Vec<Block> {
        let mut blocks = Vec::new();
        // Straight-line statements are borrowed from the body, not cloned:
        // segments only feed the DFG builder, which reads them.
        let mut segment: Vec<&Stmt> = Vec::new();
        for s in stmts {
            match s {
                Stmt::For(l) => {
                    self.flush(&mut segment, &mut blocks);
                    let body = self.blocks(&l.body);
                    // `trip_count` is non-negative by definition (degenerate
                    // loops report zero and are rejected up front by lint
                    // DF010), so this conversion is lossless.
                    let trips = u64::try_from(l.trip_count()).unwrap_or(0);
                    blocks.push(Block::Loop { trips, body });
                    self.loops += 1;
                }
                other => segment.push(other),
            }
        }
        self.flush(&mut segment, &mut blocks);
        blocks
    }

    fn flush(&mut self, segment: &mut Vec<&'a Stmt>, blocks: &mut Vec<Block>) {
        if segment.is_empty() {
            return;
        }
        let dfg = FlagDfg::build(
            segment.drain(..),
            &mut self.scalars,
            &self.design.binding,
            Some(self.pack_word_bits),
        );
        blocks.push(Block::Segment(self.segments.len()));
        self.segments.push(dfg);
    }
}

/// Estimator work done on one thread: plans built, value-range
/// inferences, and segment schedules — full list schedules and
/// allocation-only ones that reuse a wide twin's timing. See
/// [`estimator_work`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EstimatorWork {
    /// [`EstimatePlan`]s built.
    pub plans: u64,
    /// `infer_ranges` runs.
    pub range_inferences: u64,
    /// Segments list-scheduled.
    pub full_schedules: u64,
    /// Segments that only reallocated operators over a shared schedule.
    pub allocation_schedules: u64,
}

impl EstimatorWork {
    /// The work done between `earlier` and `self`.
    pub fn since(&self, earlier: &EstimatorWork) -> EstimatorWork {
        EstimatorWork {
            plans: self.plans - earlier.plans,
            range_inferences: self.range_inferences - earlier.range_inferences,
            full_schedules: self.full_schedules - earlier.full_schedules,
            allocation_schedules: self.allocation_schedules - earlier.allocation_schedules,
        }
    }
}

thread_local! {
    static WORK: Cell<EstimatorWork> = Cell::new(EstimatorWork::default());
}

/// The estimator work the calling thread has done so far. Take the
/// [`EstimatorWork::since`] of two readings to count one call's work.
pub fn estimator_work() -> EstimatorWork {
    WORK.with(Cell::get)
}

fn tally(f: impl FnOnce(&mut EstimatorWork)) {
    WORK.with(|w| {
        let mut work = w.get();
        f(&mut work);
        w.set(work);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;
    use defacto_xform::{transform, TransformOptions, UnrollVector};

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    fn fir_design(factors: Vec<i64>) -> TransformedDesign {
        let k = parse_kernel(FIR).unwrap();
        transform(&k, &UnrollVector(factors), &TransformOptions::default()).unwrap()
    }

    #[test]
    fn baseline_fir_pipelined() {
        let d = fir_design(vec![1, 1]);
        let e = estimate(
            &d,
            &MemoryModel::wildstar_pipelined(),
            &FpgaDevice::virtex1000(),
        );
        // Sanity: thousands of cycles for 2048 MACs, well within device.
        assert!(e.cycles > 2048, "cycles {}", e.cycles);
        assert!(e.cycles < 60_000, "cycles {}", e.cycles);
        assert!(e.fits);
        assert!(e.slices > 100);
        // Pipelined accesses + registers for C: compute bound.
        assert!(e.compute_bound(), "balance {}", e.balance);
    }

    #[test]
    fn baseline_fir_non_pipelined_is_memory_bound() {
        let d = fir_design(vec![1, 1]);
        let e = estimate(
            &d,
            &MemoryModel::wildstar_non_pipelined(),
            &FpgaDevice::virtex1000(),
        );
        assert!(e.memory_bound(), "balance {}", e.balance);
    }

    #[test]
    fn unrolling_reduces_cycles_and_grows_area() {
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let e1 = estimate(&fir_design(vec![1, 1]), &mem, &dev);
        let e2 = estimate(&fir_design(vec![2, 2]), &mem, &dev);
        let e4 = estimate(&fir_design(vec![4, 4]), &mem, &dev);
        assert!(e2.cycles < e1.cycles, "{} vs {}", e2.cycles, e1.cycles);
        assert!(e4.cycles < e2.cycles, "{} vs {}", e4.cycles, e2.cycles);
        assert!(e2.slices > e1.slices);
        assert!(e4.slices > e2.slices);
    }

    #[test]
    fn huge_unroll_exceeds_capacity() {
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let e = estimate(&fir_design(vec![64, 32]), &mem, &dev);
        assert!(!e.fits, "slices {}", e.slices);
    }

    #[test]
    fn scalar_replacement_cuts_memory_traffic() {
        let k = parse_kernel(FIR).unwrap();
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let with = transform(&k, &UnrollVector(vec![2, 2]), &TransformOptions::default()).unwrap();
        let without = transform(
            &k,
            &UnrollVector(vec![2, 2]),
            &TransformOptions {
                scalar_replacement: false,
                ..TransformOptions::default()
            },
        )
        .unwrap();
        let ew = estimate(&with, &mem, &dev);
        let eo = estimate(&without, &mem, &dev);
        assert!(ew.bits_from_memory < eo.bits_from_memory / 2);
        assert!(ew.cycles < eo.cycles);
    }

    #[test]
    fn custom_layout_beats_single_memory() {
        let k = parse_kernel(FIR).unwrap();
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let multi = transform(&k, &UnrollVector(vec![8, 4]), &TransformOptions::default()).unwrap();
        let single = transform(
            &k,
            &UnrollVector(vec![8, 4]),
            &TransformOptions {
                custom_layout: false,
                ..TransformOptions::default()
            },
        )
        .unwrap();
        let em = estimate(&multi, &mem, &dev);
        let es = estimate(&single, &mem, &dev);
        assert!(em.cycles < es.cycles, "{} vs {}", em.cycles, es.cycles);
        assert!(em.memory_busy_cycles < es.memory_busy_cycles);
    }

    #[test]
    fn exec_time_uses_clock() {
        let d = fir_design(vec![1, 1]);
        let e = estimate(
            &d,
            &MemoryModel::wildstar_pipelined(),
            &FpgaDevice::virtex1000(),
        );
        let us = e.exec_time_us();
        assert!((us - e.cycles as f64 * 0.04).abs() < 1e-9);
    }

    #[test]
    fn operator_constraints_trade_cycles_for_area() {
        use crate::constraints::ResourceConstraints;
        use crate::oplib::HwOp;
        let d = fir_design(vec![4, 4]);
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let free = estimate(&d, &mem, &dev);
        let capped = estimate_constrained(
            &d,
            &mem,
            &dev,
            &ResourceConstraints::new().with_limit(HwOp::Mul, 2),
        );
        assert!(
            capped.cycles > free.cycles,
            "{} vs {}",
            capped.cycles,
            free.cycles
        );
        assert!(
            capped.slices < free.slices,
            "{} vs {}",
            capped.slices,
            free.slices
        );
        // Fewer parallel consumers: the design shifts toward compute
        // bound.
        assert!(capped.balance >= free.balance * 0.9);
    }

    #[test]
    fn bitwidth_narrowing_shrinks_annotated_designs() {
        use defacto_xform::{transform, TransformOptions, UnrollVector};
        // 10-bit signal data and 7-bit coefficients declared as C ints.
        let k = parse_kernel(
            "kernel fir {
               in S: i32[96] range -512..511;
               in C: i32[32] range -64..63;
               inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap();
        let design =
            transform(&k, &UnrollVector(vec![4, 4]), &TransformOptions::default()).unwrap();
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let wide = estimate(&design, &mem, &dev);
        let narrow = estimate_opts(
            &design,
            &mem,
            &dev,
            &SynthesisOptions {
                bitwidth_narrowing: true,
                ..SynthesisOptions::default()
            },
        );
        // The 10×7-bit products need ~17-bit multipliers instead of
        // 32-bit ones: a large area cut at equal or better speed.
        assert!(
            (narrow.slices as f64) < wide.slices as f64 * 0.75,
            "narrow {} vs wide {}",
            narrow.slices,
            wide.slices
        );
        assert!(narrow.cycles <= wide.cycles);
    }

    #[test]
    fn narrowing_without_annotations_changes_little() {
        let d = fir_design(vec![4, 4]);
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let wide = estimate(&d, &mem, &dev);
        let narrow = estimate_opts(
            &d,
            &mem,
            &dev,
            &SynthesisOptions {
                bitwidth_narrowing: true,
                ..SynthesisOptions::default()
            },
        );
        // i32 arrays without annotations keep i32 datapaths; only loop
        // counters and flags narrow.
        assert!(narrow.slices <= wide.slices);
        assert!(narrow.slices as f64 > wide.slices as f64 * 0.80);
    }

    #[test]
    fn packing_cuts_memory_time_for_small_types() {
        use defacto_xform::{transform, TransformOptions, UnrollVector};
        // PAT: u8 string data on 32-bit memories — four characters per
        // word.
        let k = defacto_ir::parse_kernel(
            "kernel pat { in S: u8[64]; in P: u8[16]; inout M: i16[48];
               for j in 0..48 { for i in 0..16 {
                 M[j] = M[j] + (S[i + j] == P[i]); } } }",
        )
        .unwrap();
        let design =
            transform(&k, &UnrollVector(vec![4, 4]), &TransformOptions::default()).unwrap();
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let unpacked = estimate(&design, &mem, &dev);
        let packed = estimate_opts(
            &design,
            &mem,
            &dev,
            &SynthesisOptions {
                pack_small_types: true,
                ..SynthesisOptions::default()
            },
        );
        assert!(
            packed.memory_busy_cycles < unpacked.memory_busy_cycles,
            "packed {} vs unpacked {}",
            packed.memory_busy_cycles,
            unpacked.memory_busy_cycles
        );
        assert!(packed.cycles <= unpacked.cycles);
        // Fewer fetches, same computation: the design leans more compute
        // bound.
        assert!(packed.balance >= unpacked.balance);
    }

    #[test]
    fn packing_is_inert_for_full_width_types() {
        let d = fir_design(vec![4, 4]); // i32 arrays on 32-bit memories
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let a = estimate(&d, &mem, &dev);
        let b = estimate_opts(
            &d,
            &mem,
            &dev,
            &SynthesisOptions {
                pack_small_types: true,
                ..SynthesisOptions::default()
            },
        );
        // Provenance records the configuration (packed on/off), so
        // compare everything else.
        let b_with_a_provenance = Estimate {
            provenance: a.provenance,
            ..b
        };
        assert_eq!(a, b_with_a_provenance);
    }

    #[test]
    fn provenance_records_configuration_and_work() {
        let d = fir_design(vec![2, 2]);
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let plain = estimate(&d, &mem, &dev);
        // FIR's nest has one scheduled segment (the innermost body).
        assert!(plain.provenance.segments >= 1);
        assert!(!plain.provenance.constrained);
        assert!(!plain.provenance.bitwidth_narrowed);
        assert!(!plain.provenance.packed);
        let tuned = estimate_opts(
            &d,
            &mem,
            &dev,
            &SynthesisOptions {
                bitwidth_narrowing: true,
                pack_small_types: true,
                ..SynthesisOptions::default()
            },
        );
        assert!(tuned.provenance.bitwidth_narrowed);
        assert!(tuned.provenance.packed);
        assert!(!tuned.provenance.constrained);
        use crate::constraints::ResourceConstraints;
        use crate::oplib::HwOp;
        let capped = estimate_constrained(
            &d,
            &mem,
            &dev,
            &ResourceConstraints::new().with_limit(HwOp::Mul, 2),
        );
        assert!(capped.provenance.constrained);
    }

    const FLAGS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

    /// `plan`'s estimates for all four flag pairs at once, with the work
    /// they took, checked field for field against a plan built for each
    /// pair alone.
    fn estimates_match_single_pair_plans(design: &TransformedDesign) -> EstimatorWork {
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let opts = SynthesisOptions::default();
        let plan = EstimatePlan::new(design, &mem, &dev, &opts, true);
        let before = estimator_work();
        let grouped = plan.estimates(&FLAGS);
        let work = estimator_work().since(&before);
        assert_eq!(grouped.len(), FLAGS.len());
        for (&(narrow, pack), estimate) in FLAGS.iter().zip(&grouped) {
            let alone = EstimatePlan::new(design, &mem, &dev, &opts, narrow)
                .estimates(&[(narrow, pack)])
                .remove(0);
            assert_eq!(*estimate, alone, "flags ({narrow}, {pack})");
            assert_eq!(estimate.provenance.bitwidth_narrowed, narrow);
            assert_eq!(estimate.provenance.packed, pack);
            let sopts = SynthesisOptions {
                bitwidth_narrowing: narrow,
                pack_small_types: pack,
                ..SynthesisOptions::default()
            };
            assert_eq!(*estimate, estimate_opts(design, &mem, &dev, &sopts));
        }
        work
    }

    /// SOBEL's narrowed operators keep their latencies, so its narrow
    /// siblings reuse the wide schedules and only reallocate operators.
    #[test]
    fn sobel_narrow_siblings_share_wide_timing() {
        let k = parse_kernel(
            "kernel sobel { in I: u8[34][34]; out E: i16[34][34];
               var gx: i16; var gy: i16; var mag: i16;
               for i in 1..33 { for j in 1..33 {
                 gx = (I[i - 1][j + 1] + 2 * I[i][j + 1] + I[i + 1][j + 1])
                    - (I[i - 1][j - 1] + 2 * I[i][j - 1] + I[i + 1][j - 1]);
                 gy = (I[i + 1][j - 1] + 2 * I[i + 1][j] + I[i + 1][j + 1])
                    - (I[i - 1][j - 1] + 2 * I[i - 1][j] + I[i - 1][j + 1]);
                 mag = abs(gx) + abs(gy);
                 E[i][j] = mag > 255 ? 255 : mag; } } }",
        )
        .unwrap();
        let design =
            transform(&k, &UnrollVector(vec![2, 4]), &TransformOptions::default()).unwrap();
        let work = estimates_match_single_pair_plans(&design);
        let segments = estimate(
            &design,
            &MemoryModel::wildstar_pipelined(),
            &FpgaDevice::virtex1000(),
        )
        .provenance
        .segments as u64;
        assert!(segments > 1, "a jammed SOBEL has a peeled prologue");
        assert_eq!(work.full_schedules, 2 * segments);
        assert_eq!(work.allocation_schedules, 2 * segments);
    }

    /// A narrowed multiplier of 8 bits or fewer is faster, so the narrow
    /// siblings schedule the segments that multiply on their own.
    #[test]
    fn faster_narrow_multipliers_schedule_separately() {
        let k = parse_kernel(
            "kernel fir {
               in S: i32[96] range -8..7;
               in C: i32[32] range -8..7;
               inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        )
        .unwrap();
        let design =
            transform(&k, &UnrollVector(vec![2, 4]), &TransformOptions::default()).unwrap();
        let work = estimates_match_single_pair_plans(&design);
        let segments = estimate(
            &design,
            &MemoryModel::wildstar_pipelined(),
            &FpgaDevice::virtex1000(),
        )
        .provenance
        .segments as u64;
        // Segments without a multiply still share their wide timing.
        assert_eq!(
            work.full_schedules + work.allocation_schedules,
            4 * segments
        );
        assert!(work.full_schedules > 2 * segments, "{work:?}");
    }

    #[test]
    fn plans_infer_ranges_only_when_narrowing() {
        let d = fir_design(vec![2, 2]);
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        let opts = SynthesisOptions::default();
        let before = estimator_work();
        EstimatePlan::new(&d, &mem, &dev, &opts, false);
        EstimatePlan::new(&d, &mem, &dev, &opts, true);
        let work = estimator_work().since(&before);
        assert_eq!((work.plans, work.range_inferences), (2, 1));
    }

    #[test]
    #[should_panic(expected = "built without narrowing")]
    fn unplanned_narrowing_is_refused() {
        let d = fir_design(vec![2, 2]);
        let plan = EstimatePlan::new(
            &d,
            &MemoryModel::wildstar_pipelined(),
            &FpgaDevice::virtex1000(),
            &SynthesisOptions::default(),
            false,
        );
        plan.estimates(&[(true, false)]);
    }

    #[test]
    fn estimates_are_deterministic() {
        let d = fir_design(vec![4, 2]);
        let mem = MemoryModel::wildstar_pipelined();
        let dev = FpgaDevice::virtex1000();
        assert_eq!(estimate(&d, &mem, &dev), estimate(&d, &mem, &dev));
    }
}
