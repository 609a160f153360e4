//! Datapath dataflow-graph construction.
//!
//! A straight-line segment of the transformed kernel (no loops) lowers to
//! a DFG whose nodes are memory accesses, priced datapath operators,
//! register rotations, and a shared source for live-in values (loop
//! indices, registers carried from earlier segments, constants). Edges
//! are data dependences plus the memory-ordering edges needed for
//! same-array accesses.
//!
//! The builder lowers a segment once for every synthesis-flag view
//! (`FlagDfg`): bit-width narrowing and small-type packing change only
//! operator widths and load placements, never the graph's shape, so one
//! node set carries both annotations and each view reads its own.
//!
//! `if` statements lower to predicated form: both branches evaluate,
//! scalar targets merge through multiplexers, and memory accesses issue
//! unconditionally — the paper's generated code "always performs
//! conditional memory accesses" precisely so scheduling sees a uniform
//! body.

use crate::memory::MemoryModel;
use crate::oplib::{op_spec, HwOp};
use crate::schedule::{SchedNode, Step};
use defacto_analysis::{Interval, RangeInfo};
use defacto_ir::{ArrayAccess, BinOp, DeclIndex, Expr, Kernel, LValue, Name, Stmt};
use defacto_xform::layout::ArrayLayout;
use defacto_xform::MemoryBinding;
use std::collections::HashMap;

/// Scalar names assigned (or rotated) in `stmts`, in program order with
/// repeats — the rename-invariant iteration order for `if` merges.
fn collect_scalar_defs<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Name>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                lhs: LValue::Scalar(n),
                ..
            } => out.push(n),
            Stmt::Assign { .. } => {}
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                collect_scalar_defs(then_body, out);
                collect_scalar_defs(else_body, out);
            }
            Stmt::Rotate(regs) => out.extend(regs.iter()),
            Stmt::For(l) => collect_scalar_defs(&l.body, out),
        }
    }
}

/// Index of a node in its [`Dfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a DFG node does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Values available at cycle 0: constants, loop indices, live-in
    /// registers.
    Source,
    /// A memory read from `bank`.
    Load {
        /// Array being read.
        array: String,
        /// Physical memory bank (from the data layout).
        bank: usize,
        /// Element width.
        bits: u32,
        /// Memory-word class: loads of the same `(array, bank, word)`
        /// fetch the same packed word and share one port slot. Unique per
        /// node when packing is disabled.
        word: i64,
    },
    /// A memory write to `bank`.
    Store {
        /// Array being written.
        array: String,
        /// Physical memory bank.
        bank: usize,
        /// Element width.
        bits: u32,
    },
    /// A datapath operator instance.
    Op {
        /// Operator class.
        op: HwOp,
        /// Operand width.
        bits: u32,
    },
    /// A parallel register rotation (one cycle, no operator area).
    Rotate {
        /// Number of registers in the chain.
        regs: usize,
        /// Register width.
        bits: u32,
    },
}

/// One DFG node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// What it computes.
    pub kind: NodeKind,
    /// Data/ordering predecessors.
    pub preds: Vec<NodeId>,
}

/// A dataflow graph for one straight-line segment: one view of its
/// flag-annotated graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dfg {
    nodes: Vec<Node>,
    graph: FlagDfg,
    view: View,
}

impl Dfg {
    /// Every node as the scheduler sees it.
    pub(crate) fn resolve(&self, mem: &MemoryModel) -> Vec<SchedNode<'_>> {
        self.graph.resolve(self.view, mem)
    }

    /// All nodes, in creation (topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterator over memory access nodes.
    pub fn memory_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Load { .. } | NodeKind::Store { .. }))
    }
}

/// Build the DFG of a straight-line statement list.
///
/// `kernel` provides element/scalar types; `binding` provides the memory
/// bank of every access. Nested loops are not allowed here — the
/// estimator walks loop structure itself and hands only straight-line
/// segments to this builder.
///
/// # Panics
///
/// Panics if `stmts` contains a `For` statement.
pub fn build_dfg(stmts: &[Stmt], kernel: &Kernel, binding: &MemoryBinding) -> Dfg {
    build_dfg_opts(stmts, kernel, binding, &DfgOptions::default())
}

/// Construction options for [`build_dfg_opts`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DfgOptions<'a> {
    /// Value-range information for bit-width narrowing (paper §2.4).
    pub ranges: Option<&'a RangeInfo>,
    /// Memory word width for small-type packing (paper §4: "packing small
    /// data types"): loads of elements sharing a word share one fetch.
    pub pack_word_bits: Option<u32>,
}

/// Like [`build_dfg`], with optional value-range information: when
/// present, operator widths come from the inferred intervals instead of
/// the declared C types — the bit-width narrowing of paper §2.4.
pub fn build_dfg_ranged(
    stmts: &[Stmt],
    kernel: &Kernel,
    binding: &MemoryBinding,
    ranges: Option<&RangeInfo>,
) -> Dfg {
    build_dfg_opts(
        stmts,
        kernel,
        binding,
        &DfgOptions {
            ranges,
            pack_word_bits: None,
        },
    )
}

/// The most general DFG construction entry point: the flag-annotated
/// graph of the segment, viewed under the narrowing/packing `opts` ask
/// for.
pub fn build_dfg_opts(
    stmts: &[Stmt],
    kernel: &Kernel,
    binding: &MemoryBinding,
    opts: &DfgOptions<'_>,
) -> Dfg {
    let view = View {
        narrow: opts.ranges.is_some(),
        pack: opts.pack_word_bits.is_some(),
    };
    FlagDfg::build(
        stmts,
        &DeclIndex::new(kernel),
        binding,
        opts.ranges,
        opts.pack_word_bits,
    )
    .project(view)
}

/// Which synthesis flags a [`FlagDfg`] is read under: bit-width
/// narrowing (paper §2.4) and small-type packing (paper §4). Ordered
/// wide before narrow, so a narrow view follows its wide twin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct View {
    pub narrow: bool,
    pub pack: bool,
}

/// An operator width under both views of narrowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Widths {
    wide: u32,
    narrow: u32,
}

impl Widths {
    fn same(bits: u32) -> Widths {
        Widths {
            wide: bits,
            narrow: bits,
        }
    }

    fn at(self, view: View) -> u32 {
        if view.narrow {
            self.narrow
        } else {
            self.wide
        }
    }
}

/// Where a load fetches from: its bank and memory-word class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Place {
    bank: usize,
    word: i64,
}

/// A [`FlagDfg`] node's work, with every flag-dependent field annotated
/// for both values of its flag. Arrays are indices into
/// [`FlagDfg::arrays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    Source,
    Load {
        array: u32,
        bits: u32,
        unpacked: Place,
        packed: Place,
    },
    Store {
        array: u32,
        bank: usize,
        bits: u32,
    },
    Op {
        op: HwOp,
        bits: Widths,
    },
    Rotate {
        regs: usize,
        bits: Widths,
    },
}

/// The DFG of one straight-line segment under every narrowing/packing
/// view at once. Only operator widths and load placements depend on the
/// flags, so the node set, the edges and the node ids are shared; each
/// node carries its wide and narrowed width and its unpacked and packed
/// `(bank, word)`. Predecessors are stored flat.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FlagDfg {
    kinds: Vec<FlagKind>,
    /// Node `i`'s predecessors are `preds[pred_ends[i - 1]..pred_ends[i]]`.
    preds: Vec<NodeId>,
    pred_ends: Vec<usize>,
    arrays: Vec<Name>,
    /// No operator's latency differs between its wide and narrowed
    /// width, so a narrow view schedules exactly like its wide twin.
    narrow_keeps_timing: bool,
}

impl FlagDfg {
    /// Lower a straight-line segment. Declared types come from `decls`,
    /// narrowed widths from `ranges` and packed placements from
    /// `pack_word_bits`; without them the narrowed (packed) annotation
    /// equals the wide (unpacked) one.
    ///
    /// # Panics
    ///
    /// Panics if `stmts` contains a `For` statement.
    pub(crate) fn build<'s>(
        stmts: impl IntoIterator<Item = &'s Stmt>,
        decls: &DeclIndex<'_>,
        binding: &MemoryBinding,
        ranges: Option<&RangeInfo>,
        pack_word_bits: Option<u32>,
    ) -> FlagDfg {
        let mut b = Builder {
            dfg: FlagDfg {
                kinds: Vec::new(),
                preds: Vec::new(),
                pred_ends: Vec::new(),
                arrays: Vec::new(),
                narrow_keeps_timing: true,
            },
            decls,
            binding,
            ranges,
            pack_word_bits,
            array_names: Vec::new(),
            defs: HashMap::new(),
            def_ranges: HashMap::new(),
            source: None,
            last_store: Vec::new(),
            loads_since_store: Vec::new(),
        };
        for s in stmts {
            b.stmt(s);
        }
        let mut dfg = b.dfg;
        dfg.arrays = b.array_names.into_iter().cloned().collect();
        dfg.narrow_keeps_timing = dfg.kinds.iter().all(|k| match *k {
            FlagKind::Op { op, bits } => {
                op_spec(op, bits.wide).latency == op_spec(op, bits.narrow).latency
            }
            _ => true,
        });
        dfg
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    pub(crate) fn narrow_keeps_timing(&self) -> bool {
        self.narrow_keeps_timing
    }

    fn preds(&self, i: usize) -> &[NodeId] {
        let start = if i == 0 { 0 } else { self.pred_ends[i - 1] };
        &self.preds[start..self.pred_ends[i]]
    }

    /// Every node as the scheduler sees it under `view`.
    pub(crate) fn resolve(&self, view: View, mem: &MemoryModel) -> Vec<SchedNode<'_>> {
        (0..self.len())
            .map(|i| {
                let step = match self.kinds[i] {
                    FlagKind::Source => Step::Source,
                    FlagKind::Load {
                        array,
                        bits,
                        unpacked,
                        packed,
                    } => {
                        let place = if view.pack { packed } else { unpacked };
                        Step::Load {
                            array,
                            bank: place.bank,
                            bits,
                            word: place.word,
                        }
                    }
                    FlagKind::Store { bank, bits, .. } => Step::Store { bank, bits },
                    FlagKind::Op { op, bits } => Step::Op {
                        op,
                        bits: bits.at(view),
                    },
                    FlagKind::Rotate { .. } => Step::Rotate,
                };
                SchedNode::new(self.preds(i), step, mem)
            })
            .collect()
    }

    /// The operator nodes under `view`: `(node index, class, width)`.
    pub(crate) fn ops(&self, view: View) -> impl Iterator<Item = (usize, HwOp, u32)> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(move |(i, k)| match *k {
                FlagKind::Op { op, bits } => Some((i, op, bits.at(view))),
                _ => None,
            })
    }

    /// The plain [`Dfg`] of `view`.
    fn project(self, view: View) -> Dfg {
        let nodes = (0..self.len())
            .map(|i| {
                let kind = match self.kinds[i] {
                    FlagKind::Source => NodeKind::Source,
                    FlagKind::Load {
                        array,
                        bits,
                        unpacked,
                        packed,
                    } => {
                        let place = if view.pack { packed } else { unpacked };
                        NodeKind::Load {
                            array: self.arrays[array as usize].to_string(),
                            bank: place.bank,
                            bits,
                            word: place.word,
                        }
                    }
                    FlagKind::Store { array, bank, bits } => NodeKind::Store {
                        array: self.arrays[array as usize].to_string(),
                        bank,
                        bits,
                    },
                    FlagKind::Op { op, bits } => NodeKind::Op {
                        op,
                        bits: bits.at(view),
                    },
                    FlagKind::Rotate { regs, bits } => NodeKind::Rotate {
                        regs,
                        bits: bits.at(view),
                    },
                };
                Node {
                    id: NodeId(i),
                    kind,
                    preds: self.preds(i).to_vec(),
                }
            })
            .collect();
        Dfg {
            nodes,
            graph: self,
            view,
        }
    }

    fn push(&mut self, kind: FlagKind, preds: &[NodeId]) -> NodeId {
        let id = NodeId(self.kinds.len());
        self.kinds.push(kind);
        self.preds.extend_from_slice(preds);
        self.pred_ends.push(self.preds.len());
        id
    }
}

/// Lowers one segment into a [`FlagDfg`]. Names are borrowed from the
/// statements (`'s`); arrays are numbered in order of first access.
struct Builder<'s, 'a> {
    dfg: FlagDfg,
    decls: &'a DeclIndex<'a>,
    binding: &'a MemoryBinding,
    /// Value-range information for the narrowed annotation.
    ranges: Option<&'a RangeInfo>,
    /// Memory word width for the packed annotation.
    pack_word_bits: Option<u32>,
    /// Array names, indexed by their number.
    array_names: Vec<&'s Name>,
    /// Current producer of each scalar.
    defs: HashMap<&'s str, NodeId>,
    /// Value interval of each scalar's current definition (narrowing).
    def_ranges: HashMap<&'s str, Interval>,
    /// Lazily created shared source node.
    source: Option<NodeId>,
    /// Last store per array number (for load→store ordering).
    last_store: Vec<Option<NodeId>>,
    /// Loads since the last store, per array number (for store→load
    /// ordering).
    loads_since_store: Vec<Vec<NodeId>>,
}

impl<'s> Builder<'s, '_> {
    fn source(&mut self) -> NodeId {
        match self.source {
            Some(s) => s,
            None => {
                let s = self.dfg.push(FlagKind::Source, &[]);
                self.source = Some(s);
                s
            }
        }
    }

    /// The number of `array`, assigned on first access.
    fn array_number(&mut self, array: &'s Name) -> u32 {
        match self.array_names.iter().position(|a| *a == array) {
            Some(n) => n as u32,
            None => {
                self.array_names.push(array);
                self.last_store.push(None);
                self.loads_since_store.push(Vec::new());
                (self.array_names.len() - 1) as u32
            }
        }
    }

    /// A scalar's register width, declared and narrowed.
    fn scalar_bits(&self, name: &str) -> Widths {
        let declared = self
            .decls
            .scalar(name)
            .map(|d| d.ty.bits())
            // Loop index variables: 16-bit counters.
            .unwrap_or(16);
        Widths {
            wide: declared,
            narrow: match self.ranges {
                Some(info) => info.var(name).bits().min(declared),
                None => declared,
            },
        }
    }

    /// Value interval of a scalar read under narrowing.
    fn scalar_interval(&self, name: &str) -> Option<Interval> {
        let info = self.ranges?;
        Some(
            self.def_ranges
                .get(name)
                .copied()
                .unwrap_or_else(|| info.var(name)),
        )
    }

    fn array_bits(&self, array: &str) -> u32 {
        self.decls.array(array).map(|a| a.ty.bits()).unwrap_or(32)
    }

    fn stmt(&mut self, s: &'s Stmt) {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let (v, _, iv) = self.expr(rhs);
                match lhs {
                    LValue::Scalar(n) => {
                        self.defs.insert(n, v);
                        if let Some(iv) = iv {
                            // Values wrap at the declared register width.
                            let ty = self
                                .decls
                                .scalar(n)
                                .map(|d| d.ty)
                                .unwrap_or(defacto_ir::ScalarType::I32);
                            self.def_ranges.insert(n, iv.clamp_to(ty));
                        }
                    }
                    LValue::Array(a) => {
                        self.store(a, v);
                    }
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (c, _, _) = self.expr(cond);
                // Predicated execution: evaluate both branches, mux scalar
                // defs, issue memory accesses unconditionally. Two clones
                // of the def map (pre-branch state for each branch); the
                // merge mutates the restored map in place.
                let saved = self.defs.clone();
                for st in then_body {
                    self.stmt(st);
                }
                let then_defs = std::mem::replace(&mut self.defs, saved.clone());
                for st in else_body {
                    self.stmt(st);
                }
                let else_defs = std::mem::replace(&mut self.defs, saved);
                // Merge in program order of first definition (then branch
                // first), not name order: mux creation order — and with it
                // node ids and register pressure — must be invariant under
                // alpha-renaming so canonically identical kernels estimate
                // identically. Names defined before the `if` and untouched
                // by both branches merge to their own value, so walking
                // only branch-assigned names is equivalent to walking
                // every defined name.
                let mut touched: Vec<&'s Name> = Vec::new();
                collect_scalar_defs(then_body, &mut touched);
                collect_scalar_defs(else_body, &mut touched);
                let mut seen = std::collections::HashSet::new();
                touched.retain(|n| seen.insert(*n));
                for name in touched {
                    let name = name.as_str();
                    let t = then_defs.get(name).copied();
                    let e = else_defs.get(name).copied();
                    // `self.defs` holds the pre-branch defs again; the
                    // loop only ever overwrites the name it is merging,
                    // so later lookups still see pre-branch values.
                    let pre = self.defs.get(name).copied();
                    let (t, e) = (t.or(pre), e.or(pre));
                    match (t, e) {
                        (Some(tv), Some(ev)) if tv == ev => {
                            self.defs.insert(name, tv);
                        }
                        (Some(tv), Some(ev)) => {
                            let bits = self.scalar_bits(name);
                            let mux = self.dfg.push(
                                FlagKind::Op {
                                    op: HwOp::Mux,
                                    bits,
                                },
                                &[c, tv, ev],
                            );
                            self.defs.insert(name, mux);
                        }
                        (Some(tv), None) | (None, Some(tv)) => {
                            // Defined on one path only and not before:
                            // keep the defined value (estimation only).
                            self.defs.insert(name, tv);
                        }
                        (None, None) => {}
                    }
                }
            }
            Stmt::Rotate(regs) => {
                let bits = regs
                    .first()
                    .map(|r| self.scalar_bits(r))
                    .unwrap_or(Widths::same(32));
                let mut preds: Vec<NodeId> = regs
                    .iter()
                    .filter_map(|r| self.defs.get(r.as_str()).copied())
                    .collect();
                preds.sort();
                preds.dedup();
                let rot = self.dfg.push(
                    FlagKind::Rotate {
                        regs: regs.len(),
                        bits,
                    },
                    &preds,
                );
                // The rotation redefines every register in the chain.
                if self.ranges.is_some() {
                    let all = regs
                        .iter()
                        .filter_map(|r| self.scalar_interval(r))
                        .reduce(Interval::union);
                    if let Some(all) = all {
                        for r in regs {
                            self.def_ranges.insert(r, all);
                        }
                    }
                }
                for r in regs {
                    self.defs.insert(r, rot);
                }
            }
            Stmt::For(_) => panic!("build_dfg: loops must be handled by the estimator"),
        }
    }

    fn store(&mut self, a: &'s ArrayAccess, value: NodeId) {
        let bits = self.array_bits(&a.array);
        let bank = self.binding.bank_of(a);
        let array = self.array_number(&a.array);
        let n = array as usize;
        let mut preds = vec![value];
        if let Some(prev) = self.last_store[n] {
            preds.push(prev);
        }
        preds.append(&mut self.loads_since_store[n]);
        preds.sort();
        preds.dedup();
        let st = self.dfg.push(FlagKind::Store { array, bank, bits }, &preds);
        self.last_store[n] = Some(st);
    }

    /// Returns the producing node, the operator width to price it at,
    /// and (under narrowing) the value interval.
    fn expr(&mut self, e: &'s Expr) -> (NodeId, Widths, Option<Interval>) {
        match e {
            Expr::Int(v) => {
                let iv = self.ranges.map(|_| Interval::point(*v));
                let bits = Widths {
                    wide: 32,
                    narrow: iv.map(Interval::bits).unwrap_or(32),
                };
                (self.source(), bits, iv)
            }
            Expr::Scalar(n) => {
                let iv = self.scalar_interval(n);
                let declared = self.scalar_bits(n);
                let bits = Widths {
                    wide: declared.wide,
                    narrow: match iv {
                        Some(i) => i.bits().min(declared.narrow.max(1)),
                        None => declared.narrow,
                    },
                };
                match self.defs.get(n.as_str()).copied() {
                    Some(d) => (d, bits, iv),
                    None => (self.source(), bits, iv),
                }
            }
            Expr::Load(a) => {
                // Memory transfers move whole declared-width elements; the
                // *value* may be narrower under an annotation.
                let mem_bits = self.array_bits(&a.array);
                let iv = self.ranges.map(|info| info.array(&a.array));
                let bits = Widths {
                    wide: mem_bits,
                    narrow: iv.map(|i| i.bits().min(mem_bits)).unwrap_or(mem_bits),
                };
                // Word class: unpacked, every load is its own word.
                // Packed, elements of a small-typed array share the fetch
                // of their memory word, and packing also changes the
                // layout — packed arrays distribute cyclically by *word*
                // (phaseless), so the elements of one word actually live
                // together.
                let unpacked = Place {
                    bank: self.binding.bank_of(a),
                    word: self.dfg.len() as i64 + (1 << 40),
                };
                let packed = match self.pack_word_bits {
                    Some(word_bits) if mem_bits < word_bits => {
                        let epw = (word_bits / mem_bits).max(1) as i64;
                        let word = self.binding.flat_offset(a).div_euclid(epw);
                        let bank = match self.binding.layout(&a.array) {
                            Some(ArrayLayout::Single { bank }) => bank,
                            _ => {
                                word.rem_euclid(self.binding.num_memories().max(1) as i64) as usize
                            }
                        };
                        Place { bank, word }
                    }
                    _ => unpacked,
                };
                let array = self.array_number(&a.array);
                let n = array as usize;
                let prev = self.last_store[n];
                let ld = self.dfg.push(
                    FlagKind::Load {
                        array,
                        bits: mem_bits,
                        unpacked,
                        packed,
                    },
                    prev.as_slice(),
                );
                self.loads_since_store[n].push(ld);
                (ld, bits, iv)
            }
            Expr::Unary(op, inner) => {
                let (v, bits, iv) = self.expr(inner);
                let riv = iv.map(|i| match op {
                    defacto_ir::UnOp::Neg => i.neg(),
                    defacto_ir::UnOp::Abs => i.abs(),
                    defacto_ir::UnOp::Not => Interval::new(
                        i.hi.saturating_neg().saturating_sub(1),
                        i.lo.saturating_neg().saturating_sub(1),
                    ),
                });
                let rbits = Widths {
                    wide: bits.wide,
                    narrow: riv.map(Interval::bits).unwrap_or(bits.narrow),
                };
                let node = self.dfg.push(
                    FlagKind::Op {
                        op: HwOp::of_unop(*op),
                        bits: rbits,
                    },
                    &[v],
                );
                (node, rbits, riv)
            }
            Expr::Binary(op, lhs, rhs) => {
                // Strength reduction information: constant (power-of-two)
                // right operand. Multiplication is commutative, so a
                // constant left operand counts too.
                let (const_side, pow2) = match (&**lhs, &**rhs, op) {
                    (_, Expr::Int(v), _) => (true, v.abs().count_ones() == 1),
                    (Expr::Int(v), _, BinOp::Mul) => (true, v.abs().count_ones() == 1),
                    _ => (false, false),
                };
                let (a, ba, ia) = self.expr(lhs);
                let (b, bb, ib) = self.expr(rhs);
                let riv = match (ia, ib) {
                    (Some(x), Some(y)) => Some(match op {
                        BinOp::Add => x.add(y),
                        BinOp::Sub => x.sub(y),
                        BinOp::Mul => x.mul(y),
                        BinOp::Div => x.div(y),
                        BinOp::Rem => x.rem(y),
                        BinOp::Shl => {
                            if y.lo == y.hi && (0..32).contains(&y.lo) {
                                x.mul(Interval::point(1i64 << y.lo))
                            } else {
                                Interval::of_type(defacto_ir::ScalarType::I32)
                            }
                        }
                        BinOp::Shr => {
                            if y.lo == y.hi && (0..32).contains(&y.lo) {
                                x.div(Interval::point(1i64 << y.lo))
                            } else {
                                x.union(Interval::point(0))
                            }
                        }
                        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                            Interval::new(0, 1)
                        }
                        BinOp::And | BinOp::Or | BinOp::Xor => {
                            let bits = x.union(y).bits().min(62);
                            if x.lo >= 0 && y.lo >= 0 {
                                Interval::new(0, (1i64 << bits) - 1)
                            } else {
                                Interval::new(-(1i64 << (bits - 1)).max(1), (1i64 << bits) - 1)
                            }
                        }
                    }),
                    _ => None,
                };
                // Operator width: declared-width rule when wide;
                // interval-driven when narrowed (the wider operand still
                // has to flow through the unit).
                let bits = Widths {
                    wide: ba.wide.max(bb.wide),
                    narrow: match (riv, ia, ib) {
                        (Some(r), Some(x), Some(y)) => r
                            .bits()
                            .max(x.bits())
                            .max(y.bits())
                            .min(ba.narrow.max(bb.narrow).max(1)),
                        _ => ba.narrow.max(bb.narrow),
                    },
                };
                let hw = HwOp::of_binop(*op, const_side, pow2);
                let node = self.dfg.push(FlagKind::Op { op: hw, bits }, &[a, b]);
                let out_bits = if op.is_comparison() {
                    Widths::same(1)
                } else {
                    bits
                };
                (node, out_bits, riv)
            }
            Expr::Select(c, t, f) => {
                let (cn, _, _) = self.expr(c);
                let (tn, bt, it) = self.expr(t);
                let (fn_, bf, if_) = self.expr(f);
                let riv = match (it, if_) {
                    (Some(x), Some(y)) => Some(x.union(y)),
                    _ => None,
                };
                let bits = Widths {
                    wide: bt.wide.max(bf.wide),
                    narrow: riv
                        .map(Interval::bits)
                        .unwrap_or_else(|| bt.narrow.max(bf.narrow)),
                };
                let node = self.dfg.push(
                    FlagKind::Op {
                        op: HwOp::Mux,
                        bits,
                    },
                    &[cn, tn, fn_],
                );
                (node, bits, riv)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::parse_kernel;
    use defacto_xform::assign_memories;

    fn dfg_for(src: &str) -> (Dfg, Kernel) {
        let k = parse_kernel(src).unwrap();
        let binding = assign_memories(&k, 4);
        let nest = k.perfect_nest().unwrap();
        let dfg = build_dfg(nest.innermost_body(), &k, &binding);
        (dfg, k)
    }

    #[test]
    fn fir_body_structure() {
        let (dfg, _) = dfg_for(
            "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
               for j in 0..64 { for i in 0..32 {
                 D[j] = D[j] + S[i + j] * C[i]; } } }",
        );
        let loads = dfg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Load { .. }))
            .count();
        let stores = dfg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Store { .. }))
            .count();
        let ops = dfg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Op { .. }))
            .count();
        assert_eq!(loads, 3);
        assert_eq!(stores, 1);
        assert_eq!(ops, 2); // one mul, one add

        // The store depends (transitively) on the add.
        let store = dfg
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Store { .. }))
            .unwrap();
        assert!(!store.preds.is_empty());
    }

    #[test]
    fn predicated_if_makes_mux_and_unconditional_store() {
        let (dfg, _) = dfg_for(
            "kernel p { in A: i32[8]; out B: i32[8]; var t: i32;
               for i in 0..8 {
                 if (A[i] > 0) { t = A[i]; } else { t = 0 - A[i]; }
                 B[i] = t;
               } }",
        );
        let muxes = dfg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Op { op: HwOp::Mux, .. }))
            .count();
        assert_eq!(muxes, 1);
        let stores = dfg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Store { .. }))
            .count();
        assert_eq!(stores, 1);
    }

    #[test]
    fn memory_ordering_edges() {
        // Store then load of the same array: the load must wait.
        let (dfg, _) = dfg_for(
            "kernel so { inout A: i32[8];
               for i in 0..4 {
                 A[i] = 1;
                 A[i + 4] = A[i] + 1;
               } }",
        );
        let nodes = dfg.nodes();
        let first_store = nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Store { .. }))
            .unwrap();
        let load_after = nodes
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Load { .. }))
            .unwrap();
        assert!(load_after.preds.contains(&first_store.id));
    }

    #[test]
    fn strength_reduced_mul_by_constant() {
        let (dfg, _) = dfg_for(
            "kernel sr { in A: i32[8]; out B: i32[8];
               for i in 0..8 { B[i] = A[i] * 4 + A[i] * 3; } }",
        );
        let shifts = dfg
            .nodes()
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    NodeKind::Op {
                        op: HwOp::ConstShift,
                        ..
                    }
                )
            })
            .count();
        let muls = dfg
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Op { op: HwOp::Mul, .. }))
            .count();
        assert_eq!(shifts, 1); // ×4
        assert_eq!(muls, 1); // ×3
    }

    #[test]
    fn rotate_node_redefines_registers() {
        let k = parse_kernel(
            "kernel r { out B: i32[2]; var r0: i32; var r1: i32;
               for i in 0..2 {
                 r0 = 1;
                 rotate(r0, r1);
                 B[i] = r0;
               } }",
        )
        .unwrap();
        let binding = assign_memories(&k, 1);
        let nest = k.perfect_nest().unwrap();
        let dfg = build_dfg(nest.innermost_body(), &k, &binding);
        let rot = dfg
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Rotate { .. }))
            .unwrap();
        // The store of B[i] uses r0 as redefined by the rotation.
        let store = dfg
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Store { .. }))
            .unwrap();
        assert!(store.preds.contains(&rot.id));
    }

    #[test]
    #[should_panic(expected = "loops must be handled")]
    fn loops_rejected() {
        let k = parse_kernel("kernel l { out B: i32[4]; for i in 0..4 { B[i] = 0; } }").unwrap();
        let binding = assign_memories(&k, 1);
        build_dfg(k.body(), &k, &binding);
    }
}
