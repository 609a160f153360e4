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

use crate::oplib::{op_spec, HwOp};
use crate::schedule::Step;
use defacto_analysis::{narrowed_bits, Interval, RangeInfo};
use defacto_ir::name::Found;
use defacto_ir::{
    ArrayAccess, BinOp, DeclIndex, Expr, Kernel, LValue, Name, NameResolver, ScalarType, Stmt,
};
use defacto_xform::layout::{ArrayLayout, BoundArray};
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
    /// The flag-annotated graph and the view this DFG reads it under.
    pub(crate) fn flags(&self) -> (&FlagDfg, View) {
        (&self.graph, self.view)
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
pub(crate) struct Widths {
    pub wide: u32,
    pub narrow: u32,
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

/// Where a load fetches from: its bank and, when it may share the
/// fetch of a packed memory word, that word. A load without a word
/// always fetches alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Place {
    pub bank: usize,
    pub word: Option<Word>,
}

impl Place {
    /// The public word class of node `id` fetching from here: loads
    /// that never share get a class of their own.
    fn word_class(self, id: usize) -> i64 {
        self.word.map_or(id as i64 + (1 << 40), |w| w.index)
    }
}

/// A packed memory word of one array: its index among the array's
/// words, and its dense slot among the packed words of the whole
/// segment. Loads of one array and word share the word's fetch, and so
/// share a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Word {
    pub index: i64,
    pub slot: u32,
}

/// A [`FlagDfg`] node's work, with every flag-dependent field annotated
/// for both values of its flag. Arrays are indices into
/// [`FlagDfg::arrays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlagKind {
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
/// `(bank, word)`. Predecessors and successors are stored flat, with
/// repeats: a node reading one value twice lists its producer twice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FlagDfg {
    kinds: Vec<FlagKind>,
    /// Node `i`'s predecessors are `preds[pred_ends[i - 1]..pred_ends[i]]`.
    preds: Vec<NodeId>,
    pred_ends: Vec<usize>,
    /// Node `i`'s successors are `succs[succ_ends[i - 1]..succ_ends[i]]`,
    /// in id order.
    succs: Vec<u32>,
    succ_ends: Vec<usize>,
    arrays: Vec<Name>,
    /// Number of packed-word slots (see [`Word`]).
    words: usize,
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
        let stmts = stmts.into_iter();
        let mut b = Builder {
            dfg: FlagDfg::default(),
            decls,
            binding,
            ranges,
            pack_word_bits,
            // Room for about one scalar per statement: growing both maps
            // from empty cost the many-register segments of matrix
            // multiply more than sizing them up front.
            scalar_names: NameResolver::with_capacity(stmts.size_hint().0),
            scalars: Vec::new(),
            defs: Vec::new(),
            arrays: Vec::new(),
            source: None,
        };
        for s in stmts {
            b.stmt(s);
        }
        let mut dfg = b.dfg;
        dfg.arrays = b.arrays.into_iter().map(|a| a.name.clone()).collect();
        dfg.finish();
        dfg
    }

    /// Derive what the node list implies: packed-word slots, successor
    /// lists and whether narrowing keeps every latency.
    pub(crate) fn finish(&mut self) {
        // Slots by (array, word index): a packed word's bank follows from
        // its array's layout and index, so these are the fetches that
        // can share.
        let mut slots: HashMap<(u32, i64), u32> = HashMap::new();
        for kind in &mut self.kinds {
            if let FlagKind::Load {
                array,
                packed: Place {
                    word: Some(word), ..
                },
                ..
            } = kind
            {
                let next = slots.len() as u32;
                word.slot = *slots.entry((*array, word.index)).or_insert(next);
            }
        }
        self.words = slots.len();
        // Successor lists: count, turn counts into list starts, then
        // fill in id order, leaving each start at its list's end.
        let mut ends = vec![0usize; self.len()];
        for p in &self.preds {
            ends[p.0] += 1;
        }
        let mut sum = 0;
        for e in &mut ends {
            sum += std::mem::replace(e, sum);
        }
        let mut succs = vec![0; self.preds.len()];
        for i in 0..self.len() {
            for p in self.preds(i) {
                succs[ends[p.0]] = i as u32;
                ends[p.0] += 1;
            }
        }
        self.succs = succs;
        self.succ_ends = ends;
        self.narrow_keeps_timing = self.kinds.iter().all(|k| match *k {
            FlagKind::Op { op, bits } => {
                op_spec(op, bits.wide).latency == op_spec(op, bits.narrow).latency
            }
            _ => true,
        });
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.kinds.len()
    }

    pub(crate) fn narrow_keeps_timing(&self) -> bool {
        self.narrow_keeps_timing
    }

    /// Node `i`'s predecessors.
    pub(crate) fn preds(&self, i: usize) -> &[NodeId] {
        let start = if i == 0 { 0 } else { self.pred_ends[i - 1] };
        &self.preds[start..self.pred_ends[i]]
    }

    /// Node `i`'s successors, in id order.
    pub(crate) fn succs(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.succ_ends[i - 1] };
        &self.succs[start..self.succ_ends[i]]
    }

    /// Number of packed-word slots ([`Word::slot`] is below it).
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Whether node `i` is a store, under every view.
    pub(crate) fn is_store(&self, i: usize) -> bool {
        matches!(self.kinds[i], FlagKind::Store { .. })
    }

    /// Node `i` under every view.
    #[cfg(test)]
    pub(crate) fn kind(&self, i: usize) -> FlagKind {
        self.kinds[i]
    }

    /// Node `i` as the scheduler sees it under `view`.
    pub(crate) fn step(&self, i: usize, view: View) -> Step {
        match self.kinds[i] {
            FlagKind::Source => Step::Source,
            FlagKind::Load {
                bits,
                unpacked,
                packed,
                ..
            } => {
                let place = if view.pack { packed } else { unpacked };
                Step::Load {
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
        }
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
                            word: place.word_class(i),
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

    pub(crate) fn push(&mut self, kind: FlagKind, preds: &[NodeId]) -> NodeId {
        let id = NodeId(self.kinds.len());
        self.kinds.push(kind);
        self.preds.extend_from_slice(preds);
        self.pred_ends.push(self.preds.len());
        id
    }
}

/// Lowers one segment into a [`FlagDfg`]. Names are borrowed from the
/// statements (`'s`), which outlive the builder. Scalars are numbered on
/// first reference through a [`NameResolver`], so a reference to a clone
/// of a name seen before costs one hash of its address, and a scalar's
/// declaration and whole-kernel range are looked up once per segment.
/// Arrays are numbered on first access by a scan of the few arrays
/// seen so far.
struct Builder<'s, 'a> {
    dfg: FlagDfg,
    decls: &'a DeclIndex<'a>,
    binding: &'a MemoryBinding,
    /// Value-range information for the narrowed annotation.
    ranges: Option<&'a RangeInfo>,
    /// Memory word width for the packed annotation.
    pack_word_bits: Option<u32>,
    /// Scalar numbers, by address and then by text.
    scalar_names: NameResolver<'s>,
    /// Scalars, indexed by their number.
    scalars: Vec<ScalarSlot>,
    /// Current producer of each scalar, by number. The only state an
    /// `if` saves and restores.
    defs: Vec<Option<NodeId>>,
    /// Arrays, indexed by their number.
    arrays: Vec<ArraySlot<'s, 'a>>,
    /// Lazily created shared source node.
    source: Option<NodeId>,
}

/// What the builder knows about one scalar of the segment.
struct ScalarSlot {
    /// Register width, declared and narrowed.
    bits: Widths,
    /// Declared type: assigned values wrap at its width.
    ty: ScalarType,
    /// Whole-kernel interval (narrowing only).
    whole: Option<Interval>,
    /// Value interval of the current definition (narrowing). Persists
    /// across both branches of an `if`.
    def_range: Option<Interval>,
}

impl ScalarSlot {
    /// Value interval of a read under narrowing.
    fn interval(&self) -> Option<Interval> {
        self.def_range.or(self.whole)
    }
}

/// What the builder knows about one array of the segment.
struct ArraySlot<'s, 'a> {
    name: &'s Name,
    /// Element width.
    bits: u32,
    /// Element interval (narrowing only).
    interval: Option<Interval>,
    /// Layout and strides across the memories.
    bound: BoundArray<'a>,
    /// Last store (for load→store ordering).
    last_store: Option<NodeId>,
    /// Loads since the last store (for store→load ordering).
    loads_since_store: Vec<NodeId>,
}

impl<'s, 'a> Builder<'s, 'a> {
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

    /// The number of scalar `name`, assigned on first reference.
    fn scalar(&mut self, name: &'s Name) -> usize {
        let (number, found) = self.scalar_names.resolve(name);
        if found == Found::New {
            let decl = self.decls.scalar(name).map(|d| d.ty);
            // Loop index variables: 16-bit counters.
            let declared = decl.map(ScalarType::bits).unwrap_or(16);
            let whole = self.ranges.map(|info| info.var(name));
            self.scalars.push(ScalarSlot {
                bits: Widths {
                    wide: declared,
                    narrow: whole.map_or(declared, |i| narrowed_bits(i, declared)),
                },
                ty: decl.unwrap_or(ScalarType::I32),
                whole,
                def_range: None,
            });
            self.defs.push(None);
        }
        number as usize
    }

    /// The number of `array`, assigned on first access.
    fn array(&mut self, array: &'s Name) -> u32 {
        match self.arrays.iter().position(|a| a.name == array) {
            Some(n) => n as u32,
            None => {
                self.arrays.push(ArraySlot {
                    name: array,
                    bits: self.decls.array(array).map(|a| a.ty.bits()).unwrap_or(32),
                    interval: self.ranges.map(|info| info.array(array)),
                    bound: self.binding.array(array),
                    last_store: None,
                    loads_since_store: Vec::new(),
                });
                (self.arrays.len() - 1) as u32
            }
        }
    }

    fn stmt(&mut self, s: &'s Stmt) {
        match s {
            Stmt::Assign { lhs, rhs } => {
                let (v, _, iv) = self.expr(rhs);
                match lhs {
                    LValue::Scalar(n) => {
                        let id = self.scalar(n);
                        self.defs[id] = Some(v);
                        if let Some(iv) = iv {
                            // Values wrap at the declared register width.
                            let slot = &mut self.scalars[id];
                            slot.def_range = Some(iv.clamp_to(slot.ty));
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
                // defs, issue memory accesses unconditionally. Each branch
                // starts from the pre-branch defs; scalars first numbered
                // inside a branch have no pre-branch def.
                let saved = self.defs.clone();
                for st in then_body {
                    self.stmt(st);
                }
                let then_defs = std::mem::replace(&mut self.defs, saved.clone());
                self.defs.resize(self.scalars.len(), None);
                for st in else_body {
                    self.stmt(st);
                }
                let else_defs = std::mem::replace(&mut self.defs, saved);
                self.defs.resize(self.scalars.len(), None);
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
                let mut seen = vec![false; self.scalars.len()];
                for name in touched {
                    let id = self.scalar(name);
                    if std::mem::replace(&mut seen[id], true) {
                        continue;
                    }
                    let t = then_defs.get(id).copied().flatten();
                    let e = else_defs.get(id).copied().flatten();
                    // `self.defs` holds the pre-branch defs again; the
                    // loop only ever overwrites the scalar it is merging,
                    // so later lookups still see pre-branch values.
                    let pre = self.defs[id];
                    let (t, e) = (t.or(pre), e.or(pre));
                    match (t, e) {
                        (Some(tv), Some(ev)) if tv == ev => {
                            self.defs[id] = Some(tv);
                        }
                        (Some(tv), Some(ev)) => {
                            let bits = self.scalars[id].bits;
                            let mux = self.dfg.push(
                                FlagKind::Op {
                                    op: HwOp::Mux,
                                    bits,
                                },
                                &[c, tv, ev],
                            );
                            self.defs[id] = Some(mux);
                        }
                        (Some(tv), None) | (None, Some(tv)) => {
                            // Defined on one path only and not before:
                            // keep the defined value (estimation only).
                            self.defs[id] = Some(tv);
                        }
                        (None, None) => {}
                    }
                }
            }
            Stmt::Rotate(regs) => {
                let ids: Vec<usize> = regs.iter().map(|r| self.scalar(r)).collect();
                let bits = ids
                    .first()
                    .map(|&r| self.scalars[r].bits)
                    .unwrap_or(Widths::same(32));
                let mut preds: Vec<NodeId> = ids.iter().filter_map(|&r| self.defs[r]).collect();
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
                let all = ids
                    .iter()
                    .filter_map(|&r| self.scalars[r].interval())
                    .reduce(Interval::union);
                for &r in &ids {
                    if all.is_some() {
                        self.scalars[r].def_range = all;
                    }
                    self.defs[r] = Some(rot);
                }
            }
            Stmt::For(_) => panic!("build_dfg: loops must be handled by the estimator"),
        }
    }

    fn store(&mut self, a: &'s ArrayAccess, value: NodeId) {
        let array = self.array(&a.array);
        let slot = &mut self.arrays[array as usize];
        let bank = slot.bound.bank_of(a);
        let bits = slot.bits;
        let mut preds = vec![value];
        if let Some(prev) = slot.last_store {
            preds.push(prev);
        }
        preds.append(&mut slot.loads_since_store);
        preds.sort();
        preds.dedup();
        let st = self.dfg.push(FlagKind::Store { array, bank, bits }, &preds);
        self.arrays[array as usize].last_store = Some(st);
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
                let id = self.scalar(n);
                let iv = self.scalars[id].interval();
                let declared = self.scalars[id].bits;
                let bits = Widths {
                    wide: declared.wide,
                    narrow: match iv {
                        Some(i) => narrowed_bits(i, declared.narrow.max(1)),
                        None => declared.narrow,
                    },
                };
                match self.defs[id] {
                    Some(d) => (d, bits, iv),
                    None => (self.source(), bits, iv),
                }
            }
            Expr::Load(a) => {
                let array = self.array(&a.array);
                let n = array as usize;
                // Memory transfers move whole declared-width elements; the
                // *value* may be narrower under an annotation.
                let mem_bits = self.arrays[n].bits;
                let iv = self.arrays[n].interval;
                let bits = Widths {
                    wide: mem_bits,
                    narrow: iv.map_or(mem_bits, |i| narrowed_bits(i, mem_bits)),
                };
                // Fetch sharing: unpacked, every load fetches alone.
                // Packed, elements of a small-typed array share the fetch
                // of their memory word, and packing also changes the
                // layout — packed arrays distribute cyclically by *word*
                // (phaseless), so the elements of one word actually live
                // together.
                let bound = self.arrays[n].bound;
                let unpacked = Place {
                    bank: bound.bank_of(a),
                    word: None,
                };
                let packed = match self.pack_word_bits {
                    Some(word_bits) if mem_bits < word_bits => {
                        let epw = (word_bits / mem_bits).max(1) as i64;
                        let word = bound.flat_offset(a).div_euclid(epw);
                        let bank = match bound.layout() {
                            Some(ArrayLayout::Single { bank }) => bank,
                            _ => {
                                word.rem_euclid(self.binding.num_memories().max(1) as i64) as usize
                            }
                        };
                        Place {
                            bank,
                            // Numbered when the graph is finished.
                            word: Some(Word {
                                index: word,
                                slot: 0,
                            }),
                        }
                    }
                    _ => unpacked,
                };
                let prev = self.arrays[n].last_store;
                let ld = self.dfg.push(
                    FlagKind::Load {
                        array,
                        bits: mem_bits,
                        unpacked,
                        packed,
                    },
                    prev.as_slice(),
                );
                self.arrays[n].loads_since_store.push(ld);
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
                    (_, Expr::Int(v), _) => (true, v.unsigned_abs().count_ones() == 1),
                    (Expr::Int(v), _, BinOp::Mul) => (true, v.unsigned_abs().count_ones() == 1),
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
                                Interval::of_type(ScalarType::I32)
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
    use defacto_ir::{parse_kernel, AffineExpr};
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

    /// An `if` saves and restores the scalar defs around its branches,
    /// not their def ranges: the range last assigned in program order
    /// stays in force after the `if`, and the estimates pinned by the
    /// digest tests depend on that rule.
    #[test]
    fn an_if_restores_defs_but_not_def_ranges() {
        let k = parse_kernel(
            "kernel d { in A: i32[8] range 0..1000; out B: i32[8]; var t: i32;
               for i in 0..8 {
                 t = A[i];
                 if (A[i] > 5) { t = 3; }
                 B[i] = t + t;
               } }",
        )
        .unwrap();
        let binding = assign_memories(&k, 4);
        let info = defacto_analysis::infer_ranges(&k);
        let nest = k.perfect_nest().unwrap();
        let dfg = build_dfg_ranged(nest.innermost_body(), &k, &binding, Some(&info));
        // The def merges: the load before the `if` against the constant.
        let mux = dfg
            .nodes()
            .iter()
            .find(|n| matches!(n.kind, NodeKind::Op { op: HwOp::Mux, .. }))
            .unwrap();
        let add = dfg
            .nodes()
            .iter()
            .find(|n| {
                matches!(
                    n.kind,
                    NodeKind::Op {
                        op: HwOp::AddSub,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(add.preds, vec![mux.id, mux.id]);
        // `t + t` is priced at the then-branch's range [3, 3], not at
        // t's whole-kernel range [0, 1000].
        assert_eq!(
            add.kind,
            NodeKind::Op {
                op: HwOp::AddSub,
                bits: 2
            }
        );
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
    fn one_scalar_through_two_allocations_lowers_like_one() {
        let k = parse_kernel(
            "kernel a { in A: i16[8] range 0..100; out B: i32[8]; var t: i32;
               for i in 0..8 { t = A[i]; B[i] = t * t + t; } }",
        )
        .unwrap();
        let binding = assign_memories(&k, 2);
        let info = defacto_analysis::infer_ranges(&k);
        let a_i = || Expr::load1("A", AffineExpr::var("i"));
        let body = |write: Name, reads: [Name; 3]| {
            let [r0, r1, r2] = reads;
            vec![
                Stmt::assign(LValue::Scalar(write), a_i()),
                Stmt::assign(
                    LValue::Array(ArrayAccess::new("B", vec![AffineExpr::var("i")])),
                    Expr::add(
                        Expr::mul(Expr::scalar(r0), Expr::scalar(r1)),
                        Expr::scalar(r2),
                    ),
                ),
            ]
        };
        let t = Name::from("t");
        let shared = body(t.clone(), [t.clone(), t.clone(), t]);
        // The write and the reads split over two allocations of `t`.
        let (t1, t2) = (Name::from("t"), Name::from("t"));
        assert!(!std::ptr::eq(t1.as_str(), t2.as_str()));
        let split = body(t1.clone(), [t2.clone(), t1, t2]);
        for ranges in [None, Some(&info)] {
            let opts = DfgOptions {
                ranges,
                pack_word_bits: Some(32),
            };
            assert_eq!(
                build_dfg_opts(&split, &k, &binding, &opts),
                build_dfg_opts(&shared, &k, &binding, &opts),
            );
        }
    }

    #[test]
    #[should_panic(expected = "loops must be handled")]
    fn loops_rejected() {
        let k = parse_kernel("kernel l { out B: i32[4]; for i in 0..4 { B[i] = 0; } }").unwrap();
        let binding = assign_memories(&k, 1);
        build_dfg(k.body(), &k, &binding);
    }
}
