//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary kernels, unroll factors and schedules, not just the paper's
//! five benchmarks.

use defacto::prelude::*;
use defacto_analysis::{analyze_dependences, AccessTable, Interval};
use defacto_ir::{parse_kernel as parse, pretty::print_kernel, run_with_inputs};
use defacto_synth::{schedule_dfg, MemoryModel as Mem};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a random 1-D stencil kernel
/// `B[i] = Σ w_k · A[i + off_k]` with bounded offsets, as DSL text.
fn stencil_kernel(offsets: &[i64], n: usize) -> Kernel {
    let lo = offsets.iter().min().copied().unwrap_or(0).min(0);
    let hi = offsets.iter().max().copied().unwrap_or(0).max(0);
    let a_len = n as i64 + hi - lo;
    let terms: Vec<String> = offsets
        .iter()
        .map(|&o| {
            if o == 0 {
                "A[i]".to_string()
            } else if o > 0 {
                format!("A[i + {o}]")
            } else {
                format!("A[i - {}]", -o)
            }
        })
        .collect();
    let src = format!(
        "kernel st {{
           in A: i32[{a_len}];
           out B: i32[{n}];
           for i in {}..{} {{
             B[i + {}] = {};
           }}
         }}",
        0,
        n,
        0,
        terms.join(" + "),
    );
    // Shift A's subscripts so the minimum offset maps to index 0.
    let src = src
        .replace("A[i", &format!("A[i + {}", -lo))
        .replace("+ -", "- ");
    // The replace above produces "A[i + 0 + k]" shapes; normalize by
    // re-parsing (the parser folds affine constants).
    parse(&src).expect("generated stencil parses")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pretty-printing then re-parsing a generated kernel is the
    /// identity.
    #[test]
    fn prop_pretty_print_round_trips(
        offs in proptest::collection::btree_set(-3i64..=3, 1..4),
        n_pow in 2u32..6,
    ) {
        let offsets: Vec<i64> = offs.into_iter().collect();
        let k = stencil_kernel(&offsets, 1usize << n_pow);
        let printed = print_kernel(&k);
        let back = parse(&printed).expect("printed kernel parses");
        prop_assert_eq!(k, back);
    }

    /// The full pipeline preserves semantics on random stencils for every
    /// divisor unroll factor.
    #[test]
    fn prop_stencil_pipeline_preserves(
        offs in proptest::collection::btree_set(-2i64..=3, 1..4),
        n_pow in 2u32..6,
        u_pow in 0u32..4,
        seed in 0u64..500,
    ) {
        let offsets: Vec<i64> = offs.into_iter().collect();
        let n = 1usize << n_pow;
        let u = 1i64 << u_pow.min(n_pow);
        let k = stencil_kernel(&offsets, n);
        let a_len = k.array("A").unwrap().len();
        let input = defacto_kernels::workload::signal(a_len, seed);
        let design = defacto_xform::transform(
            &k,
            &UnrollVector(vec![u]),
            &TransformOptions::default(),
        ).expect("transforms");
        let (w0, _) = run_with_inputs(&k, &[("A", input.clone())]).expect("runs");
        let (w1, _) = run_with_inputs(&design.kernel, &[("A", input)]).expect("runs");
        prop_assert_eq!(w0.array("B"), w1.array("B"));
    }

    /// Schedules respect dependences and memory-port exclusivity for
    /// arbitrary unrolled FIR bodies under both memory models.
    #[test]
    fn prop_schedule_invariants(
        uj_pow in 0u32..5,
        ui_pow in 0u32..4,
        pipelined in any::<bool>(),
        banks in 1usize..5,
    ) {
        let k = defacto_kernels::fir::kernel();
        let unrolled = defacto_xform::unroll_and_jam(
            &k,
            &[1 << uj_pow, 1 << ui_pow],
        ).expect("unrolls");
        let binding = defacto_xform::assign_memories(&unrolled, banks);
        let nest = unrolled.perfect_nest().expect("nest");
        let dfg = defacto_synth::dfg::build_dfg(nest.innermost_body(), &unrolled, &binding);
        let mem = if pipelined { Mem::pipelined(banks) } else { Mem::non_pipelined(banks) };
        let s = schedule_dfg(&dfg, &mem);

        // (1) No node starts before its predecessors finish.
        for node in dfg.nodes() {
            for p in &node.preds {
                prop_assert!(s.start[node.id.0] >= s.finish[p.0]);
            }
        }
        // (2) Per bank, memory issues never overlap their occupancy.
        for bank in 0..banks {
            let mut issues: Vec<(u64, u64)> = dfg
                .nodes()
                .iter()
                .filter_map(|n| match &n.kind {
                    defacto_synth::NodeKind::Load { bank: b, .. } if *b % banks == bank =>
                        Some((s.start[n.id.0], mem.read_occupancy() as u64)),
                    defacto_synth::NodeKind::Store { bank: b, .. } if *b % banks == bank =>
                        Some((s.start[n.id.0], mem.write_occupancy() as u64)),
                    _ => None,
                })
                .collect();
            issues.sort();
            for w in issues.windows(2) {
                prop_assert!(
                    w[1].0 >= w[0].0 + w[0].1,
                    "bank {bank}: overlapping accesses {:?}",
                    w
                );
            }
        }
        // (3) The busy accounting matches the issue list.
        let total_busy: u64 = s.mem_busy_per_bank.iter().sum();
        let expected: u64 = s.reads as u64 * mem.read_occupancy() as u64
            + s.writes as u64 * mem.write_occupancy() as u64;
        prop_assert_eq!(total_busy, expected);
    }

    /// The Figure-2 search always returns a member of the design space,
    /// never exceeds it in visits, and is invariant to re-running.
    #[test]
    fn prop_search_stays_in_space(
        n_out_pow in 3u32..7,
        n_taps_pow in 2u32..6,
        pipelined in any::<bool>(),
    ) {
        let k = defacto_kernels::fir::kernel_sized(1 << n_out_pow, 1 << n_taps_pow);
        let mem = if pipelined {
            MemoryModel::wildstar_pipelined()
        } else {
            MemoryModel::wildstar_non_pipelined()
        };
        let ex = Explorer::new(&k).memory(mem);
        let (_, space) = ex.analyze().expect("analysis succeeds");
        let r = ex.explore().expect("search succeeds");
        prop_assert!(space.contains(&r.selected.unroll), "{}", r.selected.unroll);
        for v in &r.visited {
            prop_assert!(space.contains(&v.unroll));
        }
        prop_assert!(r.visited.len() as u64 <= space.size());
        prop_assert!(r.selected.estimate.balance.is_finite() || r.selected.estimate.memory_busy_cycles == 0);
    }

    /// Interval arithmetic is sound: for any concrete values inside two
    /// intervals, every arithmetic result lies inside the computed result
    /// interval.
    #[test]
    fn prop_interval_arithmetic_sound(
        a_lo in -1000i64..1000, a_len in 0i64..200,
        b_lo in -1000i64..1000, b_len in 0i64..200,
        pick_a in 0.0f64..=1.0, pick_b in 0.0f64..=1.0,
    ) {
        let ia = Interval::new(a_lo, a_lo + a_len);
        let ib = Interval::new(b_lo, b_lo + b_len);
        let x = a_lo + (pick_a * a_len as f64) as i64;
        let y = b_lo + (pick_b * b_len as f64) as i64;

        let contains = |i: Interval, v: i64| i.lo <= v && v <= i.hi;
        prop_assert!(contains(ia.add(ib), x + y));
        prop_assert!(contains(ia.sub(ib), x - y));
        prop_assert!(contains(ia.mul(ib), x * y));
        prop_assert!(contains(ia.neg(), -x));
        prop_assert!(contains(ia.abs(), x.abs()));
        prop_assert!(contains(ia.union(ib), x));
        prop_assert!(contains(ia.union(ib), y));
        let div = if y == 0 { 0 } else { x / y };
        prop_assert!(contains(ia.div(ib), div), "{x}/{y}={div} not in {:?}", ia.div(ib));
        let rem = if y == 0 { 0 } else { x % y };
        prop_assert!(contains(ia.rem(ib), rem), "{x}%{y}={rem} not in {:?}", ia.rem(ib));
    }

    /// Interval bit counts are sufficient: every value of the interval
    /// survives a round trip through a register of the computed width.
    #[test]
    fn prop_interval_bits_sufficient(
        lo in -100_000i64..100_000, len in 0i64..10_000, pick in 0.0f64..=1.0,
    ) {
        let i = Interval::new(lo, lo + len);
        let v = lo + (pick * len as f64) as i64;
        let bits = i.bits();
        prop_assert!((1..=64).contains(&bits));
        // Two's-complement round trip at `bits` width.
        let m = 1i128 << bits;
        let wrapped = (((v as i128 % m) + m) % m) as i64;
        let signed = if i.lo < 0 && wrapped >= (m / 2) as i64 {
            wrapped - m as i64
        } else {
            wrapped
        };
        prop_assert_eq!(signed, v, "width {} too narrow for {} in {:?}", bits, v, i);
    }

    /// Bit-width narrowing never changes cycles upward or semantics — it
    /// is purely an estimation refinement.
    #[test]
    fn prop_narrowing_only_shrinks(
        sbits in 4u32..16,
        u_pow in 0u32..4,
    ) {
        let hi = (1i64 << (sbits - 1)) - 1;
        let k = parse_kernel(&format!(
            "kernel f {{
               in S: i32[96] range {}..{hi};
               in C: i32[32] range {}..{hi};
               inout D: i32[64];
               for j in 0..64 {{ for i in 0..32 {{
                 D[j] = D[j] + S[i + j] * C[i]; }} }}
             }}",
            -hi - 1, -hi - 1,
        )).expect("parses");
        let u = UnrollVector(vec![1 << u_pow, 1]);
        let wide = Explorer::new(&k).evaluate(&u).expect("evaluates").estimate;
        let narrow = Explorer::new(&k)
            .bitwidth_narrowing(true)
            .evaluate(&u)
            .expect("evaluates")
            .estimate;
        prop_assert!(narrow.slices <= wide.slices);
        prop_assert!(narrow.cycles <= wide.cycles);
        prop_assert_eq!(narrow.bits_from_memory, wide.bits_from_memory);
    }

    /// The parser is total: arbitrary input text returns a parse error or
    /// a kernel, never panics.
    #[test]
    fn prop_parser_never_panics(text in ".{0,200}") {
        let _ = parse(&text);
    }

    /// Near-miss kernels (valid prefix + mutation) also never panic and
    /// either parse or produce a positioned error.
    #[test]
    fn prop_mutated_kernel_never_panics(
        cut in 0usize..120,
        junk in "[a-z0-9\\[\\]{}();:=+*<>,. ]{0,40}",
    ) {
        let base = "kernel k { in A: i32[8]; out B: i32[8]; for i in 0..8 { B[i] = A[i] * 2; } }";
        let cut = cut.min(base.len());
        let mutated = format!("{}{}", &base[..cut], junk);
        match parse(&mutated) {
            Ok(k) => prop_assert_eq!(k.name(), "k"),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Dependence analysis is symmetric in its conservative direction:
    /// shifting every constant offset of a stencil by the same amount
    /// leaves the dependence structure unchanged.
    #[test]
    fn prop_dependences_shift_invariant(
        offs in proptest::collection::btree_set(-2i64..=2, 1..4),
        shift in -2i64..=2,
    ) {
        let offsets: Vec<i64> = offs.iter().copied().collect();
        let shifted: Vec<i64> = offsets.iter().map(|o| o + shift).collect();
        let k1 = stencil_kernel(&offsets, 16);
        let k2 = stencil_kernel(&shifted, 16);
        let deps = |k: &Kernel| {
            let nest = k.perfect_nest().unwrap();
            let t = AccessTable::from_stmts(nest.innermost_body());
            let vars = nest.vars();
            let g = analyze_dependences(&t, &vars);
            let mut d: Vec<_> = g
                .deps()
                .iter()
                .map(|d| (d.kind, d.distance.clone()))
                .collect();
            d.sort_by_key(|x| format!("{x:?}"));
            d
        };
        prop_assert_eq!(deps(&k1), deps(&k2));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The legacy unroll-only `DesignSpace` round-trips through the
    /// multi-axis machinery as a degenerate joint space: the same points
    /// in the same order with nothing for legality to prune, bit-identical
    /// sweep estimates, and Figure-2 selections, visit lists, traces and
    /// deterministic `EvalStats` counters that match the classic path —
    /// sampled over the five paper kernels, both memory models, at 1 and
    /// 8 workers.
    #[test]
    fn prop_unroll_only_axes_round_trip(
        idx in 0usize..5,
        pipelined in any::<bool>(),
    ) {
        let kernels = defacto_kernels::paper_kernels();
        let (_name, k) = &kernels[idx];
        let mem = if pipelined {
            MemoryModel::wildstar_pipelined()
        } else {
            MemoryModel::wildstar_non_pipelined()
        };

        // Space and sweep parity (worker-count independent; untraced).
        let classic = Explorer::new(k).memory(mem.clone());
        let joint = Explorer::new(k).memory(mem.clone()).axes(&[Axis::Unroll]);
        let (_, space) = classic.analyze().expect("classic analysis");
        let jspace = joint.joint_space().expect("joint space");
        let legacy: Vec<UnrollVector> = space.iter().collect();
        prop_assert_eq!(jspace.joint_points().len() as u64, space.size());
        for (jp, cu) in jspace.joint_points().iter().zip(&legacy) {
            prop_assert!(jp.is_unroll_only(), "{jp:?} is not a pure unroll point");
            prop_assert_eq!(&jp.unroll_vector(), cu);
        }
        if let Some(p) = jspace.pruned_counts() {
            prop_assert_eq!(p.permutations + p.unroll_perm + p.tiles, 0);
        }
        let classic_sweep = classic.sweep().expect("classic sweep");
        let joint_sweep = joint.joint_sweep().expect("joint sweep");
        prop_assert_eq!(joint_sweep.len(), classic_sweep.len());
        for (j, c) in joint_sweep.iter().zip(&classic_sweep) {
            prop_assert_eq!(j.point.unroll_vector(), c.unroll.clone());
            prop_assert_eq!(&j.estimate, &c.estimate);
        }

        // The Figure-2 search is bit-identical between the classic and
        // the degenerate-joint explorer, and across worker counts.
        let mut per_workers: Vec<(UnrollVector, String)> = Vec::new();
        for workers in [1usize, 8] {
            let classic_sink = Arc::new(MemorySink::new());
            let joint_sink = Arc::new(MemorySink::new());
            let classic = Explorer::new(k)
                .memory(mem.clone())
                .threads(workers)
                .trace(classic_sink.clone());
            let joint = Explorer::new(k)
                .memory(mem.clone())
                .threads(workers)
                .trace(joint_sink.clone())
                .axes(&[Axis::Unroll]);
            let rc = classic.explore().expect("classic search");
            let rj = joint.explore().expect("joint search");
            prop_assert_eq!(&rc.selected.unroll, &rj.selected.unroll);
            prop_assert_eq!(&rc.selected.estimate, &rj.selected.estimate);
            prop_assert_eq!(rc.termination, rj.termination);
            prop_assert_eq!(rc.visited.len(), rj.visited.len());
            for (a, b) in rc.visited.iter().zip(&rj.visited) {
                prop_assert_eq!(&a.unroll, &b.unroll);
                prop_assert_eq!(&a.estimate, &b.estimate);
            }
            // Deterministic counters only: wall times are excluded by
            // construction.
            prop_assert_eq!(rc.stats.evaluated, rj.stats.evaluated);
            prop_assert_eq!(rc.stats.tier0_evaluated, rj.stats.tier0_evaluated);
            let trace = classic_sink.to_jsonl();
            prop_assert_eq!(&trace, &joint_sink.to_jsonl());
            per_workers.push((rc.selected.unroll.clone(), trace));
        }
        prop_assert_eq!(&per_workers[0], &per_workers[1]);
    }
}
