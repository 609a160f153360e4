//! Strip-mining / loop tiling for register-pressure control (paper §5.4).
//!
//! Tiling a loop bounds the reuse footprint scalar replacement must hold
//! in registers: within a tile, full register reuse is exploited; across
//! tiles, values are reloaded. [`strip_mine`] performs the mechanical
//! split; the pipeline combines it with the scalar-replacement register
//! budget.

use crate::error::{Result, TileError, XformError};
use defacto_ir::visit::{map_accesses_stmts, map_scalar_reads_stmt};
use defacto_ir::{AffineExpr, Expr, Kernel, Loop, Stmt};

/// Strip-mine loop `level` (0 = outermost) of a normalized perfect nest
/// into a tile-controlling outer loop and an intra-tile loop of
/// `tile_size` iterations.
///
/// `for i in 0..N` becomes `for i_tile in 0..N/T { for i in 0..T }` with
/// `i := i_tile·T + i` substituted in the body. The tile loop is placed
/// immediately outside the original loop (no interchange), so the
/// transformation is always legal.
///
/// # Errors
///
/// Fails when the nest is imperfect, `level` is out of range, the loop is
/// not normalized, or `tile_size` does not divide the trip count.
pub fn strip_mine(kernel: &Kernel, level: usize, tile_size: i64) -> Result<Kernel> {
    let nest = kernel.perfect_nest().ok_or(XformError::NotPerfectNest)?;
    if level >= nest.depth() {
        return Err(XformError::BadTile(TileError::LevelOutOfRange {
            level,
            depth: nest.depth(),
        }));
    }
    let target = nest.loop_at(level);
    if !target.is_normalized() {
        return Err(XformError::BadTile(TileError::NotNormalized {
            var: target.var.to_string(),
        }));
    }
    if tile_size < 1 || target.trip_count() % tile_size != 0 {
        return Err(XformError::BadTile(TileError::NonDividingTile {
            tile: tile_size,
            trip: target.trip_count(),
        }));
    }
    if tile_size == target.trip_count() {
        return Ok(kernel.clone()); // single tile: no-op
    }

    let tile_var = fresh_tile_var(kernel, &target.var);

    // Substitute i := i_tile·T + i in the target loop's body.
    let replacement =
        AffineExpr::var(tile_var.clone()) * tile_size + AffineExpr::var(target.var.clone());
    let var = target.var.clone();
    let mut inner_body = map_accesses_stmts(&target.body, &mut |a| {
        a.map_indices(|e| e.substitute(&var, &replacement))
    });
    inner_body = inner_body
        .iter()
        .map(|s| {
            map_scalar_reads_stmt(s, &mut |n| {
                if *n == var {
                    Some(Expr::add(
                        Expr::mul(Expr::Int(tile_size), Expr::scalar(tile_var.clone())),
                        Expr::Scalar(n.clone()),
                    ))
                } else {
                    None
                }
            })
        })
        .collect();

    let intra = Stmt::For(Loop::new(var.clone(), 0, tile_size, inner_body));
    let tile = Stmt::For(Loop::new(
        tile_var,
        0,
        target.trip_count() / tile_size,
        vec![intra],
    ));

    // Rebuild the nest with the split loop in place.
    let mut stmts = vec![tile];
    for l in (0..level).rev() {
        let outer = nest.loop_at(l);
        stmts = vec![Stmt::For(Loop {
            var: outer.var.clone(),
            lower: outer.lower,
            upper: outer.upper,
            step: outer.step,
            body: stmts,
        })];
    }
    Ok(kernel.with_body(stmts)?)
}

/// Strip-mine loop `level` and hoist the tile-controlling loop to the
/// outermost position, so reuse loops *inside* it see only one tile's
/// footprint — the register-pressure tiling of paper §5.4.
///
/// The interchange is checked against the dependence graph: it is
/// permitted only when every ordering-constraining dependence has an
/// exactly-zero or invariant (`Any`) component at each level the tile
/// loop crosses, which keeps all dependence pairs in their original
/// relative order.
///
/// # Errors
///
/// Same failures as [`strip_mine`], plus [`XformError::BadTile`] when the
/// interchange would reorder a dependence.
pub fn tile_for_registers(kernel: &Kernel, level: usize, tile_size: i64) -> Result<Kernel> {
    use defacto_analysis::{analyze_dependences_with_bounds, legality, AccessTable};

    let nest = kernel.perfect_nest().ok_or(XformError::NotPerfectNest)?;
    if level >= nest.depth() {
        return Err(XformError::BadTile(TileError::LevelOutOfRange {
            level,
            depth: nest.depth(),
        }));
    }
    // Interchange legality on the original nest: crossing levels
    // 0..level must all be Exact(0) or Any for constraining deps that the
    // tiled loop's iterations participate in. Delegates to the same
    // predicate that computes `LegalitySummary`'s per-level tilability.
    let table = AccessTable::from_stmts(nest.innermost_body());
    let vars = nest.vars();
    let bounds: Vec<(i64, i64)> = nest
        .loops()
        .iter()
        .map(|l| (l.lower, l.upper - 1))
        .collect();
    let deps = analyze_dependences_with_bounds(&table, &vars, &bounds);
    let carried = legality::carried_scalars(nest.innermost_body(), &vars);
    if let Some((crossed, array)) = legality::tile_hoist_violation(&deps, &carried, level) {
        return Err(XformError::BadTile(TileError::ReorderedDependence {
            level,
            crossed,
            array,
        }));
    }

    let mined = strip_mine(kernel, level, tile_size)?;
    if mined == *kernel {
        return Ok(mined); // single tile
    }
    // The tile loop currently sits at position `level`; rotate it to the
    // front.
    let nest2 = mined.perfect_nest().ok_or(XformError::NotPerfectNest)?;
    let mut order: Vec<usize> = (0..nest2.depth()).collect();
    let tile_pos = order.remove(level);
    order.insert(0, tile_pos);
    permute_nest(&mined, &order)
}

/// Rebuild a perfect nest with its loops permuted per `order` (a
/// permutation of level indices; `order[k]` is the original level placed
/// at position `k`). The caller is responsible for legality.
fn permute_nest(kernel: &Kernel, order: &[usize]) -> Result<Kernel> {
    let nest = kernel.perfect_nest().ok_or(XformError::NotPerfectNest)?;
    let body = nest.innermost_body().to_vec();
    let mut stmts = body;
    for &orig_level in order.iter().rev() {
        let l = nest.loop_at(orig_level);
        stmts = vec![Stmt::For(Loop {
            var: l.var.clone(),
            lower: l.lower,
            upper: l.upper,
            step: l.step,
            body: stmts,
        })];
    }
    Ok(kernel.with_body(stmts)?)
}

fn fresh_tile_var(kernel: &Kernel, base: &str) -> String {
    let mut name = format!("{base}_tile");
    let taken = |n: &str| {
        kernel.array(n).is_some()
            || kernel.scalar(n).is_some()
            || kernel.loop_vars().iter().any(|v| v == n)
    };
    let mut k = 0;
    while taken(&name) {
        k += 1;
        name = format!("{base}_tile{k}");
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto_ir::{parse_kernel, run_with_inputs};

    const FIR: &str = "kernel fir { in S: i32[96]; in C: i32[32]; inout D: i32[64];
       for j in 0..64 { for i in 0..32 {
         D[j] = D[j] + S[i + j] * C[i]; } } }";

    #[test]
    fn strip_mine_preserves_semantics() {
        let k = parse_kernel(FIR).unwrap();
        let s: Vec<i64> = (0..96).map(|x| (x * 3 % 13) - 6).collect();
        let c: Vec<i64> = (0..32).map(|x| (x % 9) - 4).collect();
        let (w0, _) = run_with_inputs(&k, &[("S", s.clone()), ("C", c.clone())]).unwrap();
        for (level, tile) in [(0, 8), (1, 4), (1, 16)] {
            let t = strip_mine(&k, level, tile).unwrap();
            let (w1, _) = run_with_inputs(&t, &[("S", s.clone()), ("C", c.clone())]).unwrap();
            assert_eq!(w0.array("D"), w1.array("D"), "level {level} tile {tile}");
        }
    }

    #[test]
    fn strip_mine_structure() {
        let k = parse_kernel(FIR).unwrap();
        let t = strip_mine(&k, 1, 8).unwrap();
        let nest = t.perfect_nest().unwrap();
        assert_eq!(nest.depth(), 3);
        assert_eq!(nest.vars(), vec!["j", "i_tile", "i"]);
        assert_eq!(nest.trip_counts(), vec![64, 4, 8]);
    }

    #[test]
    fn full_tile_is_noop() {
        let k = parse_kernel(FIR).unwrap();
        assert_eq!(strip_mine(&k, 1, 32).unwrap(), k);
    }

    #[test]
    fn invalid_requests_rejected() {
        let k = parse_kernel(FIR).unwrap();
        assert!(matches!(
            strip_mine(&k, 5, 2).unwrap_err(),
            XformError::BadTile(_)
        ));
        assert!(matches!(
            strip_mine(&k, 1, 5).unwrap_err(),
            XformError::BadTile(_)
        ));
        assert!(matches!(
            strip_mine(&k, 1, 0).unwrap_err(),
            XformError::BadTile(_)
        ));
    }

    #[test]
    fn register_tiling_shrinks_chains() {
        use crate::scalar::{scalar_replace, ScalarOptions};
        let k = parse_kernel(FIR).unwrap();
        // Tile i by 8 with the tile loop hoisted outermost: within each
        // tile the C chain holds 8 values instead of 32.
        let t = tile_for_registers(&k, 1, 8).unwrap();
        let nest = t.perfect_nest().unwrap();
        assert_eq!(nest.vars(), vec!["i_tile", "j", "i"]);
        let (rt, info_tiled) = scalar_replace(&t, &ScalarOptions::default()).unwrap();
        let (_, info_full) = scalar_replace(&k, &ScalarOptions::default()).unwrap();
        assert!(
            info_tiled.reuse_registers < info_full.reuse_registers,
            "tiled {} vs full {}",
            info_tiled.reuse_registers,
            info_full.reuse_registers
        );
        // Semantics still preserved end to end.
        let s: Vec<i64> = (0..96).map(|x| x % 7).collect();
        let c: Vec<i64> = (0..32).map(|x| x % 5).collect();
        let (w0, _) = run_with_inputs(&k, &[("S", s.clone()), ("C", c.clone())]).unwrap();
        let (w1, _) = run_with_inputs(&rt, &[("S", s), ("C", c)]).unwrap();
        assert_eq!(w0.array("D"), w1.array("D"), "{rt}");
    }

    #[test]
    fn illegal_interchange_rejected() {
        // A[i][j] = A[i-1][j+1] has distance (1, -1): hoisting a j-tile
        // loop across i would reorder it.
        let k = parse_kernel(
            "kernel wf { inout A: i32[9][10];
               for i in 1..9 { for j in 0..8 {
                 A[i][j] = A[i - 1][j + 1] + 1; } } }",
        )
        .unwrap();
        let k = crate::normalize_loops(&k).unwrap();
        let err = tile_for_registers(&k, 1, 4).unwrap_err();
        assert!(matches!(err, XformError::BadTile(_)), "{err:?}");
    }
}
