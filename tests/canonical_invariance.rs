//! Canonicalization invariance over the paper suite.
//!
//! Content addressing treats alpha-renamed, declaration-reordered
//! kernels as the *same* kernel, so everything downstream of the
//! canonical hash must be invariant under those rewrites:
//!
//! - the canonical hash itself (and every per-subtree hash);
//! - the full-space sweep — every design point's estimate, bit for bit
//!   (this is what makes serving a renamed kernel from another kernel's
//!   persistent cache entries *sound*, not just fast);
//! - the selected design of a warm-cache search, which must also match
//!   the cold selection exactly.

use defacto::cache::PersistentCache;
use defacto::prelude::*;
use defacto_ir::{canonicalize, Kernel};
use std::sync::Arc;

/// Alpha-renamed + declaration-sorted, and declaration-reversed,
/// variants of `k` — all structurally identical to it.
fn variants(k: &Kernel) -> Vec<(&'static str, Kernel)> {
    let renamed = canonicalize(k).kernel;
    let mut arrays = k.arrays().to_vec();
    arrays.reverse();
    let reordered = Kernel::new(k.name(), arrays, k.scalars().to_vec(), k.body().to_vec())
        .expect("reordered declarations stay valid");
    vec![("alpha-renamed", renamed), ("decl-reordered", reordered)]
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("defacto-canon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn canonical_hashes_are_rewrite_invariant() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let base = canonicalize(&kernel);
        for (label, v) in variants(&kernel) {
            let vc = canonicalize(&v);
            assert_eq!(base.hash, vc.hash, "{name}: {label} changed the hash");
            assert!(
                base.changed_subtrees(&vc).is_empty(),
                "{name}: {label} changed subtrees {:?}",
                base.changed_subtrees(&vc)
            );
        }
    }
}

#[test]
fn full_sweep_estimates_are_rewrite_invariant() {
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let (base, _) = Explorer::new(&kernel)
            .sweep_with_stats()
            .expect("base sweep");
        for (label, v) in variants(&kernel) {
            let (swept, _) = Explorer::new(&v).sweep_with_stats().expect("variant sweep");
            assert_eq!(base.len(), swept.len(), "{name}: {label} changed the space");
            for (b, s) in base.iter().zip(swept.iter()) {
                assert_eq!(b.unroll, s.unroll, "{name}: {label} reordered the space");
                assert_eq!(
                    b.estimate,
                    s.estimate,
                    "{name}: {label} changed the estimate at {:?}",
                    b.unroll.factors()
                );
            }
        }
    }
}

#[test]
fn warm_cache_search_selects_identically_for_variants() {
    let dir = scratch("warm-select");
    for (name, kernel) in defacto_kernels::paper_kernels() {
        let store = Arc::new(PersistentCache::open(&dir.join(name)).expect("open cache directory"));
        let cold = Explorer::new(&kernel)
            .persistent(store.clone())
            .explore()
            .expect("cold explore");
        for (label, v) in variants(&kernel) {
            let warm = Explorer::new(&v)
                .persistent(store.clone())
                .explore()
                .expect("warm explore");
            assert_eq!(
                cold.selected.unroll, warm.selected.unroll,
                "{name}: {label} changed the selection from a warm cache"
            );
            assert_eq!(
                cold.selected.estimate, warm.selected.estimate,
                "{name}: {label} changed the selected estimate"
            );
            assert_eq!(
                warm.stats.evaluated, 0,
                "{name}: {label} re-evaluated designs despite a warm cache \
                 ({} persist hits, {} misses)",
                warm.stats.persist_hits, warm.stats.persist_misses
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Canonical content hashes key the persistent store, so their values —
/// not only their invariance — are part of the on-disk contract: a
/// store written by an older build keeps hitting only while these stay
/// put. The literals were recorded before statement-tree identifiers
/// became shared `Name`s.
/// A kernel's name, content hash and `(path, hash)` subtree hashes.
type Pinned = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

#[test]
fn paper_kernel_hashes_are_pinned() {
    let expected: [Pinned; 5] = [
        (
            "FIR",
            "ebabdd398c9298eca9d19d1196390744",
            &[
                ("decls", "2c91d9291db03d34519ac4764ee591d9"),
                ("l0", "85817179d0ad5f8776bb0e67d99ec7c9"),
                ("l0/l0", "12867da9c0348d27af4904728953fdcb"),
                ("innermost", "095d32b13a89a084debe7370d7277de6"),
            ],
        ),
        (
            "MM",
            "da7d1f87aab594ddd4f57430536fad05",
            &[
                ("decls", "5c278d6b311c9ace9a7f73249d16fcd8"),
                ("l0", "2103a7836f30489d66e7a22312058d93"),
                ("l0/l0", "345d515bf86775426fb101757dc2bf8d"),
                ("l0/l0/l0", "590718ca96c5a6b51dbcddd3b32fa59c"),
                ("innermost", "f70c04ab19a4cbdb670a268c080db6a6"),
            ],
        ),
        (
            "PAT",
            "83b590706c62494fb90c298c46aac4f6",
            &[
                ("decls", "f480d725977fc87e22aaa1f236c9faa3"),
                ("l0", "52f27dad2413d1d6c192def1a2032a41"),
                ("l0/l0", "c72a789f1723ffbb719d8ec4761b2493"),
                ("innermost", "3d3177266b8c543d0902b72391890d8e"),
            ],
        ),
        (
            "JAC",
            "5d7058b95c0d1324bd543801958a6d3b",
            &[
                ("decls", "74913d62034d9200b1f81e597ededf71"),
                ("l0", "e714ff87b744b197fbd67cc4a83feb6a"),
                ("l0/l0", "14096cd5f8baf2f0bd5177ed5d886694"),
                ("innermost", "684a7fb98c8ab4562fbfc12d90b3d125"),
            ],
        ),
        (
            "SOBEL",
            "5923eaf854106722700e463dc7acb545",
            &[
                ("decls", "5f7f36a425f53b4085a38a633f841e67"),
                ("l0", "64a6b904dece5a4ed2b3dbbf1c8abe74"),
                ("l0/l0", "b408ab96bf281696b06bea59684f88fa"),
                ("innermost", "791e433917693c536f3e640bdaa334cb"),
            ],
        ),
    ];
    let kernels = defacto_kernels::paper_kernels();
    assert_eq!(kernels.len(), expected.len());
    for ((name, kernel), (want_name, want_hash, want_subtrees)) in kernels.iter().zip(expected) {
        assert_eq!(*name, want_name);
        let c = canonicalize(kernel);
        assert_eq!(c.hash.to_hex(), want_hash, "{name}: content hash moved");
        let subtrees: Vec<(&str, String)> = c
            .subtrees
            .iter()
            .map(|s| (s.path.as_str(), s.hash.to_hex()))
            .collect();
        let want: Vec<(&str, String)> = want_subtrees
            .iter()
            .map(|&(path, hash)| (path, hash.to_string()))
            .collect();
        assert_eq!(subtrees, want, "{name}: subtree hashes moved");
    }
}
