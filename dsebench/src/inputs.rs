//! Seeded inputs: the paper kernels, the per-round kernel order, and the
//! revision sequences of the `watch` workload.
//!
//! Everything here is a pure function of the seed, so two runs with one
//! seed send the program identical inputs.

use defacto::ir::{parse_kernel, Kernel};
use defacto_kernels::{fir, jacobi, matmul, pattern, sobel};

/// The five paper kernels, in paper order.
pub const KERNELS: [&str; 5] = ["FIR", "MM", "PAT", "JAC", "SOBEL"];

/// SplitMix64, the generator the kernels crate seeds its data with.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The kernel order of measurement round `round`: every kernel once,
/// shuffled, so each round asks the same mix of questions.
pub fn round_order(seed: u64, round: u64) -> [usize; 5] {
    let mut order = [0, 1, 2, 3, 4];
    Rng::new(seed, round).shuffle(&mut order);
    order
}

/// Generator parameters of the paper-size kernel: FIR (outputs, taps),
/// MM (m, k, n), PAT (positions, pattern), JAC and SOBEL (interior side).
pub fn paper_dims(kernel: usize) -> Vec<usize> {
    match kernel {
        0 => vec![64, 32],
        1 => vec![32, 16, 4],
        2 => vec![48, 16],
        _ => vec![32],
    }
}

/// Kernel-language source of `kernel` at generator parameters `dims`.
pub fn source(kernel: usize, dims: &[usize]) -> String {
    match kernel {
        0 => fir::source_sized(dims[0], dims[1]),
        1 => matmul::source_sized(dims[0], dims[1], dims[2]),
        2 => pattern::source_sized(dims[0] + dims[1], dims[1]),
        3 => jacobi::source_sized(dims[0] + 2),
        _ => sobel::source_sized(dims[0] + 2),
    }
}

/// The paper kernels at their published sizes.
pub fn paper_kernels() -> Vec<Kernel> {
    (0..KERNELS.len())
        .map(|k| parse_kernel(&source(k, &paper_dims(k))).expect("paper kernels parse"))
        .collect()
}

/// Every size a `watch` resize can choose for `kernel`: each generator
/// parameter at ½×, 1× or 2× its paper value.
pub fn all_dims(kernel: usize) -> Vec<Vec<usize>> {
    let paper = paper_dims(kernel);
    let mut out = vec![Vec::new()];
    for &d in &paper {
        out = out
            .into_iter()
            .flat_map(|prefix| {
                [d / 2, d, d * 2].map(|v| {
                    let mut p = prefix.clone();
                    p.push(v);
                    p
                })
            })
            .collect();
    }
    out
}

/// What produced a revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// The file as first opened: paper size, original names.
    Open,
    /// Every declared name renamed.
    Rename,
    /// Array declarations reordered.
    Reorder,
    /// Regenerated at other sizes.
    Resize,
    /// Back to the text before the last edit.
    Revert,
}

/// One saved version of the kernel file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Revision {
    pub edit: Edit,
    /// Generator parameters: the revision's answer depends on these alone.
    pub dims: Vec<usize>,
    pub text: String,
}

/// The editable state a revision's text is rendered from.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Style {
    dims: Vec<usize>,
    /// Suffix appended to every declared name; 0 keeps the originals.
    tag: u64,
    /// Array declaration order.
    order: Vec<usize>,
}

/// The revisions of `watch` session `session` over `kernel`: the file as
/// opened, then `len - 1` edits drawn 30% rename, 30% declaration
/// reorder, 25% resize, 15% revert.
pub fn session(kernel: usize, seed: u64, session: u64, len: usize) -> Vec<Revision> {
    let mut rng = Rng::new(seed, 0x5e55_1000 + session);
    let arrays = parse_kernel(&source(kernel, &paper_dims(kernel)))
        .expect("paper kernels parse")
        .arrays()
        .len();
    let mut history = vec![Style {
        dims: paper_dims(kernel),
        tag: 0,
        order: (0..arrays).collect(),
    }];
    let mut edits = vec![Edit::Open];
    while history.len() < len {
        let cur = history.last().expect("history starts non-empty").clone();
        let roll = rng.below(100);
        let (edit, next) = if roll < 30 {
            let mut tag = cur.tag;
            while tag == cur.tag {
                tag = 1 + rng.below(999);
            }
            (Edit::Rename, Style { tag, ..cur })
        } else if roll < 60 {
            let mut order = cur.order.clone();
            while order == cur.order {
                rng.shuffle(&mut order);
            }
            (Edit::Reorder, Style { order, ..cur })
        } else if roll < 85 {
            let sizes = all_dims(kernel);
            let mut dims = cur.dims.clone();
            while dims == cur.dims {
                dims = sizes[rng.below(sizes.len() as u64) as usize].clone();
            }
            (Edit::Resize, Style { dims, ..cur })
        } else {
            let back = history.len().saturating_sub(2);
            (Edit::Revert, history[back].clone())
        };
        history.push(next);
        edits.push(edit);
    }
    history
        .into_iter()
        .zip(edits)
        .map(|(style, edit)| Revision {
            edit,
            text: render(kernel, &style),
            dims: style.dims,
        })
        .collect()
}

fn render(kernel: usize, style: &Style) -> String {
    let k = parse_kernel(&source(kernel, &style.dims)).expect("generated kernels parse");
    let arrays = style.order.iter().map(|&i| k.arrays()[i].clone()).collect();
    let k = Kernel::new(k.name(), arrays, k.scalars().to_vec(), k.body().to_vec())
        .expect("a declaration reorder stays valid");
    let text = k.to_string();
    if style.tag == 0 {
        return text;
    }
    let mut names: Vec<String> = vec![k.name().to_string()];
    names.extend(k.arrays().iter().map(|a| a.name.clone()));
    names.extend(k.scalars().iter().map(|s| s.name.clone()));
    names.extend(k.loop_vars());
    rename(&text, &names, &format!("_{}", style.tag))
}

/// Append `suffix` to every identifier token of `text` that is in
/// `names`. Declared names never collide with keywords, so a token match
/// is exact.
fn rename(text: &str, names: &[String], suffix: &str) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_alphabetic() || c == '_') {
        let (head, tail) = rest.split_at(start);
        out.push_str(head);
        let len = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let token = &tail[..len];
        out.push_str(token);
        if names.iter().any(|n| n == token) {
            out.push_str(suffix);
        }
        rest = &tail[len..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use defacto::ir::content_hash;

    #[test]
    fn same_seed_same_revisions_other_seed_differs() {
        for kernel in 0..KERNELS.len() {
            let a = session(kernel, 1, 3, 40);
            assert_eq!(a, session(kernel, 1, 3, 40));
            assert_ne!(a, session(kernel, 2, 3, 40));
            assert_ne!(a, session(kernel, 1, 4, 40));
        }
        assert_eq!(round_order(1, 0), round_order(1, 0));
        assert!((0..8).any(|r| round_order(1, r) != round_order(2, r)));
    }

    /// Every revision parses, and is canonically the kernel its
    /// generator parameters name — the property that lets one cold
    /// exploration per size check every revision of that size.
    #[test]
    fn every_revision_parses_to_its_sized_kernel() {
        let mut edits = [0usize; 5];
        for kernel in 0..KERNELS.len() {
            for s in 0..4 {
                for rev in session(kernel, 7, s, 40) {
                    edits[rev.edit as usize] += 1;
                    let parsed = parse_kernel(&rev.text)
                        .unwrap_or_else(|e| panic!("{e:?} in\n{}", rev.text));
                    let sized = parse_kernel(&source(kernel, &rev.dims)).unwrap();
                    assert_eq!(content_hash(&parsed), content_hash(&sized), "{}", rev.text);
                }
            }
        }
        assert!(
            edits.iter().all(|&n| n > 0),
            "every edit kind drawn: {edits:?}"
        );
    }

    #[test]
    fn renames_touch_declared_names_only() {
        let names = ["S".to_string(), "i".to_string()];
        assert_eq!(
            rename("S[i + 2] = i16 + Si;", &names, "_9"),
            "S_9[i_9 + 2] = i16 + Si;"
        );
    }

    #[test]
    fn sizes_cover_half_to_double() {
        assert_eq!(all_dims(3), vec![vec![16], vec![32], vec![64]]);
        assert_eq!(all_dims(1).len(), 27);
        assert!(all_dims(0).contains(&paper_dims(0)));
    }
}
