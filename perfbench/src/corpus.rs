//! Seeded inputs. The benchmark seed picks the csmith programs and the
//! operation sequence; the spec profiles are fixed, so their share of the
//! work is identical under every seed.

use sraa_synth::{csmith_generate, spec_all, CsmithConfig, Workload};

/// The csmith-with-helpers configuration used everywhere: one generator
/// setting is one size class, so latencies over these programs may share
/// a percentile.
pub const HELPERS: usize = 2;

/// The `i`-th csmith-with-helpers program of `seed`'s corpus.
pub fn csmith(seed: u64, i: usize) -> Workload {
    csmith_generate(CsmithConfig {
        // Mixed, so the pool spreads over the generator's seed space.
        seed: crate::util::Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)).next_u64(),
        max_ptr_depth: 2,
        num_stmts: 40,
        helpers: HELPERS,
    })
}

/// Aa-eval pair count (pointer pairs per function, summed, before e-SSA)
/// a pooled program must have. The generator's programs spread over 4x in
/// pairs, and every operation on them costs more with more pairs, so the
/// pool keeps one band: latencies over it share a size class.
pub const PAIRS_BAND: std::ops::RangeInclusive<u64> = 1200..=1800;

/// Candidates generated per pooled program. About 38% of the stream is
/// in [`PAIRS_BAND`], and how far into it the `n`-th such program lies
/// varies by 30% between seeds; generating a fixed `CANDIDATES * n`
/// programs makes set-up the same work under every seed.
const CANDIDATES: usize = 5;

/// The first `n` programs of `seed`'s stream whose pair count is in
/// [`PAIRS_BAND`]. All of the first `CANDIDATES * n` programs are
/// generated and compiled, and the stream goes on past them only in the
/// unlikely case that they hold fewer than `n` in the band.
pub fn csmith_pool(seed: u64, n: usize) -> Vec<Workload> {
    let mut pool = Vec::with_capacity(n);
    for i in 0.. {
        if pool.len() == n && i >= CANDIDATES * n {
            break;
        }
        let w = csmith(seed, i);
        let m = sraa_minic::compile(&w.source).expect("generated programs compile");
        if pool.len() < n && PAIRS_BAND.contains(&sraa_alias::AaEval::num_queries(&m)) {
            pool.push(w);
        }
    }
    pool
}

/// The spec profiles with the given names, in the given order.
pub fn spec_named(names: &[&str]) -> Vec<Workload> {
    let all = spec_all();
    names
        .iter()
        .map(|n| all.iter().find(|w| w.name == *n).expect("known spec profile").clone())
        .collect()
}

/// Helper functions an edit may touch: `2 * HELPERS` of them.
pub const EDIT_FUNCS: usize = 2 * HELPERS;

/// `source` with helper function `func` (`0..EDIT_FUNCS`) replaced by its
/// `variant`-th body; variant 0 is the unedited body. Every variant changes one constant of one function,
/// so the edit invalidates that function and its callers.
pub fn edit(source: &str, func: usize, variant: usize) -> String {
    let h = func / 2;
    let (head, old, new) = if func.is_multiple_of(2) {
        (
            format!("int csh_next{h}("),
            format!("return i + {};", h + 1),
            format!("return i + {};", h + 1 + variant),
        )
    } else {
        (
            format!("int csh_add{h}("),
            "return i + 1;".to_string(),
            format!("return i + {};", 1 + variant),
        )
    };
    let mut hit = false;
    let out: Vec<String> = source
        .lines()
        .map(|l| {
            if l.starts_with(&head) {
                hit = true;
                l.replacen(&old, &new, 1)
            } else {
                l.to_string()
            }
        })
        .collect();
    assert!(hit, "csmith programs with helpers define {head}…");
    out.join("\n") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_change_the_corpus() {
        assert_eq!(csmith(1, 0).source, csmith(1, 0).source);
        assert_ne!(csmith(1, 0).source, csmith(2, 0).source);
    }

    #[test]
    fn edits_touch_one_function_and_compile() {
        let base = csmith(1, 0).source;
        assert_eq!(edit(&base, 0, 0), base);
        for f in 0..EDIT_FUNCS {
            let e = edit(&base, f, 2);
            assert_ne!(e, base);
            let changed = e.lines().zip(base.lines()).filter(|(a, b)| a != b).count();
            assert_eq!(changed, 1);
            sraa_minic::compile(&e).expect("edited program compiles");
        }
    }
}
