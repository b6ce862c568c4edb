//! Differential tests of the incremental engine (`--summary-cache`):
//! persistent [`ModuleSummaries`] keyed by body-hash ⊕ callee-key.
//!
//! Caching bugs are *silent-unsoundness* bugs — a stale summary would
//! quietly hand the optimiser wrong no-alias verdicts — so the contract
//! here is absolute: a **warm** run (cold → mutate k function bodies →
//! re-run against the prior) must be indistinguishable from a **fresh
//! cold** run. Indistinguishable means byte-identical: same per-function
//! summaries, same constraint stream, same solved `LT` sets, same frozen
//! set. On top of that, the hit/miss counts must match the keys exactly:
//! lookup is by key alone, so the misses are precisely
//! `{ f : key(f) ∉ keys(prior) }`. Editing a set `M` of functions
//! re-keys exactly the functions that can *reach* `M` in the call graph
//! (reverse reachability), so the misses are a subset of that closure —
//! equal to it unless the edit recreates a body the old module already
//! had (then that function hits).
//!
//! The committed golden fixture (`tests/fixtures/summary_segment_v1.bin`)
//! pins the byte format and the fingerprint scheme: if either changes,
//! the golden test fails and `persist::FORMAT_VERSION` must be bumped.
//! Regenerate with `SRAA_REGEN_GOLDEN=1 cargo test --test incremental`.
//! `tests/fixtures/summary_cache_v1.bin` is a cache file in the retired
//! name-keyed layout: it must be refused, never trusted.

use sraa_core::{
    persist, CacheOutcome, DisambiguationEngine, EngineConfig, GenConfig, ModuleSummaries,
    PersistError, SolverKind, SummaryMap, VarId, VarIndex,
};
use sraa_ir::{BinOp, CallGraph, FuncId, InstKind, Module, Type};
use sraa_range::RangeAnalysis;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Compile + e-SSA + cold summaries (with their keys) for one source.
struct Prepared {
    module: Module,
    ranges: RangeAnalysis,
    index: VarIndex,
    sums: ModuleSummaries,
}

fn prepare(src: &str) -> Prepared {
    let mut module = sraa_minic::compile(src).expect("generated source compiles");
    let (ranges, _) = sraa_essa::transform_module(&mut module);
    let index = VarIndex::new(&module);
    let (sums, ..) =
        ModuleSummaries::compute(&module, &ranges, &index, &EngineConfig::default(), None, None);
    Prepared { module, ranges, index, sums }
}

/// Save `p`'s summaries and load them back — the prior a warm run would
/// read from disk (exercising the full byte round trip each time).
fn prior_of(p: &Prepared) -> SummaryMap {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "sraa_incr_prior_{}_{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    persist::save(&path, &p.sums, GenConfig::default()).expect("save");
    let prior = persist::load(&path, GenConfig::default()).expect("round trip");
    std::fs::remove_file(&path).ok();
    prior
}

/// Functions that can reach any function in `from` (inclusive) — the set
/// whose keys a mutation of `from` must change.
fn reverse_reachable(m: &Module, from: &BTreeSet<FuncId>) -> BTreeSet<FuncId> {
    let cg = CallGraph::build(m);
    let mut seen: BTreeSet<FuncId> = from.clone();
    let mut work: Vec<FuncId> = from.iter().copied().collect();
    while let Some(f) = work.pop() {
        for &caller in cg.callers(f) {
            if seen.insert(caller) {
                work.push(caller);
            }
        }
    }
    seen
}

/// The functions of `p` whose key is not in `prior` — exactly the misses
/// a warm run against `prior` must report.
fn expected_misses(p: &Prepared, prior: &SummaryMap) -> BTreeSet<FuncId> {
    p.module
        .functions()
        .map(|(f, _)| f)
        .filter(|&f| !prior.contains_key(&p.sums.keys().of(f)))
        .collect()
}

/// The warm run on `p` against `prior`, plus its outcome.
fn warm(p: &Prepared, prior: &SummaryMap) -> (ModuleSummaries, CacheOutcome) {
    let (sums, outcome, _) = ModuleSummaries::compute(
        &p.module,
        &p.ranges,
        &p.index,
        &EngineConfig::default(),
        Some(prior),
        None,
    );
    assert_eq!(sums.keys(), p.sums.keys(), "keys must not depend on the prior");
    (sums, outcome)
}

/// Asserts a warm result is *byte-identical* to the cold one, all the way
/// down to the solved relation: per-function summaries, the generated
/// constraint stream, every `LT` set, and the frozen-⊤ set.
fn assert_warm_equals_cold(p: &Prepared, warm_sums: &ModuleSummaries, name: &str) {
    for (f, cold) in p.sums.iter() {
        assert_eq!(
            warm_sums.of(f),
            cold,
            "{name}: summary of {} differs",
            p.module.function(f).name
        );
    }
    let gen = |sums| {
        sraa_core::generate_with_summaries(
            &p.module,
            &p.ranges,
            GenConfig::default(),
            &p.index,
            sums,
        )
    };
    let (sys_w, sys_c) = (gen(warm_sums), gen(&p.sums));
    assert_eq!(sys_w.constraints, sys_c.constraints, "{name}: constraint streams differ");
    assert_eq!(sys_w.num_vars, sys_c.num_vars);
    let solver = SolverKind::Scc;
    let (sol_w, sol_c) = (
        solver.solve(&sys_w.constraints, sys_w.num_vars),
        solver.solve(&sys_c.constraints, sys_c.num_vars),
    );
    for v in 0..sys_c.num_vars {
        let v = VarId::from_index(v);
        assert_eq!(sol_w.lt_set(v), sol_c.lt_set(v), "{name}: LT({v}) differs warm vs cold");
        assert_eq!(sol_w.was_top(v), sol_c.was_top(v), "{name}: frozen sets differ on {v}");
    }
}

// ---------------------------------------------------------------------
// A synthetic module family with a *controllable* mutation surface: `n`
// helpers whose call structure is fixed by `structure` bits (helper i
// calls helper i+1 iff bit i is set) and whose bodies are selected by
// per-helper `variants` bits. Flipping a variant changes the body — and
// for leaves, even the distilled summary — without touching the call
// graph, so the re-keyed set is exactly the reverse reachability
// closure of the mutated helpers. Two leaves with the same variant have
// identical bodies and so identical keys: flipping a leaf to a variant
// another leaf already had is a hit.
// ---------------------------------------------------------------------

fn render(n: usize, structure: u64, variants: u64) -> String {
    let mut src = String::new();
    // Callees first so calls are to already-declared functions.
    for i in (0..n).rev() {
        let variant = (variants >> i) & 1;
        let calls_next = i + 1 < n && (structure >> i) & 1 == 1;
        let body = match (calls_next, variant) {
            (false, 0) => "if (n > 0) { return p + n; } return p + 1;".to_string(),
            (false, _) => "if (n > 1) { return p + n; } return p;".to_string(),
            (true, v) => format!("int* q = h{}(p, n); return q + {};", i + 1, v + 1),
        };
        src.push_str(&format!("int* h{i}(int* p, int n) {{ {body} }}\n"));
    }
    src.push_str("int main() {\n  int a[64];\n  int acc = 0;\n");
    for i in 0..n {
        src.push_str(&format!("  int* r{i} = h{i}(a, {});\n  acc += *r{i};\n", i + 2));
    }
    src.push_str("  return acc;\n}\n");
    src
}

/// One full cold → mutate → warm differential check; returns the outcome
/// so callers can layer extra assertions.
fn check_mutation(
    n: usize,
    structure: u64,
    variants: u64,
    mutated: &BTreeSet<usize>,
) -> CacheOutcome {
    let old = prepare(&render(n, structure, variants));
    let prior = prior_of(&old);

    let mut new_variants = variants;
    for &i in mutated {
        new_variants ^= 1 << i;
    }
    let fresh = prepare(&render(n, structure, new_variants));
    let (warm_sums, outcome) = warm(&fresh, &prior);
    assert_warm_equals_cold(&fresh, &warm_sums, "mutation");

    // The misses are exactly the functions whose key the prior lacks,
    // and those all lie in the reverse-reachable closure of the edit.
    let mutated_ids: BTreeSet<FuncId> = mutated
        .iter()
        .map(|i| fresh.module.function_by_name(&format!("h{i}")).expect("helper exists"))
        .collect();
    let closure = reverse_reachable(&fresh.module, &mutated_ids);
    let misses = expected_misses(&fresh, &prior);
    let total = fresh.module.num_functions();
    assert_eq!(outcome.misses as usize, misses.len(), "misses must be the keys the prior lacks");
    assert_eq!(outcome.hits as usize, total - misses.len(), "everything else must hit");
    assert!(misses.is_subset(&closure), "a miss outside the edit's closure: {misses:?}");
    // Edited functions and their callers were re-keyed; the rest kept
    // their keys.
    for (f, _) in fresh.module.functions() {
        let name = &fresh.module.function(f).name;
        let old_f = old.module.function_by_name(name).expect("same function set");
        let (old_key, new_key) = (old.sums.keys().of(old_f), fresh.sums.keys().of(f));
        if closure.contains(&f) {
            assert_ne!(old_key, new_key, "{name}: stale key survived an edit");
        } else {
            assert_eq!(old_key, new_key, "{name}: key churned without an edit");
        }
    }
    outcome
}

#[test]
fn chain_mutation_invalidates_exactly_the_callers_above() {
    // h0 → h1 → h2 → h3 (all chained), main calls every helper. Mutating
    // h2 must miss {h2, h1, h0, main} and leave {h3} warm.
    let outcome = check_mutation(4, 0b0111, 0, &BTreeSet::from([2]));
    assert_eq!((outcome.hits, outcome.misses), (1, 4));
}

#[test]
fn leaf_mutation_with_no_callers_only_invalidates_itself_and_main() {
    // No helper-to-helper edges: each helper is only reachable from main.
    let outcome = check_mutation(3, 0, 0, &BTreeSet::from([1]));
    assert_eq!((outcome.hits, outcome.misses), (2, 2));
}

#[test]
fn leaf_flipped_to_a_sibling_body_hits_the_prior() {
    // Two call-free leaves: h1 has variant 1, h0 variant 0. Flipping h0
    // to variant 1 gives it h1's old body — and so h1's old key, which
    // the prior holds. Only main, whose body names the callees, misses;
    // the edit's closure {h0, main} is larger than the miss set.
    let outcome = check_mutation(2, 0, 0b10, &BTreeSet::from([0]));
    assert_eq!((outcome.hits, outcome.misses), (2, 1));
}

#[test]
fn unchanged_module_is_a_complete_hit() {
    let p = prepare(&render(5, 0b01101, 0b10010));
    let prior = prior_of(&p);
    let (warm_sums, outcome) = warm(&p, &prior);
    assert_warm_equals_cold(&p, &warm_sums, "unchanged");
    assert_eq!(outcome.hits as usize, p.module.num_functions());
    assert_eq!(outcome.misses, 0);
    assert_eq!(outcome.hit_rate(), 1.0);
    assert_eq!(warm_sums.stats.solves, 0, "a 100% warm run must skip every per-SCC solve");
}

/// Builds `src` through the engine: with the cache file at `path`, or
/// cold without one.
fn engine(src: &str, path: Option<&std::path::Path>) -> (Module, DisambiguationEngine) {
    let mut m = sraa_minic::compile(src).unwrap();
    let cfg = match path {
        Some(path) => EngineConfig::default().with_summary_cache(path),
        None => EngineConfig::default().with_summaries(),
    };
    let engine = DisambiguationEngine::build(&mut m, cfg);
    (m, engine)
}

/// Every query result — summaries, LT sets and batch no-alias verdicts —
/// of `warm` is identical to the never-cached engine's.
fn assert_engines_agree(m: &Module, warm: &DisambiguationEngine, cold: &DisambiguationEngine) {
    assert_eq!(
        warm.summaries().map(|s| s.iter().collect::<Vec<_>>()),
        cold.summaries().map(|s| s.iter().collect::<Vec<_>>())
    );
    for (fid, f) in m.functions() {
        for v in f.value_ids() {
            assert_eq!(warm.lt_set(fid, v), cold.lt_set(fid, v), "LT({v}) differs");
        }
        let ptrs = sraa_alias::AaEval::pointer_values(m, fid);
        assert_eq!(warm.no_alias_pairs(f, fid, &ptrs), cold.no_alias_pairs(f, fid, &ptrs));
    }
}

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("sraa_incr_{tag}_{}.bin", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

#[test]
fn engine_warm_run_through_a_cache_file_matches_the_cold_engine() {
    let src = render(4, 0b0101, 0b0010);
    let path = temp_cache("engine");
    let (m, cold) = engine(&src, None);
    let (_, first) = engine(&src, Some(&path)); // cold, writes the cache
    let (_, warm) = engine(&src, Some(&path)); // warm, all hits
    assert_eq!(
        (first.stats().cache_hits, first.stats().cache_misses as usize),
        (0, m.num_functions())
    );
    assert_eq!(warm.stats().cache_hits as usize, m.num_functions());
    assert_eq!(warm.stats().cache_misses, 0);
    assert_engines_agree(&m, &warm, &cold);
    std::fs::remove_file(&path).ok();
}

#[test]
fn renamed_and_duplicated_functions_hit_the_prior() {
    // Lookup is by key alone and a function's own name is not part of
    // its key: renaming `next` to `step` and adding `twice2`, a copy of
    // `twice`, leave both with keys the prior already holds. Only the
    // callers whose bodies name the renamed function (`twice`,
    // `twice2`) and `main` miss.
    let before = r#"
        int* next(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
        int* twice(int* p, int k) { int* q = next(p, k); return next(q, k); }
        int main() { int a[16]; int* r = twice(a, 2); *r = 1; *a = 2; return *r; }
    "#;
    let after = r#"
        int* step(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
        int* twice(int* p, int k) { int* q = step(p, k); return step(q, k); }
        int* twice2(int* p, int k) { int* q = step(p, k); return step(q, k); }
        int* keep(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
        int main() { int a[16]; int* r = twice2(a, 2); *r = 1; *a = twice(a, 1)[0]; return *keep(r, 1); }
    "#;
    let path = temp_cache("rename");
    engine(before, Some(&path));
    let (m, warm) = engine(after, Some(&path));
    let (_, cold) = engine(after, None);
    // step and keep (the renamed and the duplicated leaf) hit; twice,
    // twice2 and main miss.
    assert_eq!((warm.stats().cache_hits, warm.stats().cache_misses), (2, 3));
    assert_engines_agree(&m, &warm, &cold);
    assert!(cold.summaries().unwrap().facts() > 0, "the helpers must carry facts");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Golden format fixture.
// ---------------------------------------------------------------------

/// A hand-built module (no frontend, no e-SSA) so the fixture pins only
/// the fingerprint scheme, the key propagation, the summary distillation
/// and the byte format — not the MiniC pipeline.
fn golden_module() -> Module {
    let mut m = Module::new();
    let next = m.declare_function("next", vec![("i", Type::Int)], Some(Type::Int));
    let main_fn = m.declare_function("main", vec![], Some(Type::Int));
    {
        let f = m.function_mut(next);
        let i = f.param_value(0);
        let one = f.add_const(1);
        let entry = f.entry();
        let sum = f.append_inst(
            entry,
            InstKind::Binary { op: BinOp::Add, lhs: i, rhs: one },
            Some(Type::Int),
        );
        f.append_inst(entry, InstKind::Ret(Some(sum)), None);
    }
    {
        let f = m.function_mut(main_fn);
        let entry = f.entry();
        let three = f.add_const(3);
        let r = f.append_inst(
            entry,
            InstKind::Call { callee: next, args: vec![three] },
            Some(Type::Int),
        );
        f.append_inst(entry, InstKind::Ret(Some(r)), None);
    }
    sraa_ir::verify(&m).expect("golden module is well-formed");
    m
}

fn golden_sums() -> (Module, ModuleSummaries) {
    let m = golden_module();
    let ranges = sraa_range::analyze(&m);
    let index = VarIndex::new(&m);
    let (sums, ..) =
        ModuleSummaries::compute(&m, &ranges, &index, &EngineConfig::default(), None, None);
    assert_eq!(sums.of(m.function_by_name("next").unwrap()).args_lt_ret(), &[0], "i < next(i)");
    (m, sums)
}

fn golden_bytes() -> Vec<u8> {
    let path = temp_cache(&format!("golden_{:?}", std::thread::current().id()));
    persist::save(&path, &golden_sums().1, GenConfig::default()).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

#[test]
fn golden_cache_fixture_round_trips_and_serialization_is_stable() {
    let fixture = fixture("summary_segment_v1.bin");
    let bytes = golden_bytes();
    // Byte-identical across *processes* too, not just within one run:
    // nothing about the key or the format may depend on ASLR, hash-map
    // iteration, or pointer identity.
    assert_eq!(bytes, golden_bytes());

    if std::env::var_os("SRAA_REGEN_GOLDEN").is_some() {
        std::fs::write(&fixture, &bytes).expect("write fixture");
        return;
    }
    let committed = std::fs::read(&fixture).expect(
        "tests/fixtures/summary_segment_v1.bin missing — regenerate with \
         SRAA_REGEN_GOLDEN=1 cargo test --test incremental",
    );
    assert_eq!(
        bytes, committed,
        "the written cache no longer matches the committed fixture. If the byte \
         format or the fingerprint scheme changed intentionally, bump \
         persist::FORMAT_VERSION and regenerate the fixture"
    );

    // The committed artifact loads, keys intact.
    let prior = persist::load(&fixture, GenConfig::default()).expect("fixture parses");
    let (m, sums) = golden_sums();
    assert_eq!(prior.len(), 2);
    let next = m.function_by_name("next").unwrap();
    let summary = prior.get(&sums.keys().of(next)).expect("key matches fixture");
    assert_eq!(summary.args_lt_ret(), &[0]);
}

#[test]
fn legacy_name_keyed_cache_file_is_refused() {
    // The retired `SRAASUMC` layout (function name → key, summary) is a
    // defect like any other: the engine warns, runs cold and heals it.
    let legacy = fixture("summary_cache_v1.bin");
    assert!(std::fs::read(&legacy).expect("legacy fixture").starts_with(b"SRAASUMC"));
    assert!(matches!(
        persist::load(&legacy, GenConfig::default()),
        Err(PersistError::Corrupted("bad magic"))
    ));
}

// ---------------------------------------------------------------------
// Property suite: random structures, variants and mutation sets — plus
// csmith modules for the unchanged-module contract.
// ---------------------------------------------------------------------

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Cold → mutate k helper bodies → warm must be byte-identical to
        /// a fresh cold run, with misses exactly the functions whose key
        /// the prior lacks, all inside the call graph's reverse-
        /// reachability closure of the mutation — for arbitrary call
        /// structures, body variants and mutation sets.
        #[test]
        fn warm_equals_cold_after_arbitrary_mutations(
            n in 2usize..7,
            structure in 0u64..64,
            variants in 0u64..64,
            raw_mutations in proptest::collection::btree_set(0usize..7, 1..4),
        ) {
            let mutated: BTreeSet<usize> =
                raw_mutations.into_iter().map(|i| i % n).collect();
            check_mutation(n, structure, variants, &mutated);
        }

        /// An unchanged csmith module (with helper calls) warm-runs at a
        /// 100% hit rate with zero solves and identical results.
        #[test]
        fn csmith_modules_hit_fully_when_unchanged(
            seed in 0u64..12,
            helpers in 1usize..3,
        ) {
            let w = sraa_synth::csmith_generate(sraa_synth::CsmithConfig {
                seed,
                max_ptr_depth: 3,
                num_stmts: 16,
                helpers,
            });
            let p = prepare(&w.source);
            let prior = prior_of(&p);
            let (warm_sums, outcome) = warm(&p, &prior);
            assert_warm_equals_cold(&p, &warm_sums, &w.name);
            prop_assert_eq!(outcome.hits as usize, p.module.num_functions());
            prop_assert_eq!(outcome.misses, 0);
            prop_assert_eq!(warm_sums.stats.solves, 0);
        }
    }
}
