//! The `DisambiguationEngine` — one owner for the whole analysis stack.
//!
//! ```text
//!             e-SSA lowering        constraint generation
//! SSA module ───(sraa-essa)──▶ e-SSA ──(Figure 7, per-function,──▶ ConstraintSystem
//!                                        scoped threads)                 │
//!                                                              SolverKind│
//!                                                                        ▼
//!        queries (Definition 3.11, batch API) ◀──────────────────  Solution
//! ```
//!
//! Historically every consumer — the alias backends, the Pentagon
//! adapter, the optimisation passes, the PDG builder, the CLI — picked a
//! solver itself and re-plumbed the e-SSA → constraints → solve pipeline.
//! The engine centralises that: it owns the interned [`VarIndex`] arena,
//! runs constraint generation (fanning the per-function pass out across
//! scoped threads on large modules), solves with the strategy selected
//! by [`SolverKind`], and answers
//! every disambiguation query directly from the solved relation (two
//! binary searches per criterion). Consumers hold an engine (usually
//! behind an `Arc`) and ask questions; none of them constructs solvers
//! anymore.

use crate::analysis::{derived_pointer, strip_copies};
use crate::constraints::{self, Constraint, GenConfig};
use crate::fast_solver::solve_fast;
use crate::jobs::Jobs;
use crate::persist::{self, SummaryMap};
use crate::solver::{solve, Solution, SolveStats};
use crate::store::{SharedSummaryStore, StoreOutcome};
use crate::summary::{CacheOutcome, FunctionSummary, ModuleSummaries};
use crate::var_index::VarIndex;
use sraa_ir::{FuncId, Function, InstKind, Module, Type, Value};
use sraa_range::RangeAnalysis;

/// Which fixpoint strategy the engine runs.
///
/// * [`SolverKind::Worklist`] — the paper's §3.4 FIFO worklist; ≈2 pops
///   per constraint in practice, kept as the executable specification.
/// * [`SolverKind::Scc`] — Tarjan condensation with topological
///   scheduling and union-cycle short-circuiting; exactly one evaluation
///   per constraint on acyclic systems. **The default**: every consumer
///   that doesn't say otherwise gets the fast path.
///
/// Both produce identical solutions (differentially tested across the
/// corpus), so the choice is purely a performance knob — exposed as the
/// `--solver {worklist,scc}` CLI flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolverKind {
    /// The paper-faithful FIFO worklist solver.
    Worklist,
    /// The SCC-condensation solver (default).
    #[default]
    Scc,
}

impl SolverKind {
    /// Every strategy, in presentation order.
    pub const ALL: [SolverKind; 2] = [SolverKind::Worklist, SolverKind::Scc];

    /// Parses a CLI-style name (`"worklist"` / `"scc"`).
    pub fn parse(s: &str) -> Option<SolverKind> {
        match s {
            "worklist" => Some(SolverKind::Worklist),
            "scc" => Some(SolverKind::Scc),
            _ => None,
        }
    }

    /// The CLI-style name.
    pub fn as_str(self) -> &'static str {
        match self {
            SolverKind::Worklist => "worklist",
            SolverKind::Scc => "scc",
        }
    }

    /// Solves the constraint system over `num_vars` variables with this
    /// strategy.
    pub fn solve(self, constraints: &[Constraint], num_vars: usize) -> Solution {
        match self {
            SolverKind::Worklist => solve(constraints, num_vars),
            SolverKind::Scc => solve_fast(constraints, num_vars),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How much of the call graph the analysis sees.
///
/// * [`Contextuality::Intra`] — the paper's setting: every call result is
///   opaque (`LT(r) = ∅`); facts never cross call boundaries (the
///   pseudo-φs still flow caller facts *into* callees).
/// * [`Contextuality::Summaries`] — bottom-up interprocedural summaries
///   ([`ModuleSummaries`]): each function's context-free `param_j < ret`
///   facts are distilled over the condensed call graph (fixpoint inside
///   recursive components) and applied at every call site, so callers
///   inherit `x < len`-style facts through helpers. Strictly more
///   precise, never less (differentially tested); exposed as the
///   `--interproc` CLI flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Contextuality {
    /// Intraprocedural (paper-faithful): calls are opaque.
    #[default]
    Intra,
    /// Interprocedural bottom-up summaries applied at call sites.
    Summaries,
}

/// Full engine configuration: constraint-generation options, the fixpoint
/// strategy, the interprocedural mode, and the optional persistent
/// summary cache.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Constraint-generation options (paper fidelity knobs).
    pub gen: GenConfig,
    /// Fixpoint strategy (default: [`SolverKind::Scc`]).
    pub solver: SolverKind,
    /// Interprocedural mode (default: [`Contextuality::Intra`]).
    pub contextuality: Contextuality,
    /// Path of the persistent summary cache (the CLI's `--summary-cache`).
    /// Only meaningful with [`Contextuality::Summaries`] — the cache
    /// stores interprocedural summaries. When set, the engine reads the
    /// file as the prior before the summary phase (any defect falls back
    /// to a cold solve with a warning on stderr, never a panic or a stale
    /// result) and rewrites it afterwards with this run's keys. Hit/miss
    /// counts land in [`SolveStats`].
    pub summary_cache: Option<std::path::PathBuf>,
    /// Directory of the content-addressed shared summary store (the
    /// CLI's `--shared-store`). Only meaningful with
    /// [`Contextuality::Summaries`]. Unlike `summary_cache` — one file,
    /// one module name — the store spans *all* modules and processes:
    /// entries are keyed by the content-addressed summary key alone, so
    /// a helper solved under any module (or by another daemon sharing
    /// the directory) is a hit here. Consulted for every key the
    /// per-module cache lacks; newly solved summaries are published
    /// back. A defective
    /// directory falls back to running without the store, with a warning
    /// on stderr. Hit/miss/publish counts land in [`SolveStats`].
    pub shared_store: Option<std::path::PathBuf>,
    /// Worker threads for the wavefront-parallel summary pipeline
    /// (default: [`Jobs::Auto`] — `SRAA_JOBS`, else available
    /// parallelism). Exposed as the `--jobs N` CLI flag; every jobs
    /// value yields byte-identical output.
    pub jobs: Jobs,
}

impl EngineConfig {
    /// This configuration with interprocedural summaries switched on.
    pub fn with_summaries(mut self) -> Self {
        self.contextuality = Contextuality::Summaries;
        self
    }

    /// This configuration with a persistent summary cache at `path`
    /// (implies [`Contextuality::Summaries`]).
    pub fn with_summary_cache(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.contextuality = Contextuality::Summaries;
        self.summary_cache = Some(path.into());
        self
    }

    /// This configuration with a content-addressed shared summary store
    /// at `dir` (implies [`Contextuality::Summaries`]). Composes with
    /// [`EngineConfig::with_summary_cache`]: each key is looked up in
    /// the per-module cache first, then in the store.
    pub fn with_shared_store(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.contextuality = Contextuality::Summaries;
        self.shared_store = Some(dir.into());
        self
    }

    /// This configuration with an explicit worker-thread count for the
    /// summary pipeline.
    pub fn with_jobs(mut self, jobs: Jobs) -> Self {
        self.jobs = jobs;
        self
    }
}

impl From<GenConfig> for EngineConfig {
    fn from(gen: GenConfig) -> Self {
        EngineConfig { gen, ..Default::default() }
    }
}

/// The solved less-than relation over a whole module plus the pointer
/// disambiguation criteria of the paper's Definition 3.11.
///
/// Every `no_alias` verdict is computed directly from the solved
/// relation, so the engine's memory stays fixed after construction; the
/// batch API ([`DisambiguationEngine::no_alias_pairs`]) answers all-pairs
/// queries in one call. The engine is `Send + Sync` — share it behind an
/// `Arc` instead of cloning results.
#[derive(Clone, Debug)]
pub struct DisambiguationEngine {
    index: VarIndex,
    solution: Solution,
    ranges: RangeAnalysis,
    cfg: GenConfig,
    solver: SolverKind,
    /// Interprocedural summaries, when built with
    /// [`Contextuality::Summaries`].
    summaries: Option<ModuleSummaries>,
}

impl DisambiguationEngine {
    /// Runs the full pipeline with default (paper-faithful constraints,
    /// SCC solver) settings.
    ///
    /// The module is mutated: it is converted to e-SSA form first.
    pub fn run(module: &mut Module) -> Self {
        Self::build(module, EngineConfig::default())
    }

    /// Runs the full pipeline with explicit constraint-generation options
    /// and the default solver.
    pub fn run_with(module: &mut Module, gen: GenConfig) -> Self {
        Self::build(module, EngineConfig::from(gen))
    }

    /// Runs the full pipeline with an explicit configuration.
    pub fn build(module: &mut Module, cfg: EngineConfig) -> Self {
        let (ranges, _) = sraa_essa::transform_module(module);
        Self::on_prepared(module, &ranges, cfg)
    }

    /// Analyzes a module that is *already* in e-SSA form, with
    /// caller-provided ranges. Useful when the caller also needs the
    /// intermediate artifacts. Reads and rewrites the configured
    /// `summary_cache` file and opens the configured `shared_store`.
    pub fn on_prepared(module: &Module, ranges: &RangeAnalysis, cfg: EngineConfig) -> Self {
        let t0 = std::time::Instant::now();
        if cfg.contextuality == Contextuality::Intra {
            return Self::assemble(module, ranges, cfg, None, None, t0);
        }
        // A missing file is a plain cold start; a defective one is a
        // warned cold start. Either way every function counts as a miss
        // against the empty prior, and the rewrite below heals the file.
        let prior = cfg.summary_cache.as_deref().map(|path| {
            persist::load(path, cfg.gen).unwrap_or_else(|e| {
                if !e.is_not_found() {
                    eprintln!("# summary-cache warning: {}: {e}; running cold", path.display());
                }
                SummaryMap::new()
            })
        });
        let store = Self::open_store(&cfg);
        Self::assemble(module, ranges, cfg, prior.as_ref(), store.as_ref(), t0)
    }

    /// Builds the engine in interprocedural mode against a caller-held
    /// `prior` (`key → summary`, e.g. the previous upload's
    /// [`ModuleSummaries::entries`]) and/or a caller-held
    /// [`SharedSummaryStore`] — the resident-daemon path (`sraa serve`).
    /// Every member is looked up by key in the prior, then the store;
    /// whatever is still missing is solved, and every summary is
    /// published back into the store. No file IO happens besides the
    /// store's own segments: any `summary_cache`/`shared_store` path in
    /// `cfg` is ignored, and [`Contextuality::Summaries`] is implied. The
    /// module is mutated (converted to e-SSA form).
    pub fn build_warm(
        module: &mut Module,
        mut cfg: EngineConfig,
        prior: Option<&SummaryMap>,
        store: Option<&SharedSummaryStore>,
    ) -> Self {
        let (ranges, _) = sraa_essa::transform_module(module);
        let t0 = std::time::Instant::now();
        cfg.contextuality = Contextuality::Summaries;
        cfg.summary_cache = None;
        cfg.shared_store = None;
        Self::assemble(module, &ranges, cfg, prior, store, t0)
    }

    /// Opens the configured shared store, degrading to `None` (with a
    /// stderr warning) on any IO failure — like a defective summary
    /// cache, a defective store can cost speed, never correctness.
    fn open_store(cfg: &EngineConfig) -> Option<SharedSummaryStore> {
        let dir = cfg.shared_store.as_ref()?;
        match SharedSummaryStore::open(dir, cfg.gen) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!(
                    "# shared-store warning: {}: {e}; running without a store",
                    dir.display()
                );
                None
            }
        }
    }

    /// The interprocedural summary phase: look every function up in the
    /// prior and the store, solve the residue, rewrite the configured
    /// cache file and publish into the store. The file rewrite is
    /// unconditional — it refreshes stale entries and heals defective
    /// files; a write failure only costs the *next* run its warm start.
    /// Publishing every entry (not just the cold-solved ones) is
    /// deliberate: insert-if-absent makes it idempotent, and it migrates
    /// summaries that arrived via the prior into the store.
    fn summary_phase(
        module: &Module,
        ranges: &RangeAnalysis,
        cfg: &EngineConfig,
        index: &VarIndex,
        prior: Option<&SummaryMap>,
        store: Option<&SharedSummaryStore>,
    ) -> (ModuleSummaries, CacheOutcome, StoreOutcome) {
        let (sums, outcome, mut store_outcome) =
            ModuleSummaries::compute(module, ranges, index, cfg, prior, store);
        if let Some(path) = &cfg.summary_cache {
            if prior.is_some_and(|p| !p.is_empty()) && outcome.hits == 0 && outcome.misses > 0 {
                eprintln!(
                    "# summary-cache warning: {}: no cached summary matched this module; \
                     running cold",
                    path.display()
                );
            }
            if let Err(e) = persist::save(path, &sums, cfg.gen) {
                eprintln!("# summary-cache warning: cannot write {}: {e}", path.display());
            }
        }
        if let Some(store) = store {
            let entries: Vec<(u64, FunctionSummary)> =
                sums.entries().map(|(k, s)| (k, s.clone())).collect();
            store_outcome.published = match store.publish(&entries) {
                Ok(n) => n as u32,
                Err(e) => {
                    eprintln!(
                        "# shared-store warning: cannot publish to {}: {e}",
                        store.dir().display()
                    );
                    0
                }
            };
        }
        (sums, outcome, store_outcome)
    }

    /// The tail of every construction path: the summary phase (in
    /// interprocedural mode), constraint generation, the module-wide
    /// solve(s), and per-phase stats attribution. `t0` marks the start of
    /// the summary phase, cache IO included.
    fn assemble(
        module: &Module,
        ranges: &RangeAnalysis,
        cfg: EngineConfig,
        prior: Option<&SummaryMap>,
        store: Option<&SharedSummaryStore>,
        t0: std::time::Instant,
    ) -> Self {
        let index = VarIndex::new(module);
        // Interprocedural mode: distil per-function summaries bottom-up
        // over the condensed call graph first, then let module-wide
        // constraint generation apply them at every call site.
        let (summaries, cache_outcome, store_outcome) = match cfg.contextuality {
            Contextuality::Intra => (None, CacheOutcome::default(), StoreOutcome::default()),
            Contextuality::Summaries => {
                let (sums, c, s) = Self::summary_phase(module, ranges, &cfg, &index, prior, store);
                (Some(sums), c, s)
            }
        };
        let summary_build_ns = if summaries.is_some() { t0.elapsed().as_nanos() as u64 } else { 0 };
        let mut sys = match &summaries {
            None => constraints::generate_with_index(module, ranges, cfg.gen, &index),
            Some(sums) => {
                constraints::generate_with_summaries(module, ranges, cfg.gen, &index, sums)
            }
        };
        let solve_t0 = std::time::Instant::now();
        let mut solution = cfg.solver.solve(&sys.constraints, sys.num_vars);

        // Parameter-pair refinement (see `GenConfig::param_pairs`): when
        // every internal call site orders two arguments, the corresponding
        // formals are ordered for the whole frame. Each round may unlock
        // further pairs (arguments that are themselves parameters), so
        // iterate; the element sets only grow, bounded by #param².
        if cfg.gen.param_pairs {
            loop {
                let mut added = false;
                for info in &sys.param_info {
                    if info.sites.is_empty() {
                        continue;
                    }
                    for (i, &pi) in info.params.iter().enumerate() {
                        for (j, &pj) in info.params.iter().enumerate() {
                            if i == j || solution.less_than(pi, pj) {
                                continue;
                            }
                            let Some(&cu) = sys.param_union.get(&pj) else { continue };
                            let holds_everywhere = info.sites.iter().all(|site| {
                                matches!((site[i], site[j]), (Some(a), Some(b))
                                    if solution.less_than(a, b))
                            });
                            if holds_everywhere {
                                if let Constraint::Union { elems, .. } = &mut sys.constraints[cu] {
                                    elems.push(pi);
                                    added = true;
                                }
                            }
                        }
                    }
                }
                if !added {
                    break;
                }
                solution = cfg.solver.solve(&sys.constraints, sys.num_vars);
            }
        }

        // Per-phase attribution (see `SolveStats`): wall clock split
        // between the summary build (includes cache IO on warm runs) and
        // the module-wide solve(s), plus the deterministic cache counters.
        solution.stats.summary_build_ns = summary_build_ns;
        solution.stats.final_solve_ns = solve_t0.elapsed().as_nanos() as u64;
        solution.stats.cache_hits = cache_outcome.hits;
        solution.stats.cache_misses = cache_outcome.misses;
        solution.stats.store_hits = store_outcome.hits;
        solution.stats.store_misses = store_outcome.misses;
        solution.stats.store_published = store_outcome.published;

        Self {
            index,
            solution,
            ranges: ranges.clone(),
            cfg: cfg.gen,
            solver: cfg.solver,
            summaries,
        }
    }

    /// The strategy this engine solved with.
    pub fn solver_kind(&self) -> SolverKind {
        self.solver
    }

    /// The interprocedural mode this engine was built with.
    pub fn contextuality(&self) -> Contextuality {
        if self.summaries.is_some() {
            Contextuality::Summaries
        } else {
            Contextuality::Intra
        }
    }

    /// The interprocedural summaries, when built with
    /// [`Contextuality::Summaries`].
    pub fn summaries(&self) -> Option<&ModuleSummaries> {
        self.summaries.as_ref()
    }

    /// The interned variable arena.
    pub fn var_index(&self) -> &VarIndex {
        &self.index
    }

    /// The raw solved relation.
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// Whether `a < b` is proven: `a ∈ LT(b)`.
    pub fn less_than(&self, f: FuncId, a: Value, b: Value) -> bool {
        self.solution.less_than(self.index.id(f, a), self.index.id(f, b))
    }

    /// Cross-function variant (the relation is module-wide; meaningful for
    /// values related through the inter-procedural pseudo-φs).
    pub fn less_than_cross(&self, fa: FuncId, a: Value, fb: FuncId, b: Value) -> bool {
        self.solution.less_than(self.index.id(fa, a), self.index.id(fb, b))
    }

    /// The `LT` set of `v`, as `(function, value)` pairs in ascending
    /// [`VarId`](crate::VarId) order — byte-identical across runs.
    pub fn lt_set(&self, f: FuncId, v: Value) -> Vec<(FuncId, Value)> {
        self.solution.lt_vars(self.index.id(f, v)).map(|id| self.index.func_of(id)).collect()
    }

    /// Solver statistics (constraint count, evaluations, SCC shape, …).
    pub fn stats(&self) -> &SolveStats {
        &self.solution.stats
    }

    /// Histogram of `LT` set sizes (the paper observes ≥95% have ≤ 2).
    pub fn size_histogram(&self) -> Vec<(usize, usize)> {
        self.solution.size_histogram()
    }

    /// The paper's Definition 3.11: can `p1` and `p2` be proven disjoint?
    ///
    /// * Criterion 1 — `p1 ∈ LT(p2)` or `p2 ∈ LT(p1)`;
    /// * Criterion 2 — `p1 = p + x1`, `p2 = p + x2` (same base, both
    ///   offsets variables) with `x1 ∈ LT(x2)` or `x2 ∈ LT(x1)`.
    ///
    /// Both pointers must live in function `f`. Non-pointer operands
    /// always answer `false`. The verdict is symmetric in `p1`/`p2`.
    pub fn no_alias(&self, func: &Function, f: FuncId, p1: Value, p2: Value) -> bool {
        if p1 == p2 {
            return false;
        }
        let is_ptr = |v: Value| func.value_type(v).is_some_and(Type::is_ptr);
        if !is_ptr(p1) || !is_ptr(p2) {
            return false;
        }
        // Criterion 1.
        if self.less_than(f, p1, p2) || self.less_than(f, p2, p1) {
            return true;
        }
        // Criterion 2 (and, when enabled, the §3.6 range criterion).
        if let (Some((b1, x1)), Some((b2, x2))) =
            (derived_pointer(func, p1), derived_pointer(func, p2))
        {
            if strip_copies(func, b1) == strip_copies(func, b2) {
                let is_var = |x: Value| !matches!(func.inst(x).kind, InstKind::Const(_));
                if is_var(x1)
                    && is_var(x2)
                    && (self.less_than(f, x1, x2) || self.less_than(f, x2, x1))
                {
                    return true;
                }
            }
        }
        // §3.6 range criterion (opt-in): accumulate offset intervals along
        // the whole gep chain down to a common root object; disjoint total
        // intervals cannot overlap. This is the classic value-set
        // disambiguation the paper cites as complementary prior work.
        if self.cfg.range_offsets {
            let (r1, iv1) = self.root_and_offset(func, f, p1);
            let (r2, iv2) = self.root_and_offset(func, f, p2);
            if r1 == r2 && iv1.meet(&iv2).is_bottom() {
                return true;
            }
        }
        false
    }

    /// Batched pair-query API: disambiguates every unordered pair of
    /// `ptrs` (the `aa-eval` access pattern), returning the pairs proven
    /// disjoint, in input order — exactly the pairs a point
    /// [`DisambiguationEngine::no_alias`] query would confirm.
    pub fn no_alias_pairs(
        &self,
        func: &Function,
        f: FuncId,
        ptrs: &[Value],
    ) -> Vec<(Value, Value)> {
        let mut out = Vec::new();
        for (i, &p1) in ptrs.iter().enumerate() {
            for &p2 in &ptrs[i + 1..] {
                if self.no_alias(func, f, p1, p2) {
                    out.push((p1, p2));
                }
            }
        }
        out
    }

    /// Walks copies and nested `gep`s down to the root pointer, summing
    /// the offsets' intervals.
    fn root_and_offset(
        &self,
        func: &Function,
        f: FuncId,
        p: Value,
    ) -> (Value, sraa_range::Interval) {
        let mut total = sraa_range::Interval::constant(0);
        let mut cur = strip_copies(func, p);
        while let InstKind::Gep { base, offset } = &func.inst(cur).kind {
            let r = match func.inst(*offset).kind {
                InstKind::Const(c) => sraa_range::Interval::constant(c),
                _ => self.ranges.range(f, *offset),
            };
            total = total.add(&r);
            cur = strip_copies(func, *base);
        }
        (cur, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines(src: &str) -> (Module, DisambiguationEngine, DisambiguationEngine) {
        // Compile twice so each engine runs the full deterministic
        // pipeline on an identical program.
        let mut m = sraa_minic::compile(src).unwrap();
        let scc = DisambiguationEngine::build(
            &mut m,
            EngineConfig { solver: SolverKind::Scc, ..Default::default() },
        );
        let mut m2 = sraa_minic::compile(src).unwrap();
        let wl = DisambiguationEngine::build(
            &mut m2,
            EngineConfig { solver: SolverKind::Worklist, ..Default::default() },
        );
        assert_eq!(m, m2, "the e-SSA pipeline must be deterministic");
        (m, scc, wl)
    }

    #[test]
    fn solver_kind_parses_cli_names() {
        assert_eq!(SolverKind::parse("scc"), Some(SolverKind::Scc));
        assert_eq!(SolverKind::parse("worklist"), Some(SolverKind::Worklist));
        assert_eq!(SolverKind::parse("magic"), None);
        assert_eq!(SolverKind::default(), SolverKind::Scc, "the fast path is the default");
        for k in SolverKind::ALL {
            assert_eq!(SolverKind::parse(k.as_str()), Some(k));
            assert_eq!(format!("{k}"), k.as_str());
        }
    }

    #[test]
    fn strategies_agree_through_the_engine() {
        let (m, scc, wl) = engines(
            r#"
            void f(int* v, int N) {
                for (int i = 0, j = N; i < j; i++, j--) v[i] = v[j];
            }
            "#,
        );
        for (fid, f) in m.functions() {
            for a in f.value_ids() {
                for b in f.value_ids() {
                    assert_eq!(
                        scc.less_than(fid, a, b),
                        wl.less_than(fid, a, b),
                        "solver strategies disagree on {a} < {b}"
                    );
                }
                assert_eq!(scc.lt_set(fid, a), wl.lt_set(fid, a));
            }
        }
        assert_eq!(scc.solver_kind(), SolverKind::Scc);
        assert_eq!(wl.solver_kind(), SolverKind::Worklist);
    }

    #[test]
    fn summaries_mode_refines_call_results() {
        let src = r#"
            int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
            int f(int* p, int n) { int* q = advance(p, n); *q = 1; *p = 2; return *q; }
            int main() { int a[8]; return f(a, 3); }
        "#;
        let mut m1 = sraa_minic::compile(src).unwrap();
        let intra = DisambiguationEngine::build(&mut m1, EngineConfig::default());
        let mut m2 = sraa_minic::compile(src).unwrap();
        let inter = DisambiguationEngine::build(&mut m2, EngineConfig::default().with_summaries());
        assert_eq!(m1, m2, "contextuality must not perturb the e-SSA pipeline");
        assert_eq!(intra.contextuality(), Contextuality::Intra);
        assert_eq!(inter.contextuality(), Contextuality::Summaries);
        assert!(intra.summaries().is_none());
        assert_eq!(inter.summaries().unwrap().facts(), 1, "advance: p < ret");

        let fid = m1.function_by_name("f").unwrap();
        let f = m1.function(fid);
        let (p, q) = (f.param_value(0), {
            // The call result is the unique Call instruction in `f`.
            let mut q = None;
            for b in f.block_ids() {
                for (v, d) in f.block_insts(b) {
                    if matches!(d.kind, InstKind::Call { .. }) {
                        q = Some(v);
                    }
                }
            }
            q.unwrap()
        });
        assert!(!intra.no_alias(f, fid, p, q), "intra mode: the call is opaque");
        assert!(inter.no_alias(f, fid, p, q), "summaries: p < advance(p, n)");
        // Refinement: everything intra proves, summaries still proves.
        for a in f.value_ids() {
            for b in f.value_ids() {
                if intra.no_alias(f, fid, a, b) {
                    assert!(inter.no_alias(f, fid, a, b), "summaries lost {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn per_phase_timings_are_attributed_and_excluded_from_equality() {
        let src = r#"
            int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
            int main() { int a[8]; int* q = advance(a, 3); return *q; }
        "#;
        let mut m1 = sraa_minic::compile(src).unwrap();
        let intra = DisambiguationEngine::build(&mut m1, EngineConfig::default());
        let mut m2 = sraa_minic::compile(src).unwrap();
        let inter = DisambiguationEngine::build(&mut m2, EngineConfig::default().with_summaries());

        assert_eq!(intra.stats().summary_build_ns, 0, "no summary phase in intra mode");
        assert!(intra.stats().final_solve_ns > 0, "the final solve must be timed");
        assert!(inter.stats().summary_build_ns > 0, "the summary phase must be timed");
        assert!(inter.stats().final_solve_ns > 0);
        assert_eq!(
            (intra.stats().cache_hits, intra.stats().cache_misses),
            (0, 0),
            "no cache configured"
        );

        // Equality compares the deterministic counters only: two runs of
        // the same pipeline agree even though their timings differ …
        let mut a = *inter.stats();
        let mut b = a;
        b.summary_build_ns = a.summary_build_ns.wrapping_add(12_345);
        b.final_solve_ns = 0;
        assert_eq!(a, b, "wall-clock fields must not affect SolveStats equality");
        // … while any deterministic counter still distinguishes them.
        b.pops += 1;
        assert_ne!(a, b);
        a.cache_hits += 1;
        b.pops -= 1;
        assert_ne!(a, b);
    }

    #[test]
    fn clone_preserves_results() {
        let (m, scc, _) = engines("int f(int x) { return x + 1; }");
        let clone = scc.clone();
        let fid = m.function_by_name("f").unwrap();
        for v in m.function(fid).value_ids() {
            assert_eq!(scc.lt_set(fid, v), clone.lt_set(fid, v));
        }
        assert_eq!(scc.stats(), clone.stats());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use sraa_synth::{csmith_generate, CsmithConfig};

        proptest! {
            /// On csmith programs with helper calls, under both
            /// contextualities: the batch API returns exactly the in-order
            /// filter of point queries over every pair, and point queries
            /// are symmetric.
            #[test]
            fn batch_pairs_equal_point_queries(seed in 0u64..64, helpers in 1usize..3) {
                let w = csmith_generate(CsmithConfig {
                    seed,
                    max_ptr_depth: 2,
                    num_stmts: 18,
                    helpers,
                });
                for cfg in [EngineConfig::default(), EngineConfig::default().with_summaries()] {
                    let mut m = sraa_minic::compile(&w.source).unwrap();
                    let engine = DisambiguationEngine::build(&mut m, cfg);
                    for (fid, f) in m.functions() {
                        let ptrs: Vec<Value> = f
                            .value_ids()
                            .filter(|&v| f.value_type(v).is_some_and(Type::is_ptr))
                            .collect();
                        let mut point = Vec::new();
                        for (i, &p1) in ptrs.iter().enumerate() {
                            for &p2 in &ptrs[i + 1..] {
                                let verdict = engine.no_alias(f, fid, p1, p2);
                                prop_assert_eq!(verdict, engine.no_alias(f, fid, p2, p1));
                                if verdict {
                                    point.push((p1, p2));
                                }
                            }
                        }
                        prop_assert_eq!(engine.no_alias_pairs(f, fid, &ptrs), point, "{}", w.name);
                    }
                }
            }
        }
    }
}
