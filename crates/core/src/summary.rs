//! Interprocedural **strict-inequality summaries** — the layer that lets
//! `x < len`-style facts cross call boundaries.
//!
//! The paper's analysis is intraprocedural: every call result is grounded
//! at `LT(r) = ∅`, so a helper as trivial as `int next(int i) { return
//! i + 1; }` erases the `i < next(i)` fact its body proves. This module
//! distils, for every function, a **summary** — the set of formal
//! parameters that are strictly less than every value the function can
//! return — and propagates it bottom-up over the SCC condensation of the
//! direct call graph ([`sraa_ir::CallGraph`]):
//!
//! ```text
//!   condensed call graph, callees-first
//!   ┌────────┐      ┌───────────┐      ┌───────────┐
//!   │ leaf g │─────▶│ SCC {f,h} │─────▶│  main …   │
//!   └────────┘      └───────────┘      └───────────┘
//!    solve g's       iterate the        every call site
//!    constraints,    members' solves    r = g(a…) now yields
//!    distil S(g)     to a fixpoint      LT(r) ⊇ {a_j} ∪ LT(a_j)
//!                    (recursion)           for each j ∈ S(g)
//! ```
//!
//! # Per-SCC solves
//!
//! Each component is solved in isolation: its members' Figure-7
//! constraints (with summaries of *earlier* components applied at call
//! sites), plus `Init` grounding for the formal parameters. Grounded
//! params are what makes a distilled fact **context-free** — `param_j ∈
//! LT(ret)` must hold for every caller, so the solve must not assume any
//! caller facts. Variables are remapped into a compact per-component
//! space (`SccSpace`) so a solve costs `O(|SCC|)`, not `O(|module|)`.
//!
//! # Recursion
//!
//! Members of a recursive component read their *own* (and their
//! siblings') summaries at intra-SCC call sites. The fixpoint starts
//! **optimistically** (every parameter assumed `< ret`) and descends
//! until stable — the same greatest-fixpoint treatment the paper gives
//! φ-cycles (Theorem 3.7). Soundness is by induction on the height of a
//! terminating call tree: a fact consumed at height `h` is justified by
//! derivations over strictly smaller trees, bottoming out at
//! non-recursive return paths; claims about calls that never return are
//! vacuous (there is no runtime value to compare). The differential and
//! interpreter-based tests (`tests/interproc.rs`) check exactly this.
//!
//! # What a summary does *not* carry (yet)
//!
//! `ret < param_j` facts (e.g. `return n - 1`) would require editing the
//! *argument's* defining constraint at every call site; caller-specific
//! (context-sensitive) facts and indirect calls are also out of scope.
//! See ROADMAP "Open items".

use crate::constraints::{self, Constraint, GenConfig};
use crate::engine::{EngineConfig, SolverKind};
use crate::persist::{SummaryKeys, SummaryMap};
use crate::store::{SharedSummaryStore, StoreOutcome};
use crate::var_index::{VarId, VarIndex};
use sraa_ir::{CallGraph, FuncId, InstKind, Module, Value};
use sraa_range::RangeAnalysis;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Read-only summary lookup during constraint generation. The solved
/// module view ([`ModuleSummaries`]) and the per-SCC overlay a wavefront
/// worker holds while iterating a recursive component ([`SccView`]) both
/// answer the one question `call_result` asks: which parameters of the
/// callee are proven `< ret`. `Sync` because workers share the view
/// across scoped threads.
pub(crate) trait SummarySource: Sync {
    /// Sorted indices of `f`'s parameters proven strictly less than
    /// every value `f` returns.
    fn args_lt_ret_of(&self, f: FuncId) -> &[u32];
}

impl SummarySource for ModuleSummaries {
    fn args_lt_ret_of(&self, f: FuncId) -> &[u32] {
        self.per_func[f.index()].args_lt_ret()
    }
}

/// What one function guarantees about its return value, independent of
/// any calling context.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FunctionSummary {
    /// Sorted indices `j` of formal parameters with `param_j < ret` at
    /// every return site. (`pub(crate)` so `persist` can reconstruct
    /// summaries from their serialized form.)
    pub(crate) args_lt_ret: Box<[u32]>,
}

impl FunctionSummary {
    /// Sorted indices of parameters proven strictly less than every
    /// returned value.
    pub fn args_lt_ret(&self) -> &[u32] {
        &self.args_lt_ret
    }

    /// Number of facts in the summary.
    pub fn facts(&self) -> usize {
        self.args_lt_ret.len()
    }

    /// Whether the summary carries no facts (calls stay opaque).
    pub fn is_empty(&self) -> bool {
        self.args_lt_ret.is_empty()
    }
}

/// Statistics of one bottom-up summary computation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SummaryStats {
    /// Components of the condensed call graph.
    pub sccs: usize,
    /// Components containing a call cycle.
    pub recursive_sccs: usize,
    /// Total per-SCC solves (≥ `sccs` on a cold run; recursion iterates,
    /// and warm runs skip cache-hit components entirely).
    pub solves: u64,
    /// Total `param_j < ret` facts across all functions.
    pub facts: usize,
}

/// How a warm run used its prior (the `--summary-cache` file, or the
/// daemon's previous upload), counted per *function*: every function of
/// the module is a hit or a miss.
///
/// Deterministic for a given `(module, prior)` pair: the misses are
/// exactly `{ f : key(f) ∉ keys(prior) }`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// Functions whose key is in the prior; their summaries were reused
    /// and their component's solve skipped.
    pub hits: u32,
    /// Functions whose key is not in the prior: new, or edited (the
    /// function, or something it can call, changed).
    pub misses: u32,
}

impl CacheOutcome {
    /// Hits over all classified functions, in `[0, 1]`; `1.0` for an
    /// empty module (nothing *missed*).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            f64::from(self.hits) / f64::from(total)
        }
    }
}

/// Per-function summaries for a whole module, in [`FuncId`] order, with
/// the per-function keys they are persisted and shared under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleSummaries {
    per_func: Vec<FunctionSummary>,
    keys: SummaryKeys,
    /// Computation statistics (component counts, fixpoint iterations).
    pub stats: SummaryStats,
}

impl ModuleSummaries {
    /// Computes all summaries bottom-up over the condensed call graph,
    /// using `cfg`'s constraint options, solver and jobs.
    ///
    /// `module` must already be in e-SSA form with `ranges` computed for
    /// it (the same preconditions as constraint generation).
    ///
    /// **Warm path:** each member of a component is looked up once by its
    /// [`SummaryKeys`] key — in `prior` first (a lock-free map), then in
    /// `store` (content-addressed across modules and processes). A
    /// component whose members all hit installs the found summaries and
    /// skips its Init-grounded solve. Cold components solve as usual,
    /// against the already-installed summaries of their callees, so the
    /// result is *identical* to a run with neither source (up to
    /// `stats.solves`, which records the work actually done; the
    /// differential suite in `tests/incremental.rs` holds this to
    /// byte-identical solutions). Publishing back into the store is the
    /// caller's job ([`crate::DisambiguationEngine`] publishes every
    /// entry after the solve; insert-if-absent makes that idempotent).
    ///
    /// The walk proceeds wavefront by wavefront over the Kahn
    /// levelization ([`sraa_ir::Condensation::layers`]): components in
    /// one layer share no call edges, so `jobs > 1` dispatches a layer's
    /// cold solves across work-stealing scoped threads. Results are
    /// **byte-identical for every jobs value** — workers only read the
    /// frozen summaries of strictly lower layers, merges happen in
    /// component order, and all statistics are commutative sums.
    pub fn compute(
        module: &Module,
        ranges: &RangeAnalysis,
        index: &VarIndex,
        cfg: &EngineConfig,
        prior: Option<&SummaryMap>,
        store: Option<&SharedSummaryStore>,
    ) -> (Self, CacheOutcome, StoreOutcome) {
        let cg = CallGraph::build(module);
        let cond = cg.condense();
        let jobs = cfg.jobs.get();
        let mut outcome = CacheOutcome::default();
        let mut store_outcome = StoreOutcome::default();
        let mut sums = ModuleSummaries {
            per_func: vec![FunctionSummary::default(); module.num_functions()],
            keys: SummaryKeys::compute(module, &cg, &cond),
            stats: SummaryStats {
                sccs: cond.len(),
                recursive_sccs: cond.num_recursive(),
                ..Default::default()
            },
        };
        // One key lookup per member: the prior, then the store, with a
        // hit or miss counted against each source consulted.
        let mut lookup = |key: u64| {
            if let Some(prior) = prior {
                if let Some(s) = prior.get(&key) {
                    outcome.hits += 1;
                    return Some(s.clone());
                }
                outcome.misses += 1;
            }
            let found = store?.get(key);
            match found {
                Some(_) => store_outcome.hits += 1,
                None => store_outcome.misses += 1,
            }
            found
        };

        for layer in cond.layers() {
            // Warm path first, serially: an all-members hit installs the
            // found summaries and skips the solve — too cheap to pay a
            // thread spawn for. Partial hits cannot happen within a
            // component (members are mutually reachable, so one edit
            // re-keys them all) short of a hash collision; if one ever
            // did, the cold path below recomputes everything soundly.
            let mut cold: Vec<usize> = Vec::new();
            for &ci in &layer {
                let ci = ci as usize;
                let members = cond.members(ci);
                let found: Vec<Option<FunctionSummary>> =
                    members.iter().map(|&f| lookup(sums.keys.of(f))).collect();
                match found.into_iter().collect::<Option<Vec<_>>>() {
                    Some(found) => {
                        for (&f, s) in members.iter().zip(found) {
                            sums.per_func[f.index()] = s;
                        }
                    }
                    None => cold.push(ci),
                }
            }

            // Cold components of one layer are mutually independent:
            // solve them serially, or fan out work-stealing workers when
            // the layer carries enough work to amortize the spawns.
            let layer_insts: usize = cold
                .iter()
                .flat_map(|&ci| cond.members(ci))
                .map(|&f| module.function(f).num_insts())
                .sum();
            let parallel =
                jobs >= 2 && cold.len() >= 2 && layer_insts >= WAVEFRONT_MIN_INSTRUCTIONS;
            let solve_one = |ci: usize| {
                solve_scc(
                    module,
                    ranges,
                    cfg.gen,
                    index,
                    cfg.solver,
                    cond.members(ci),
                    cond.is_recursive(ci),
                    &sums.per_func,
                )
            };
            let outs: Vec<CompOut> = if !parallel {
                cold.iter().map(|&ci| solve_one(ci)).collect()
            } else {
                // Work stealing over the layer: one shared cursor, each
                // worker grabs the next unsolved component. Slot results
                // by index so the merge below is order-independent of
                // which worker solved what.
                let cursor = AtomicUsize::new(0);
                let workers = jobs.min(cold.len());
                std::thread::scope(|s| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            s.spawn(|| {
                                let mut done: Vec<(usize, CompOut)> = Vec::new();
                                loop {
                                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                                    let Some(&ci) = cold.get(i) else { break };
                                    done.push((i, solve_one(ci)));
                                }
                                done
                            })
                        })
                        .collect();
                    let mut slots: Vec<Option<CompOut>> = cold.iter().map(|_| None).collect();
                    for h in handles {
                        for (i, out) in h.join().expect("summary wavefront worker panicked") {
                            slots[i] = Some(out);
                        }
                    }
                    slots
                        .into_iter()
                        .map(|o| o.expect("work-stealing cursor covers every component"))
                        .collect()
                })
            };

            // Deterministic merge, in component order. `solves` is a
            // commutative sum, so the total matches a serial walk.
            for (&ci, out) in cold.iter().zip(outs) {
                sums.stats.solves += out.solves;
                for (&f, s) in cond.members(ci).iter().zip(out.summaries) {
                    sums.per_func[f.index()] = s;
                }
            }
        }

        sums.stats.facts = sums.per_func.iter().map(FunctionSummary::facts).sum();
        (sums, outcome, store_outcome)
    }

    /// The summary of function `f`.
    pub fn of(&self, f: FuncId) -> &FunctionSummary {
        &self.per_func[f.index()]
    }

    /// Total `param_j < ret` facts across the module.
    pub fn facts(&self) -> usize {
        self.stats.facts
    }

    /// `(function, summary)` pairs in ascending [`FuncId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &FunctionSummary)> {
        self.per_func.iter().enumerate().map(|(i, s)| (FuncId::from_index(i), s))
    }

    /// The key every function's summary is persisted and shared under.
    pub fn keys(&self) -> &SummaryKeys {
        &self.keys
    }

    /// These summaries as the prior of the next run over the same (or an
    /// edited) module — the daemon's re-upload path.
    pub fn prior(&self) -> SummaryMap {
        self.entries().map(|(k, s)| (k, s.clone())).collect()
    }

    /// `(key, summary)` pairs in ascending [`FuncId`] order — what a
    /// prior, a cache file or a store publish is made of. Functions with
    /// identical keys repeat the same entry.
    pub fn entries(&self) -> impl Iterator<Item = (u64, &FunctionSummary)> {
        self.iter().map(|(f, s)| (self.keys.of(f), s))
    }
}

/// A wavefront layer below this much total work (instruction count over
/// its cold members) solves serially even at `jobs > 1`: thread spawns
/// would dominate on the small modules that saturate the test corpus.
/// Mirrors `PARALLEL_MIN_INSTRUCTIONS` in the constraint generator.
pub(crate) const WAVEFRONT_MIN_INSTRUCTIONS: usize = 2_000;

/// What one per-component solve produces: the members' summaries (in
/// member order) and the work counters to fold into [`SummaryStats`].
struct CompOut {
    summaries: Vec<FunctionSummary>,
    solves: u64,
}

/// The summary view one in-flight component solve reads: its own members'
/// current iterate (the optimistic descent state), everything else from
/// the frozen lower-layer base. Members never call *sideways* into their
/// own layer and never upward, so the base is always final where it is
/// consulted.
struct SccView<'a> {
    base: &'a [FunctionSummary],
    /// Ascending by [`FuncId`] (Tarjan sorts each component).
    members: &'a [FuncId],
    /// Parallel to `members`.
    local: &'a [FunctionSummary],
}

impl SummarySource for SccView<'_> {
    fn args_lt_ret_of(&self, f: FuncId) -> &[u32] {
        match self.members.binary_search(&f) {
            Ok(i) => self.local[i].args_lt_ret(),
            Err(_) => self.base[f.index()].args_lt_ret(),
        }
    }
}

/// Solves one cold component against the frozen summaries in `base` and
/// returns its members' distilled summaries. Pure with respect to the
/// module walk — workers share nothing mutable, which is what makes the
/// wavefront dispatch deterministic.
#[allow(clippy::too_many_arguments)]
fn solve_scc(
    module: &Module,
    ranges: &RangeAnalysis,
    cfg: GenConfig,
    index: &VarIndex,
    solver: SolverKind,
    members: &[FuncId],
    recursive: bool,
    base: &[FunctionSummary],
) -> CompOut {
    // Optimistic start for recursion: assume every parameter of every
    // member is < ret, then descend (greatest fixpoint).
    let mut local: Vec<FunctionSummary> = if recursive {
        members
            .iter()
            .map(|&f| {
                let n = module.function(f).params.len() as u32;
                FunctionSummary { args_lt_ret: (0..n).collect() }
            })
            .collect()
    } else {
        vec![FunctionSummary::default(); members.len()]
    };
    let mut solves = 0u64;
    let space = SccSpace::new(module, index, members);
    loop {
        let view = SccView { base, members, local: &local };
        let raw = constraints::generate_scoped(module, ranges, cfg, index, members, &view);
        let local_cs: Vec<Constraint> = raw.iter().map(|c| space.remap(c)).collect();
        let solution = solver.solve(&local_cs, space.len());
        solves += 1;
        let mut changed = false;
        for (i, &f) in members.iter().enumerate() {
            let new = distil(module, index, &space, &solution, f);
            if new != local[i] {
                local[i] = new;
                changed = true;
            }
        }
        // Non-recursive components never read their own summary, so one
        // solve is the fixpoint. Recursive components iterate: the
        // optimistic start only ever *sheds* facts, so the descent is
        // bounded by the total fact count.
        if !recursive || !changed {
            break;
        }
    }
    CompOut { summaries: local, solves }
}

/// Distils `f`'s summary from a solved per-SCC system: `j` is a fact iff
/// every return site's value has `param_j` in its `LT` set. Functions
/// with no value-returning site get the empty summary — their return
/// value never exists, so claims about it would be vacuous (mirroring
/// the solver's ⊤-freeze philosophy).
fn distil(
    module: &Module,
    index: &VarIndex,
    space: &SccSpace,
    solution: &crate::solver::Solution,
    f: FuncId,
) -> FunctionSummary {
    let func = module.function(f);
    let mut ret_vals: Vec<Value> = Vec::new();
    for b in func.block_ids() {
        if let Some(t) = func.terminator(b) {
            if let InstKind::Ret(Some(v)) = func.inst(t).kind {
                ret_vals.push(v);
            }
        }
    }
    if ret_vals.is_empty() {
        return FunctionSummary::default();
    }
    let args_lt_ret: Vec<u32> = (0..func.params.len() as u32)
        .filter(|&j| {
            let p = space.local(index.id(f, func.param_value(j as usize)));
            ret_vals.iter().all(|&v| solution.less_than(p, space.local(index.id(f, v))))
        })
        .collect();
    FunctionSummary { args_lt_ret: args_lt_ret.into() }
}

/// Compact variable numbering for one SCC: the members' (contiguous,
/// per-function) [`VarIndex`] ranges packed side by side, so per-SCC
/// solves allocate `O(|SCC|)` lattice state instead of `O(|module|)`.
struct SccSpace {
    /// `(global_start, global_end, local_start)` per member, sorted by
    /// `global_start`.
    ranges: Vec<(u32, u32, u32)>,
    total: usize,
}

impl SccSpace {
    fn new(module: &Module, index: &VarIndex, members: &[FuncId]) -> Self {
        let mut ranges = Vec::with_capacity(members.len());
        let mut total = 0u32;
        for &f in members {
            let n = module.function(f).num_insts() as u32;
            if n == 0 {
                continue;
            }
            let start = index.id(f, Value::from_index(0)).raw();
            ranges.push((start, start + n, total));
            total += n;
        }
        ranges.sort_unstable_by_key(|r| r.0);
        SccSpace { ranges, total: total as usize }
    }

    fn len(&self) -> usize {
        self.total
    }

    /// Maps a module-wide id into the compact space. The id must belong
    /// to a member function — per-SCC constraints never mention anything
    /// else.
    fn local(&self, id: VarId) -> VarId {
        let g = id.raw();
        let i = self.ranges.partition_point(|&(start, _, _)| start <= g);
        let (start, end, local_start) = self.ranges[i.checked_sub(1).expect("id below all ranges")];
        debug_assert!(g < end, "id {g} outside the SCC's variable ranges");
        VarId::new(local_start + (g - start))
    }

    fn remap(&self, c: &Constraint) -> Constraint {
        match c {
            Constraint::Init { x } => Constraint::Init { x: self.local(*x) },
            Constraint::Copy { x, source } => {
                Constraint::Copy { x: self.local(*x), source: self.local(*source) }
            }
            Constraint::Union { x, elems, sources } => Constraint::Union {
                x: self.local(*x),
                elems: elems.iter().map(|&e| self.local(e)).collect(),
                sources: sources.iter().map(|&s| self.local(s)).collect(),
            },
            Constraint::Inter { x, sources } => Constraint::Inter {
                x: self.local(*x),
                sources: sources.iter().map(|&s| self.local(s)).collect(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Jobs;

    fn summaries(src: &str) -> (Module, ModuleSummaries) {
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let (sums, ..) =
            ModuleSummaries::compute(&m, &ranges, &index, &EngineConfig::default(), None, None);
        (m, sums)
    }

    fn facts_of(m: &Module, sums: &ModuleSummaries, name: &str) -> Vec<u32> {
        sums.of(m.function_by_name(name).unwrap()).args_lt_ret().to_vec()
    }

    #[test]
    fn increment_helper_orders_its_argument() {
        let (m, sums) = summaries(
            r#"
            int next(int i) { return i + 1; }
            int main() { return next(3); }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "next"), vec![0]);
        assert_eq!(facts_of(&m, &sums, "main"), Vec::<u32>::new());
        assert_eq!(sums.facts(), 1);
        assert_eq!(sums.stats.recursive_sccs, 0);
    }

    #[test]
    fn facts_hold_on_every_return_path_or_not_at_all() {
        let (m, sums) = summaries(
            r#"
            int both(int i, int k) { if (k > 0) { return i + k; } return i + 1; }
            int one_side(int i, int k) { if (k > 0) { return i + k; } return i; }
            int main() { return both(1, 2) + one_side(1, 2); }
            "#,
        );
        // `both` proves i < ret on both paths (k>0 via the σ-range, +1
        // directly); k < ret only on the first path.
        assert_eq!(facts_of(&m, &sums, "both"), vec![0]);
        // `one_side` returns i itself on the else path: i < i is false.
        assert_eq!(facts_of(&m, &sums, "one_side"), Vec::<u32>::new());
    }

    #[test]
    fn pointer_advance_helper_is_summarised() {
        let (m, sums) = summaries(
            r#"
            int* advance(int* p, int k) { if (k > 0) { return p + k; } return p + 1; }
            int main() { int a[8]; int* q = advance(a, 3); return *q; }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "advance"), vec![0]);
    }

    #[test]
    fn summaries_chain_through_helpers_bottom_up() {
        // twice's fact needs next's summary to already be available.
        let (m, sums) = summaries(
            r#"
            int next(int i) { return i + 1; }
            int twice(int i) { return next(next(i)); }
            int main() { return twice(1); }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "next"), vec![0]);
        assert_eq!(facts_of(&m, &sums, "twice"), vec![0]);
    }

    #[test]
    fn recursion_reaches_the_optimistic_fixpoint() {
        // Every path either returns p + 1 directly or recurses on p + 1:
        // p < skipr(p, n) holds on every terminating execution.
        let (m, sums) = summaries(
            r#"
            int* skipr(int* p, int n) {
                if (n <= 0) { return p + 1; }
                return skipr(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = skipr(a, 3); return *q; }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "skipr"), vec![0]);
        assert_eq!(sums.stats.recursive_sccs, 1);
        assert!(sums.stats.solves > sums.stats.sccs as u64, "recursion must iterate");
    }

    #[test]
    fn recursive_identity_sheds_the_optimistic_assumption() {
        // The base case returns p itself: p < p is false, so the
        // optimistic start must descend to the empty summary.
        let (m, sums) = summaries(
            r#"
            int* walk(int* p, int n) {
                if (n <= 0) { return p; }
                return walk(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = walk(a, 3); return *q; }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "walk"), Vec::<u32>::new());
    }

    #[test]
    fn mutual_recursion_converges() {
        let (m, sums) = summaries(
            r#"
            int ping(int i, int n) { if (n <= 0) { return i + 1; } return pong(i + 1, n - 1); }
            int pong(int i, int n) { if (n <= 0) { return i + 2; } return ping(i, n - 1); }
            int main() { return ping(0, 4); }
            "#,
        );
        // ping: both paths bump i (directly, or pong's fact on i+1).
        assert_eq!(facts_of(&m, &sums, "ping"), vec![0]);
        // pong recurses on the *same* i, so its fact leans on ping's —
        // which holds — giving i < pong(i, n) too.
        assert_eq!(facts_of(&m, &sums, "pong"), vec![0]);
    }

    #[test]
    fn void_and_constant_returns_carry_no_facts() {
        let (m, sums) = summaries(
            r#"
            void sink(int* v, int i) { v[i] = 0; }
            int fortytwo(int i) { return 42; }
            int main() { int a[4]; sink(a, 1); return fortytwo(1); }
            "#,
        );
        assert_eq!(facts_of(&m, &sums, "sink"), Vec::<u32>::new());
        assert_eq!(facts_of(&m, &sums, "fortytwo"), Vec::<u32>::new());
    }

    #[test]
    fn warm_run_reuses_every_summary_and_skips_all_solves() {
        let src = r#"
            int next(int i) { return i + 1; }
            int twice(int i) { return next(next(i)); }
            int main() { return twice(1); }
        "#;
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let cfg = EngineConfig::default();
        let (cold, zero, _) = ModuleSummaries::compute(&m, &ranges, &index, &cfg, None, None);
        assert_eq!(zero, CacheOutcome::default(), "no prior: nothing is classified");
        let prior = cold.prior();

        let (warm, outcome, _) =
            ModuleSummaries::compute(&m, &ranges, &index, &cfg, Some(&prior), None);
        assert_eq!(warm.keys(), cold.keys());
        assert_eq!((outcome.hits, outcome.misses), (3, 0));
        assert_eq!(outcome.hit_rate(), 1.0);
        assert_eq!(warm.stats.solves, 0, "an all-hit warm run must not solve anything");
        for (f, s) in cold.iter() {
            assert_eq!(warm.of(f), s);
        }
        assert_eq!(warm.facts(), cold.facts());

        // An empty prior classifies every function as a miss and solves
        // exactly what a run without one does.
        let (cold2, missed, _) =
            ModuleSummaries::compute(&m, &ranges, &index, &cfg, Some(&SummaryMap::new()), None);
        assert_eq!(cold2, cold);
        assert_eq!((missed.hits, missed.misses), (0, 3));
        assert_eq!(missed.hit_rate(), 0.0);
    }

    /// A module wide enough that jobs > 1 genuinely takes the
    /// work-stealing branch: `width` independent straight-line helpers
    /// (one wavefront layer) with enough instructions to clear
    /// [`WAVEFRONT_MIN_INSTRUCTIONS`], plus callers that chain them.
    fn wide_source(width: usize, depth: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for i in 0..width {
            let _ = writeln!(s, "int wf{i}(int a, int b) {{");
            let _ = writeln!(s, "    int x0 = a + 1;");
            let _ = writeln!(s, "    int x1 = x0 + b;");
            for j in 2..depth {
                let _ = writeln!(s, "    int x{j} = x{} + {};", j - 1, (i + j) % 9 + 1);
            }
            let _ = writeln!(s, "    return x{} + 1;", depth - 1);
            let _ = writeln!(s, "}}");
        }
        let _ = writeln!(s, "int rec(int i, int n) {{");
        let _ = writeln!(s, "    if (n <= 0) {{ return i + 1; }}");
        let _ = writeln!(s, "    return rec(wf0(i, 1), n - 1);");
        let _ = writeln!(s, "}}");
        s.push_str("int main() {\n    int s = 0;\n");
        for i in 0..width {
            let _ = writeln!(s, "    s = s + wf{i}({}, {});", i % 5, i % 3 + 1);
        }
        s.push_str("    s = s + rec(1, 3);\n    return s;\n}\n");
        s
    }

    #[test]
    fn jobs_do_not_change_summaries_or_stats() {
        let src = wide_source(24, 80);
        let mut m = sraa_minic::compile(&src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let total_insts: usize = m.functions().map(|(_, f)| f.num_insts()).sum();
        assert!(
            total_insts >= WAVEFRONT_MIN_INSTRUCTIONS,
            "test module too small ({total_insts} insts) to exercise the parallel branch"
        );
        let run = |jobs: Jobs| {
            let cfg = EngineConfig::default().with_jobs(jobs);
            ModuleSummaries::compute(&m, &ranges, &index, &cfg, None, None).0
        };
        let serial = run(Jobs::parse("1").unwrap());
        for n in ["2", "4", "7"] {
            let parallel = run(Jobs::parse(n).unwrap());
            // Full struct equality: summaries AND stats (solves included —
            // the per-worker counters must reduce to the serial total).
            assert_eq!(serial, parallel, "jobs={n} diverged from jobs=1");
        }
        assert!(serial.facts() > 0, "the wide module must prove some facts");
        assert_eq!(serial.stats.recursive_sccs, 1);
    }

    #[test]
    fn solver_strategies_distil_identical_summaries() {
        let src = r#"
            int next(int i) { return i + 1; }
            int* skipr(int* p, int n) {
                if (n <= 0) { return p + 1; }
                return skipr(p + 1, n - 1);
            }
            int main() { int a[8]; int* q = skipr(a, next(1)); return *q; }
        "#;
        let mut m = sraa_minic::compile(src).unwrap();
        let (ranges, _) = sraa_essa::transform_module(&mut m);
        let index = VarIndex::new(&m);
        let run = |solver| {
            let cfg = EngineConfig { solver, ..Default::default() };
            ModuleSummaries::compute(&m, &ranges, &index, &cfg, None, None).0
        };
        let (a, b) = (run(SolverKind::Scc), run(SolverKind::Worklist));
        assert_eq!(a, b);
    }
}
