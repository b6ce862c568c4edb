//! The lattice store both fixpoint solvers propagate through.
//!
//! The solvers in [`crate::solver`] and [`crate::fast_solver`] decide
//! *scheduling* only (FIFO worklist vs SCC topological order). How `LT`
//! sets are *represented* lives here, in one store, `DenseStore`: it
//! holds the current set of every variable, re-evaluates one constraint
//! at a time (`DenseStore::update`) and reports whether the defined
//! variable's set actually changed ([`ChangeResult`]), so a solver
//! re-enqueues successors only on observed change.
//!
//! The store is a flat CSR-style arena: all explicit sets live in one
//! contiguous `Vec<u32>` addressed by per-variable `(offset, len)`, and
//! ⊤ stays symbolic (an offset sentinel). Because the lattice only
//! descends (`new ⊆ old`, paper Theorem 3.7), a re-evaluation can almost
//! always shrink a set *in place*; fresh arena space is appended only on
//! a variable's first explicit write, and the dead words shrinks leave
//! behind are compacted away mid-solve once they dominate the arena. The
//! straight-line `Union`/`Inter` evaluations run over the vectorizable
//! sorted-set kernels of `crate::setops` (block-skip intersection,
//! run-copying merge union); inside large cyclic components the store
//! switches to fixed-width bitset rows ([`sraa_ir::BitMatrix`]) over the
//! component's candidate element universe, turning the hot evaluations
//! into word-parallel operations with the exact schedule of the generic
//! per-constraint iteration.
//!
//! The tests below check both solvers against a naive Kleene-iteration
//! oracle that shares no code with this module or `crate::setops`.

use crate::constraints::Constraint;
use crate::setops::{intersect_in_place, union_merge};
use crate::solver::{Solution, SolveStats};
use sraa_ir::BitMatrix;
use std::collections::VecDeque;

/// Outcome of re-evaluating one constraint: did the defined variable's
/// set change? Solvers re-enqueue dependents only on `Changed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeResult {
    /// The set shrank (or left ⊤): successors must be revisited.
    Changed,
    /// The fixpoint for this constraint is locally stable.
    Unchanged,
}

impl ChangeResult {
    /// `true` for [`ChangeResult::Changed`].
    #[inline]
    pub fn changed(self) -> bool {
        matches!(self, ChangeResult::Changed)
    }
}

/// One cyclic component of the constraint dependency graph, with its
/// member-local dependents in CSR form. Built once per component by the
/// SCC solver and interpreted by [`iterate_component`] or the store's
/// bitset path.
pub(crate) struct ComponentCtx<'a> {
    /// The full constraint system.
    pub constraints: &'a [Constraint],
    /// Member constraint indices, in Tarjan emission order.
    pub comp: &'a [u32],
    dep_offsets: Vec<u32>,
    dep_edges: Vec<u32>,
}

impl<'a> ComponentCtx<'a> {
    /// Builds the member-local dependents CSR: for the member at local
    /// index `l`, `dependents(l)` lists the local indices of members that
    /// read the variable `l` defines, in member-traversal order (the same
    /// order a per-member `Vec` push would produce, so the propagation
    /// schedule is reproducible).
    pub(crate) fn build(constraints: &'a [Constraint], comp: &'a [u32], defining: &[u32]) -> Self {
        let k = comp.len();
        let mut order: Vec<(u32, u32)> =
            comp.iter().enumerate().map(|(l, &ci)| (ci, l as u32)).collect();
        order.sort_unstable();
        let local_of = |ci: u32| -> Option<u32> {
            order.binary_search_by_key(&ci, |&(c, _)| c).ok().map(|p| order[p].1)
        };

        let mut dep_offsets = vec![0u32; k + 1];
        for &ci in comp {
            for r in constraints[ci as usize].reads() {
                let d = defining[r.index()];
                if d != u32::MAX {
                    if let Some(ld) = local_of(d) {
                        dep_offsets[ld as usize + 1] += 1;
                    }
                }
            }
        }
        for i in 0..k {
            dep_offsets[i + 1] += dep_offsets[i];
        }
        let mut cursor: Vec<u32> = dep_offsets[..k].to_vec();
        let mut dep_edges = vec![0u32; dep_offsets[k] as usize];
        for (l, &ci) in comp.iter().enumerate() {
            for r in constraints[ci as usize].reads() {
                let d = defining[r.index()];
                if d != u32::MAX {
                    if let Some(ld) = local_of(d) {
                        dep_edges[cursor[ld as usize] as usize] = l as u32;
                        cursor[ld as usize] += 1;
                    }
                }
            }
        }
        Self { constraints, comp, dep_offsets, dep_edges }
    }

    /// Local indices of the members reading the variable member `l`
    /// defines.
    #[inline]
    fn dependents(&self, l: usize) -> &[u32] {
        &self.dep_edges[self.dep_offsets[l] as usize..self.dep_offsets[l + 1] as usize]
    }
}

/// The generic component iteration: a FIFO worklist over local member
/// indices, seeded in emission order, re-enqueueing only the dependents
/// of constraints whose set changed. Index-based scratch throughout — no
/// hashing on the solver's hottest path.
pub(crate) fn iterate_component(
    store: &mut DenseStore,
    cx: &ComponentCtx<'_>,
    stats: &mut SolveStats,
) {
    let k = cx.comp.len();
    let mut worklist: VecDeque<u32> = (0..k as u32).collect();
    let mut on_list = vec![true; k];
    while let Some(l) = worklist.pop_front() {
        on_list[l as usize] = false;
        stats.pops += 1;
        if store.update(&cx.constraints[cx.comp[l as usize] as usize]).changed() {
            for &d in cx.dependents(l as usize) {
                if !on_list[d as usize] {
                    on_list[d as usize] = true;
                    worklist.push_back(d);
                }
            }
        }
    }
}

/// Sentinel offset marking a variable still at symbolic ⊤.
const TOP_OFF: u32 = u32::MAX;

/// Inside a cyclic component of at least this many constraints the
/// store evaluates over bitset rows instead of sorted slices. Components
/// below the threshold are too small to amortise building the element
/// universe and the row matrices.
const BITSET_MIN_MEMBERS: usize = 16;

/// Upper bound on `members × universe` bits for the bitset path; above it
/// (degenerate, enormous components) the generic slice iteration is used
/// so memory stays proportional to the solution.
const BITSET_BIT_BUDGET: usize = 1 << 25;

/// Dead arena words below this count never trigger [`DenseStore::compact`]:
/// small solves finish before fragmentation can matter and the sweep
/// would cost more than the locality it buys.
const COMPACT_MIN_GARBAGE: usize = 4096;

/// The lattice store: every explicit set is a `(offset, len)` window into
/// one contiguous arena. First writes append; later writes shrink in
/// place (the lattice only descends), leaving dead words behind the
/// shrunk window — tracked in `garbage` and reclaimed mid-solve by
/// [`DenseStore::compact`] once they dominate the arena, instead of
/// only being dropped at freeze. ⊤ is the offset sentinel.
pub(crate) struct DenseStore {
    off: Vec<u32>,
    len: Vec<u32>,
    arena: Vec<u32>,
    scratch: Vec<u32>,
    /// Second scratch set, ping-ponged with `scratch` by the merge-union
    /// evaluation of `Union` constraints.
    scratch2: Vec<u32>,
    /// Arena words no live window covers (shrunk-away tails, abandoned
    /// windows).
    garbage: usize,
}

impl DenseStore {
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            off: vec![TOP_OFF; num_vars],
            len: vec![0; num_vars],
            // Most variables get a small first write; one reallocation-
            // amortised arena replaces per-set allocations entirely.
            arena: Vec::with_capacity(num_vars.saturating_mul(2)),
            scratch: Vec::new(),
            scratch2: Vec::new(),
            garbage: 0,
        }
    }

    #[inline]
    fn is_top(&self, v: usize) -> bool {
        self.off[v] == TOP_OFF
    }

    #[inline]
    fn slice_bounds(&self, v: usize) -> (usize, usize) {
        (self.off[v] as usize, self.len[v] as usize)
    }

    fn make_top(&mut self, x: usize) -> ChangeResult {
        if self.off[x] == TOP_OFF {
            ChangeResult::Unchanged
        } else {
            // Cannot happen under descending evaluation, but keep the
            // store total.
            self.garbage += self.len[x] as usize;
            self.off[x] = TOP_OFF;
            self.len[x] = 0;
            ChangeResult::Changed
        }
    }

    /// Commits `self.scratch` as the new set of `x` if it differs from
    /// the current one.
    fn commit(&mut self, x: usize) -> ChangeResult {
        if self.off[x] != TOP_OFF {
            let (o, l) = self.slice_bounds(x);
            if self.arena[o..o + l] == self.scratch[..] {
                return ChangeResult::Unchanged;
            }
        }
        self.commit_changed(x)
    }

    /// Commits `self.scratch` as the new set of `x`, known to differ.
    fn commit_changed(&mut self, x: usize) -> ChangeResult {
        debug_assert!(self.scratch.windows(2).all(|w| w[0] < w[1]), "sets are sorted + dedup'd");
        #[cfg(debug_assertions)]
        if self.off[x] != TOP_OFF {
            let (o, l) = self.slice_bounds(x);
            let old = &self.arena[o..o + l];
            debug_assert!(
                self.scratch.iter().all(|e| old.binary_search(e).is_ok()),
                "LT(v{x}) must only shrink"
            );
        }
        let n = self.scratch.len();
        if self.off[x] != TOP_OFF && n <= self.len[x] as usize {
            let o = self.off[x] as usize;
            self.arena[o..o + n].copy_from_slice(&self.scratch);
            self.garbage += self.len[x] as usize - n;
        } else {
            if self.off[x] != TOP_OFF {
                // Unreachable under descending evaluation, but stay
                // total: the abandoned window is dead arena.
                self.garbage += self.len[x] as usize;
            }
            let o = self.arena.len();
            assert!(o + n < TOP_OFF as usize, "dense lattice arena overflow");
            self.arena.extend_from_slice(&self.scratch);
            self.off[x] = o as u32;
        }
        self.len[x] = n as u32;
        if self.garbage >= COMPACT_MIN_GARBAGE && self.garbage * 2 > self.arena.len() {
            self.compact();
        }
        ChangeResult::Changed
    }

    /// Slides every live window left over the dead words, in offset
    /// order, and truncates the arena. Windows are pairwise disjoint and
    /// sorted source offsets only decrease, so the left-to-right
    /// `copy_within` never overwrites unread data. Runs mid-solve (from
    /// [`DenseStore::commit_changed`]) so a long descending solve keeps
    /// its working set contiguous instead of only reclaiming at freeze.
    fn compact(&mut self) {
        let mut live: Vec<u32> =
            (0..self.off.len() as u32).filter(|&v| self.off[v as usize] != TOP_OFF).collect();
        live.sort_unstable_by_key(|&v| self.off[v as usize]);
        let mut w = 0usize;
        for v in live {
            let (o, l) = self.slice_bounds(v as usize);
            debug_assert!(w <= o, "live windows are disjoint and sorted");
            self.arena.copy_within(o..o + l, w);
            self.off[v as usize] = w as u32;
            w += l;
        }
        self.arena.truncate(w);
        self.garbage = 0;
    }

    /// Appends the current elements of `v` (nothing for ⊤) to `out`.
    fn extend_with_set(&self, out: &mut Vec<u32>, v: usize) {
        if self.off[v] != TOP_OFF {
            let (o, l) = self.slice_bounds(v);
            out.extend_from_slice(&self.arena[o..o + l]);
        }
    }

    /// Word-parallel component evaluation: project the component onto its
    /// candidate element universe, give every member a bitset row, and
    /// run the exact worklist schedule of [`iterate_component`] with
    /// `Union`/`Inter` as word operations. External inputs are final
    /// (topological order), so they fold into per-member static rows.
    fn solve_component_bitset(&mut self, cx: &ComponentCtx<'_>, stats: &mut SolveStats) {
        let k = cx.comp.len();

        // Member variables → local index, for internal/external reads.
        let mut member_vars: Vec<(u32, u32)> = cx
            .comp
            .iter()
            .enumerate()
            .map(|(l, &ci)| (cx.constraints[ci as usize].defined().raw(), l as u32))
            .collect();
        member_vars.sort_unstable();
        let local_of_var = |raw: u32| -> Option<u32> {
            member_vars.binary_search_by_key(&raw, |&(v, _)| v).ok().map(|p| member_vars[p].1)
        };

        // Candidate element universe: explicit `Union` elements plus
        // every element of every external (final) source set. Internal
        // sets are unions/intersections of these, so nothing else can
        // ever appear.
        let mut universe: Vec<u32> = Vec::new();
        for &ci in cx.comp {
            match &cx.constraints[ci as usize] {
                Constraint::Init { .. } => {}
                Constraint::Copy { source, .. } => {
                    if local_of_var(source.raw()).is_none() {
                        self.extend_with_set(&mut universe, source.index());
                    }
                }
                Constraint::Union { elems, sources, .. } => {
                    universe.extend(elems.iter().map(|e| e.raw()));
                    for s in sources {
                        if local_of_var(s.raw()).is_none() {
                            self.extend_with_set(&mut universe, s.index());
                        }
                    }
                }
                Constraint::Inter { sources, .. } => {
                    for s in sources {
                        if local_of_var(s.raw()).is_none() {
                            self.extend_with_set(&mut universe, s.index());
                        }
                    }
                }
            }
        }
        universe.sort_unstable();
        universe.dedup();
        let u = universe.len();
        if k.saturating_mul(u) > BITSET_BIT_BUDGET {
            return iterate_component(self, cx, stats);
        }
        let bit_of = |raw: u32| -> usize {
            universe.binary_search(&raw).expect("universe covers every candidate element")
        };

        // Per-member evaluation plan. `Copy`/`Init` canonicalise to
        // `Union` (of one source / of nothing).
        #[derive(Clone, Copy)]
        enum MKind {
            Union,
            Inter,
        }
        struct Member {
            kind: MKind,
            /// `Union`: some external source is ⊤ — the result is pinned ⊤.
            forced_top: bool,
            /// `Inter`: the static row holds the ∩ of external explicit
            /// sources (absent when every external source is ⊤).
            has_static: bool,
            edges: (u32, u32),
        }

        let mut statics = BitMatrix::new(k, u);
        let words = statics.words_per_row();
        let mut vals = BitMatrix::new(k, u);
        let mut top = vec![true; k];
        let mut internal: Vec<u32> = Vec::new();
        let mut scratch_row: Vec<u64> = vec![0; words];
        let mut members: Vec<Member> = Vec::with_capacity(k);

        for (l, &ci) in cx.comp.iter().enumerate() {
            let start = internal.len() as u32;
            let (kind, forced_top, has_static) = match &cx.constraints[ci as usize] {
                Constraint::Init { .. } => (MKind::Union, false, false),
                Constraint::Copy { source, .. } => {
                    let mut forced = false;
                    if let Some(ls) = local_of_var(source.raw()) {
                        internal.push(ls);
                    } else if self.is_top(source.index()) {
                        forced = true;
                    } else {
                        let (o, n) = self.slice_bounds(source.index());
                        for &e in &self.arena[o..o + n] {
                            statics.insert(l, bit_of(e));
                        }
                    }
                    (MKind::Union, forced, false)
                }
                Constraint::Union { elems, sources, .. } => {
                    let mut forced = false;
                    for e in elems {
                        statics.insert(l, bit_of(e.raw()));
                    }
                    for s in sources {
                        if let Some(ls) = local_of_var(s.raw()) {
                            internal.push(ls);
                        } else if self.is_top(s.index()) {
                            forced = true;
                        } else {
                            let (o, n) = self.slice_bounds(s.index());
                            for &e in &self.arena[o..o + n] {
                                statics.insert(l, bit_of(e));
                            }
                        }
                    }
                    (MKind::Union, forced, false)
                }
                Constraint::Inter { sources, .. } => {
                    let mut has_static = false;
                    for s in sources {
                        if let Some(ls) = local_of_var(s.raw()) {
                            internal.push(ls);
                        } else if !self.is_top(s.index()) {
                            scratch_row.fill(0);
                            let (o, n) = self.slice_bounds(s.index());
                            for &e in &self.arena[o..o + n] {
                                let b = bit_of(e);
                                scratch_row[b / 64] |= 1u64 << (b % 64);
                            }
                            if has_static {
                                for (a, b) in statics.row_mut(l).iter_mut().zip(&scratch_row) {
                                    *a &= b;
                                }
                            } else {
                                statics.row_mut(l).copy_from_slice(&scratch_row);
                                has_static = true;
                            }
                        }
                        // External ⊤ sources are the identity of ∩.
                    }
                    (MKind::Inter, false, has_static)
                }
            };
            members.push(Member {
                kind,
                forced_top,
                has_static,
                edges: (start, internal.len() as u32),
            });
        }

        // The exact schedule of `iterate_component`, over rows.
        let mut worklist: VecDeque<u32> = (0..k as u32).collect();
        let mut on_list = vec![true; k];
        while let Some(l) = worklist.pop_front() {
            let li = l as usize;
            on_list[li] = false;
            stats.pops += 1;
            let m = &members[li];
            let ints = &internal[m.edges.0 as usize..m.edges.1 as usize];
            let new_top = match m.kind {
                MKind::Union => {
                    if m.forced_top || ints.iter().any(|&s| top[s as usize]) {
                        true
                    } else {
                        scratch_row.copy_from_slice(statics.row(li));
                        for &s in ints {
                            for (a, b) in scratch_row.iter_mut().zip(vals.row(s as usize)) {
                                *a |= b;
                            }
                        }
                        false
                    }
                }
                MKind::Inter => {
                    let mut started = m.has_static;
                    if started {
                        scratch_row.copy_from_slice(statics.row(li));
                    }
                    for &s in ints {
                        if top[s as usize] {
                            continue; // ⊤ is the identity of ∩
                        }
                        if started {
                            for (a, b) in scratch_row.iter_mut().zip(vals.row(s as usize)) {
                                *a &= b;
                            }
                        } else {
                            scratch_row.copy_from_slice(vals.row(s as usize));
                            started = true;
                        }
                    }
                    !started
                }
            };
            let changed =
                if new_top { !top[li] } else { top[li] || vals.row(li) != &scratch_row[..] };
            if changed {
                top[li] = new_top;
                if !new_top {
                    vals.row_mut(li).copy_from_slice(&scratch_row);
                }
                for &d in cx.dependents(li) {
                    if !on_list[d as usize] {
                        on_list[d as usize] = true;
                        worklist.push_back(d);
                    }
                }
            }
        }

        // Write the stabilised rows back into the arena. Members still ⊤
        // keep their sentinel (the store never wrote them).
        for (l, &ci) in cx.comp.iter().enumerate() {
            if top[l] {
                continue;
            }
            let x = cx.constraints[ci as usize].defined().index();
            self.scratch.clear();
            for (w, &word) in vals.row(l).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let tz = bits.trailing_zeros() as usize;
                    self.scratch.push(universe[w * 64 + tz]);
                    bits &= bits - 1;
                }
            }
            self.commit_changed(x);
        }
    }

    /// Re-evaluates `c`'s right-hand side over the current sets (the
    /// paper's Figure 7 transfer functions) and stores the result for
    /// `c.defined()`, reporting whether it changed.
    pub(crate) fn update(&mut self, c: &Constraint) -> ChangeResult {
        let x = c.defined().index();
        match c {
            Constraint::Init { .. } => {
                self.scratch.clear();
                self.commit(x)
            }
            Constraint::Copy { source, .. } => {
                let s = source.index();
                if self.is_top(s) {
                    return self.make_top(x);
                }
                let (so, sl) = self.slice_bounds(s);
                if !self.is_top(x) {
                    let (xo, xl) = self.slice_bounds(x);
                    if self.arena[xo..xo + xl] == self.arena[so..so + sl] {
                        return ChangeResult::Unchanged;
                    }
                }
                self.scratch.clear();
                // Split borrows: scratch and arena are disjoint fields.
                let (so, sl) = self.slice_bounds(s);
                self.scratch.extend_from_slice(&self.arena[so..so + sl]);
                self.commit_changed(x)
            }
            Constraint::Union { elems, sources, .. } => {
                if sources.iter().any(|s| self.is_top(s.index())) {
                    return self.make_top(x); // {x} ∪ ⊤ = ⊤
                }
                self.scratch.clear();
                self.scratch.extend(elems.iter().map(|e| e.raw()));
                self.scratch.sort_unstable();
                self.scratch.dedup();
                // Fold each (sorted) source set in with a run-copying
                // merge, ping-ponging between the two scratch buffers —
                // no concat-sort-dedup over the whole accumulation.
                for s in sources {
                    let (o, l) = self.slice_bounds(s.index());
                    if l == 0 {
                        continue;
                    }
                    self.scratch2.clear();
                    union_merge(&mut self.scratch2, &self.scratch, &self.arena[o..o + l]);
                    std::mem::swap(&mut self.scratch, &mut self.scratch2);
                }
                self.commit(x)
            }
            Constraint::Inter { sources, .. } => {
                debug_assert!(!sources.is_empty(), "empty intersections are generated as Init");
                // ⊤ is the identity of ∩: seed from the smallest explicit
                // source so the working set only shrinks.
                let mut seed: Option<usize> = None;
                for s in sources {
                    let si = s.index();
                    if !self.is_top(si) && seed.is_none_or(|b| self.len[si] < self.len[b]) {
                        seed = Some(si);
                    }
                }
                let Some(seed) = seed else {
                    return self.make_top(x); // all sources still ⊤
                };
                self.scratch.clear();
                let (o, l) = self.slice_bounds(seed);
                self.scratch.extend_from_slice(&self.arena[o..o + l]);
                for s in sources {
                    let si = s.index();
                    if si == seed || self.is_top(si) {
                        continue;
                    }
                    if self.scratch.is_empty() {
                        break;
                    }
                    let (o, l) = self.slice_bounds(si);
                    intersect_in_place(&mut self.scratch, &self.arena[o..o + l]);
                }
                self.commit(x)
            }
        }
    }

    /// Chaotic iteration over one cyclic component, to the local greatest
    /// fixpoint: word-parallel bitset rows for large components, the
    /// generic [`iterate_component`] otherwise. Both keep the same
    /// schedule (the `pops` counter is part of the printed output).
    pub(crate) fn solve_component(&mut self, cx: &ComponentCtx<'_>, stats: &mut SolveStats) {
        if cx.comp.len() >= BITSET_MIN_MEMBERS {
            self.solve_component_bitset(cx, stats);
        } else {
            iterate_component(self, cx, stats);
        }
    }

    /// Final step: demote residual ⊤ to ∅ (the paper's freeze, recorded
    /// in `stats.frozen_tops`) and package the compacted [`Solution`].
    pub(crate) fn freeze(self, mut stats: SolveStats) -> Solution {
        let n = self.off.len();
        let mut frozen = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let total: usize =
            (0..n).map(|i| if self.off[i] == TOP_OFF { 0 } else { self.len[i] as usize }).sum();
        let mut data = Vec::with_capacity(total);
        for i in 0..n {
            if self.off[i] == TOP_OFF {
                frozen.push(i as u32);
            } else {
                let (o, l) = (self.off[i] as usize, self.len[i] as usize);
                data.extend_from_slice(&self.arena[o..o + l]);
            }
            offsets.push(data.len() as u32);
        }
        stats.frozen_tops = frozen.len();
        Solution::from_flat(offsets, data, frozen.into_boxed_slice(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraint as C;
    use crate::fast_solver::solve_fast;
    use crate::solver::solve;
    use crate::test_systems::{reference_eval, reference_gfp};
    use crate::var_index::VarId;

    fn v(i: u32) -> VarId {
        VarId::new(i)
    }

    fn vs(ids: &[u32]) -> Vec<VarId> {
        ids.iter().copied().map(VarId::new).collect()
    }

    #[test]
    fn change_result_predicate() {
        assert!(ChangeResult::Changed.changed());
        assert!(!ChangeResult::Unchanged.changed());
    }

    #[test]
    fn dense_store_shrinks_in_place() {
        let mut store = DenseStore::new(3);
        // First write appends.
        store.scratch = vec![1, 2, 3];
        assert!(store.commit(0).changed());
        let arena_len = store.arena.len();
        // Descending rewrite shrinks in place: no arena growth.
        store.scratch = vec![2];
        assert!(store.commit(0).changed());
        assert_eq!(store.arena.len(), arena_len);
        assert_eq!(store.len[0], 1);
        // Identical rewrite is a no-op.
        store.scratch = vec![2];
        assert!(!store.commit(0).changed());
    }

    #[test]
    fn dense_store_compacts_mid_solve() {
        let big = COMPACT_MIN_GARBAGE as u32 * 2;
        let mut store = DenseStore::new(3);
        // Two fat windows, then shrink both to singletons: the dead
        // tails dominate the arena and must be swept without waiting
        // for freeze.
        store.scratch = (0..big).collect();
        assert!(store.commit(0).changed());
        store.scratch = (0..big).collect();
        assert!(store.commit(1).changed());
        assert_eq!(store.arena.len(), 2 * big as usize);
        store.scratch = vec![7];
        assert!(store.commit(0).changed());
        store.scratch = vec![9];
        assert!(store.commit(1).changed());
        assert_eq!(store.garbage, 0, "compaction resets the dead-word count");
        assert_eq!(store.arena.len(), 2, "arena shrinks to the live windows");
        // Live contents survive the slide, untouched vars stay ⊤.
        let sol = store.freeze(SolveStats::default());
        assert_eq!(sol.lt_set(v(0)), &[7][..]);
        assert_eq!(sol.lt_set(v(1)), &[9][..]);
        assert!(sol.was_top(v(2)));
    }

    #[test]
    fn compaction_preserves_offset_order_with_interleaved_tops() {
        let big = COMPACT_MIN_GARBAGE as u32 * 2;
        let mut store = DenseStore::new(4);
        for x in 0..4 {
            store.scratch = (0..big).collect();
            assert!(store.commit(x).changed());
        }
        // Demote one to ⊤ (window abandoned) and shrink the others.
        assert!(store.make_top(1).changed());
        for (x, e) in [(0usize, 10u32), (2, 20), (3, 30)] {
            store.scratch = vec![e];
            assert!(store.commit(x).changed());
        }
        assert_eq!(store.arena.len(), 3);
        let sol = store.freeze(SolveStats::default());
        assert_eq!(sol.lt_set(v(0)), &[10][..]);
        assert!(sol.was_top(v(1)));
        assert_eq!(sol.lt_set(v(2)), &[20][..]);
        assert_eq!(sol.lt_set(v(3)), &[30][..]);
    }

    #[test]
    fn dense_update_matches_reference_transfer() {
        // The example 3.4 kernel exercised constraint-by-constraint.
        let cs = [
            C::Init { x: v(0) },
            C::Union { x: v(1), elems: vs(&[0]), sources: vs(&[0]) },
            C::Inter { x: v(2), sources: vs(&[1, 3]) },
            C::Union { x: v(3), elems: vs(&[2]), sources: vs(&[2]) },
        ];
        let mut dense = DenseStore::new(4);
        let mut naive = vec![None; 4];
        // Chaotic order, including re-evaluations.
        for &i in &[0usize, 1, 2, 3, 2, 3, 2, 1, 0, 3, 2] {
            let x = cs[i].defined().index();
            let new = reference_eval(&cs[i], &naive);
            let changed = new != naive[x];
            naive[x] = new;
            assert_eq!(dense.update(&cs[i]).changed(), changed, "diverged at constraint {i}");
        }
        let sol = dense.freeze(SolveStats::default());
        for (x, set) in naive.iter().enumerate() {
            let x = VarId::from_index(x);
            assert_eq!(sol.lt_set(x), set.iter().flatten().copied().collect::<Vec<_>>());
            assert_eq!(sol.was_top(x), set.is_none(), "frozen({x})");
        }
    }

    #[test]
    fn intersect_in_place_matches_merge() {
        let mut acc = vec![1, 3, 5, 7];
        intersect_in_place(&mut acc, &[2, 3, 4, 7, 9]);
        assert_eq!(acc, vec![3, 7]);
        let mut acc = vec![1, 2];
        intersect_in_place(&mut acc, &[]);
        assert!(acc.is_empty());
    }

    /// Per variable: the solved `LT` set and whether it was frozen —
    /// the shape of [`reference_gfp`].
    fn snapshot(sol: &Solution) -> Vec<(Vec<u32>, bool)> {
        (0..sol.num_vars())
            .map(VarId::from_index)
            .map(|x| (sol.lt_set(x).to_vec(), sol.was_top(x)))
            .collect()
    }

    mod properties {
        use super::*;
        use crate::test_systems::{grounded_systems, systems};
        use proptest::prelude::*;

        proptest! {
            /// Both solvers compute the naive oracle's greatest fixpoint
            /// — sets and frozen ⊤s — on arbitrary systems (undefined
            /// variables included) and on fully grounded ones (the shape
            /// real constraint generation produces).
            #[test]
            fn solvers_match_the_reference_fixpoint(
                arbitrary in systems(),
                grounded in grounded_systems()
            ) {
                for (cs, n) in [arbitrary, grounded] {
                    let reference = reference_gfp(&cs, n);
                    prop_assert_eq!(&snapshot(&solve(&cs, n)), &reference, "worklist");
                    prop_assert_eq!(&snapshot(&solve_fast(&cs, n)), &reference, "scc");
                }
            }
        }
    }

    /// A component big enough to cross `BITSET_MIN_MEMBERS`, so the
    /// word-parallel path is exercised against the oracle: a ring of
    /// φ-style `Inter`s threaded through `Union`s, grounded at one entry.
    #[test]
    fn large_cycle_uses_bitset_rows_and_agrees() {
        let k = 3 * BITSET_MIN_MEMBERS as u32;
        let mut cs = vec![C::Init { x: v(0) }];
        for i in 0..k {
            let cur = 1 + 2 * i;
            let nxt = 1 + 2 * ((i + 1) % k);
            // cur = φ(ground, around-the-ring); cur+1 = {cur} ∪ cur.
            cs.push(C::Inter { x: v(cur), sources: vs(&[0, nxt + 1]) });
            cs.push(C::Union { x: v(cur + 1), elems: vs(&[cur]), sources: vs(&[cur]) });
        }
        let n = (1 + 2 * k) as usize;
        let reference = reference_gfp(&cs, n);
        let fast = solve_fast(&cs, n);
        assert!(fast.stats.cyclic_sccs >= 1, "the ring must condense into a cyclic component");
        assert_eq!(snapshot(&fast), reference, "scc");
        assert_eq!(snapshot(&solve(&cs, n)), reference, "worklist");

        // The bitset path keeps the exact schedule of the generic
        // iteration over the same component (constraint `i` defines v`i`).
        let comp: Vec<u32> = (1..cs.len() as u32).collect();
        let defining: Vec<u32> = (0..n as u32).collect();
        let cx = ComponentCtx::build(&cs, &comp, &defining);
        let run = |bitset: bool| {
            let mut store = DenseStore::new(n);
            store.update(&cs[0]);
            let mut stats = SolveStats::default();
            if bitset {
                store.solve_component_bitset(&cx, &mut stats);
            } else {
                iterate_component(&mut store, &cx, &mut stats);
            }
            (stats.pops, snapshot(&store.freeze(SolveStats::default())))
        };
        assert_eq!(run(true), run(false), "bitset path must keep the exact schedule");
    }
}
