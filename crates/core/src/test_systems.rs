//! Random constraint-system generators shared by the property tests of
//! the two fixpoint solvers and of the on-demand prover, plus the naive
//! reference fixpoint those solvers are checked against.

use crate::constraints::Constraint as C;
use crate::var_index::VarId;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// One Figure 7 transfer function over naive sets, `None` standing for
/// ⊤ = `V`: `Init` is ∅, `Copy` the source, `Union` the elements plus
/// every source (⊤ if any source is ⊤), and `Inter` the intersection of
/// the explicit sources (⊤ is the identity of ∩; all-⊤ stays ⊤).
pub(crate) fn reference_eval(c: &C, sets: &[Option<BTreeSet<u32>>]) -> Option<BTreeSet<u32>> {
    match c {
        C::Init { .. } => Some(BTreeSet::new()),
        C::Copy { source, .. } => sets[source.index()].clone(),
        C::Union { elems, sources, .. } => {
            let mut acc: BTreeSet<u32> = elems.iter().map(|e| e.raw()).collect();
            for s in sources {
                acc.extend(sets[s.index()].as_ref()?);
            }
            Some(acc)
        }
        C::Inter { sources, .. } => sources
            .iter()
            .filter_map(|s| sets[s.index()].clone())
            .reduce(|a, b| a.intersection(&b).copied().collect()),
    }
}

/// The greatest fixpoint of `cs` over `n` variables by plain Kleene
/// iteration from ⊤ (every constraint re-evaluated against the previous
/// round until nothing changes), then the paper's freeze: per variable,
/// its sorted `LT` set and whether it was still ⊤ (and so demoted to ∅).
/// Deliberately slow and shares no code with the solvers' store.
pub(crate) fn reference_gfp(cs: &[C], n: usize) -> Vec<(Vec<u32>, bool)> {
    let mut sets: Vec<Option<BTreeSet<u32>>> = vec![None; n];
    loop {
        let mut next = sets.clone();
        for c in cs {
            next[c.defined().index()] = reference_eval(c, &sets);
        }
        if next == sets {
            break;
        }
        sets = next;
    }
    sets.into_iter()
        .map(|s| match s {
            Some(s) => (s.into_iter().collect(), false),
            None => (Vec::new(), true),
        })
        .collect()
}

/// A random constraint for variable `x` over `n` variables: any shape the
/// generator can emit, cycles and dead code included. `None` leaves `x`
/// undefined (it stays ⊤ and is frozen to ∅).
fn constraint_for(x: usize, n: usize, allow_undefined: bool) -> impl Strategy<Value = Option<C>> {
    let x = VarId::from_index(x);
    let var = (0..n).prop_map(VarId::from_index);
    let vars = proptest::collection::vec((0..n).prop_map(VarId::from_index), 1..4);
    let undefined_weight = u32::from(allow_undefined);
    prop_oneof![
        undefined_weight => Just(None), // undefined variable: stays ⊤, frozen ∅
        2 => Just(Some(C::Init { x })),
        2 => var.prop_map(move |s| Some(C::Copy { x, source: s })),
        4 => (proptest::collection::vec((0..n).prop_map(VarId::from_index), 0..3), vars.clone())
            .prop_map(move |(elems, sources)| {
                Some(C::Union { x, elems, sources })
            }),
        3 => vars.prop_map(move |sources| Some(C::Inter { x, sources })),
    ]
}

fn systems_with(allow_undefined: bool) -> impl Strategy<Value = (Vec<C>, usize)> {
    (2usize..24).prop_flat_map(move |n| {
        (0..n)
            .map(|x| constraint_for(x, n, allow_undefined))
            .collect::<Vec<_>>()
            .prop_map(move |cs| (cs.into_iter().flatten().collect::<Vec<C>>(), n))
    })
}

/// Arbitrary systems: cycles, dead code and *undefined* variables.
pub(crate) fn systems() -> impl Strategy<Value = (Vec<C>, usize)> {
    systems_with(true)
}

/// Systems where every variable `0..n` has exactly one defining
/// constraint. The on-demand prover property runs on this population:
/// for undefined variables the prover's conservative `false` diverges
/// from the raw greatest fixpoint by design, so groundedness isolates
/// the coinduction (cycle) semantics under test.
pub(crate) fn grounded_systems() -> impl Strategy<Value = (Vec<C>, usize)> {
    systems_with(false)
}
