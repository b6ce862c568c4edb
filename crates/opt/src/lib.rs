//! `sraa-opt` — alias-analysis *clients*.
//!
//! The paper motivates better pointer disambiguation with the
//! optimisations it unlocks (§2): *"the extra precision gives compilers
//! information to carry out more extensive transformations in programs
//! … constant propagation, value numbering, subexpression elimination,
//! scheduling, etc."* Its own applicability study (§4.3) measures a
//! *consumer* of alias information — the Program Dependence Graph. This
//! crate adds two more consumers, classic scalar memory optimisations
//! parameterised by any [`AliasAnalysis`]:
//!
//! * [`eliminate_redundant_loads`] — store-to-load and load-to-load
//!   forwarding. A `MayAlias` store kills available facts, so every
//!   extra `NoAlias` answer keeps more loads eliminable.
//! * [`eliminate_dead_stores`] — a store overwritten before any
//!   potentially-aliasing read is dead. A `MayAlias` load keeps stores
//!   alive, so extra `NoAlias` answers remove more stores.
//! * [`hoist_invariant_loads`] — loop-invariant load motion. A load of
//!   an address defined outside the loop escapes to the preheader only
//!   if every store in the loop provably misses it.
//!
//! Both transformations are *sound for any sound oracle* — the
//! differential tests in `tests/opt_soundness.rs` execute every
//! optimised program against its original and require identical results.
//! The passes re-ask the same pointer pairs constantly (per store, per
//! loop iteration of the scan); when the oracle is the strict-inequality
//! backend each query is answered from the shared
//! `sraa_core::DisambiguationEngine`'s solved relation (Definition 3.11,
//! a few binary searches), never by re-running the analysis.
//! The `applicability_opt` harness (`cargo run -p sraa-bench --bin
//! applicability_opt`) turns them into the experiment the paper's §2
//! promises: the same pass, driven by BA, removes fewer memory
//! operations than driven by BA+LT.
//!
//! [`AliasAnalysis`]: sraa_alias::AliasAnalysis

pub mod dse;
pub mod licm;
pub mod load_elim;

pub use dse::eliminate_dead_stores;
pub use licm::hoist_invariant_loads;
pub use load_elim::eliminate_redundant_loads;

/// What an optimisation pass did to one function.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Loads replaced by an available value and detached.
    pub loads_eliminated: usize,
    /// Stores proven dead and detached.
    pub stores_eliminated: usize,
    /// Loads moved out of loops to their preheaders.
    pub loads_hoisted: usize,
}

impl std::ops::AddAssign for OptStats {
    fn add_assign(&mut self, rhs: OptStats) {
        self.loads_eliminated += rhs.loads_eliminated;
        self.stores_eliminated += rhs.stores_eliminated;
        self.loads_hoisted += rhs.loads_hoisted;
    }
}
