//! The paper's analysis packaged as an [`AliasAnalysis`] — **LT** in the
//! evaluation's tables and figures.
//!
//! This adapter is a thin, cheaply-clonable handle on a shared
//! [`DisambiguationEngine`]: the engine owns the pipeline and the solved
//! relation, and every clone of the adapter (e.g. inside a
//! [`Combined`](crate::Combined) chain) shares the same results instead
//! of re-running or deep-copying the analysis.

use crate::{AliasAnalysis, AliasResult};
use sraa_core::{DisambiguationEngine, EngineConfig, GenConfig};
use sraa_ir::{FuncId, Module, Value};
use std::sync::Arc;

/// Strict-inequality alias analysis (the paper's `sraa` LLVM pass).
///
/// Construction runs the full pipeline — e-SSA conversion, range analysis,
/// constraint generation and solving — which *mutates* the module into
/// e-SSA form. Build it first and hand the transformed module to the other
/// analyses so every method answers queries about the same program.
#[derive(Clone, Debug)]
pub struct StrictInequalityAa {
    engine: Arc<DisambiguationEngine>,
}

impl StrictInequalityAa {
    /// Runs the pipeline on `module` (converting it to e-SSA form) with
    /// the default configuration (SCC solver).
    pub fn new(module: &mut Module) -> Self {
        Self::from_engine(DisambiguationEngine::run(module))
    }

    /// Runs the pipeline with explicit constraint-generation options.
    pub fn with_config(module: &mut Module, cfg: GenConfig) -> Self {
        Self::from_engine(DisambiguationEngine::run_with(module, cfg))
    }

    /// Runs the pipeline with a full engine configuration (constraint
    /// options + solver strategy + interprocedural mode).
    pub fn with_engine_config(module: &mut Module, cfg: EngineConfig) -> Self {
        Self::from_engine(DisambiguationEngine::build(module, cfg))
    }

    /// Runs the pipeline with bottom-up interprocedural summaries enabled
    /// (the `--interproc` CLI mode): strict-inequality facts cross direct
    /// call boundaries, so verdicts are a strict refinement of
    /// [`StrictInequalityAa::new`]'s.
    pub fn interprocedural(module: &mut Module) -> Self {
        Self::with_engine_config(module, EngineConfig::default().with_summaries())
    }

    /// Wraps an already-built engine.
    pub fn from_engine(engine: DisambiguationEngine) -> Self {
        Self { engine: Arc::new(engine) }
    }

    /// Wraps a shared engine (no copy).
    pub fn from_shared(engine: Arc<DisambiguationEngine>) -> Self {
        Self { engine }
    }

    /// Access to the underlying engine (solved relation, statistics,
    /// batch queries).
    pub fn engine(&self) -> &DisambiguationEngine {
        &self.engine
    }

    /// The shared engine handle, for consumers that want to hold it
    /// directly.
    pub fn share(&self) -> Arc<DisambiguationEngine> {
        Arc::clone(&self.engine)
    }
}

impl AliasAnalysis for StrictInequalityAa {
    fn name(&self) -> String {
        "LT".to_string()
    }

    fn alias(&self, module: &Module, func: FuncId, p1: Value, p2: Value) -> AliasResult {
        if p1 == p2 {
            return AliasResult::MustAlias;
        }
        let f = module.function(func);
        if self.engine.no_alias(f, func, p1, p2) {
            AliasResult::NoAlias
        } else {
            AliasResult::MayAlias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraa_ir::InstKind;

    #[test]
    fn lt_disambiguates_the_motivating_loop_and_ba_does_not() {
        let mut m = sraa_minic::compile(
            r#"
            void f(int* v, int N) {
                for (int i = 0, j = N; i < j; i++, j--) v[i] = v[j];
            }
            "#,
        )
        .unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let ba = crate::BasicAliasAnalysis::new(&m);
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        let mut ptrs = Vec::new();
        for b in f.block_ids() {
            for (_, d) in f.block_insts(b) {
                match &d.kind {
                    InstKind::Load { ptr } => ptrs.push(*ptr),
                    InstKind::Store { ptr, .. } => ptrs.push(*ptr),
                    _ => {}
                }
            }
        }
        assert_eq!(lt.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::NoAlias);
        assert_eq!(ba.alias(&m, fid, ptrs[0], ptrs[1]), AliasResult::MayAlias);
    }

    #[test]
    fn clones_share_the_engine() {
        let mut m = sraa_minic::compile(
            "void f(int* v, int n) { for (int i = 0; i + 1 < n; i++) v[i] = v[i + 1]; }",
        )
        .unwrap();
        let lt = StrictInequalityAa::new(&mut m);
        let clone = lt.clone();
        assert!(Arc::ptr_eq(&lt.share(), &clone.share()), "clones must not deep-copy the engine");
        // The clone answers from the same relation.
        let fid = m.function_by_name("f").unwrap();
        let f = m.function(fid);
        let ptrs: Vec<_> = f
            .block_ids()
            .flat_map(|b| f.block_insts(b))
            .filter_map(|(_, d)| match &d.kind {
                InstKind::Load { ptr } => Some(*ptr),
                InstKind::Store { ptr, .. } => Some(*ptr),
                _ => None,
            })
            .collect();
        assert_eq!(clone.alias(&m, fid, ptrs[0], ptrs[1]), lt.alias(&m, fid, ptrs[0], ptrs[1]));
    }

    #[test]
    fn solver_strategy_does_not_change_verdicts() {
        let src = r#"
            void f(int* v, int N) {
                for (int i = 0, j = N; i < j; i++, j--) v[i] = v[j];
            }
        "#;
        let mut m1 = sraa_minic::compile(src).unwrap();
        let scc = StrictInequalityAa::new(&mut m1);
        let mut m2 = sraa_minic::compile(src).unwrap();
        let wl = StrictInequalityAa::with_engine_config(
            &mut m2,
            EngineConfig { solver: sraa_core::SolverKind::Worklist, ..Default::default() },
        );
        let fid = m1.function_by_name("f").unwrap();
        let f = m1.function(fid);
        for b in f.block_ids() {
            for (p1, _) in f.block_insts(b) {
                for b2 in f.block_ids() {
                    for (p2, _) in f.block_insts(b2) {
                        assert_eq!(
                            scc.alias(&m1, fid, p1, p2),
                            wl.alias(&m2, fid, p1, p2),
                            "strategies disagree on {p1} vs {p2}"
                        );
                    }
                }
            }
        }
    }
}
