//! Solver micro-benchmarks: worklist throughput on the constraint shapes
//! that dominate real systems — long union chains (straight-line
//! increments), φ/union loops (induction variables) and wide
//! intersections (merge-heavy CFGs). Complements `fig11`/`scalability`
//! which measure the end-to-end behaviour.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sraa_core::{generate, solve, Constraint, GenConfig, SolverKind, VarId};

fn v(i: usize) -> VarId {
    VarId::from_index(i)
}

/// x0 = •; x_{i+1} = x_i + 1 — the transitive-closure worst case for set
/// sizes (LT(x_n) has n elements).
fn chain(n: usize) -> Vec<Constraint> {
    let mut cs = vec![Constraint::Init { x: v(0) }];
    for i in 1..n {
        cs.push(Constraint::Union { x: v(i), elems: vec![v(i - 1)], sources: vec![v(i - 1)] });
    }
    cs
}

/// k independent loops: i = φ(entry, i+1), the common induction shape.
fn loops(k: usize) -> Vec<Constraint> {
    let mut cs = Vec::with_capacity(3 * k);
    for l in 0..k {
        let base = 3 * l;
        cs.push(Constraint::Init { x: v(base) });
        cs.push(Constraint::Inter { x: v(base + 1), sources: vec![v(base), v(base + 2)] });
        cs.push(Constraint::Union {
            x: v(base + 2),
            elems: vec![v(base + 1)],
            sources: vec![v(base + 1)],
        });
    }
    cs
}

fn bench_chains(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/chain");
    group.sample_size(10);
    // The chain is the closure's quadratic worst case (LT(x_n) holds n
    // elements, n²/2 total), so sizes are capped where one solve stays
    // under ~100ms; real programs behave linearly (see `fig11`).
    for n in [100usize, 500, 2_000] {
        let cs = chain(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &cs, |b, cs| {
            b.iter(|| std::hint::black_box(solve(cs, n).stats.pops));
        });
    }
    group.finish();
}

fn bench_loops(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/loops");
    group.sample_size(20);
    for k in [100usize, 1_000, 10_000] {
        let cs = loops(k);
        group.bench_with_input(BenchmarkId::from_parameter(k), &cs, |b, cs| {
            b.iter(|| std::hint::black_box(solve(cs, 3 * k).stats.pops));
        });
    }
    group.finish();
}

/// Baseline worklist vs SCC-condensation solver (the paper's §6 future
/// work) on the three shapes that matter: the quadratic chain worst case,
/// φ-loop-heavy systems, and a real constraint system from the evaluation
/// corpus (SPEC `gobmk`, the paper's headline combination benchmark).
/// Both run through `SolverKind::solve`, the exact path the
/// `DisambiguationEngine` takes.
fn bench_solver_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("solvers");
    group.sample_size(20);

    let shapes: Vec<(&str, Vec<Constraint>, usize)> = {
        let w = sraa_synth::spec_generate_by_name("gobmk").expect("gobmk profile");
        let mut module = sraa_minic::compile(&w.source).expect("gobmk compiles");
        let (ranges, _) = sraa_essa::transform_module(&mut module);
        let sys = generate(&module, &ranges, GenConfig::default());
        vec![
            ("chain/1000", chain(1_000), 1_000),
            ("loops/3000", loops(1_000), 3_000),
            ("spec-gobmk", sys.constraints, sys.num_vars),
        ]
    };

    for (name, cs, n) in &shapes {
        for kind in SolverKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(kind.as_str(), name),
                &(cs, *n),
                |b, (cs, n)| b.iter(|| std::hint::black_box(kind.solve(cs, *n).stats.pops)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_chains, bench_loops, bench_solver_comparison);
criterion_main!(benches);
