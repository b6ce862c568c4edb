//! `batch-allpairs`: the paper's aa-eval client, in process. Each
//! operation takes one MiniC program from source to the verdict on every
//! pointer pair of every function (`minic::compile`, then
//! `DisambiguationEngine::build` with CLI defaults, then `no_alias_pairs`).
//! No daemon, no `render_eval`; every pair is asked exactly once.

use crate::corpus;
use crate::trace::Tracer;
use crate::util::{Fnv, Rng};
use crate::{Args, Pass};
use sraa_alias::AaEval;
use sraa_core::{DisambiguationEngine, EngineConfig, SolverKind};
use sraa_ir::Module;
use sraa_synth::Workload;
use std::collections::BTreeMap;
use std::time::Instant;

/// Csmith programs in the seeded pool the operations draw from.
const POOL: usize = 100;
/// Per second of `--seconds`: passes over the 16 spec profiles, and
/// csmith-program operations (one size class, enough for a p99).
const SPEC_PASSES_PER_S: f64 = 0.45;
const CSMITH_OPS_PER_S: f64 = 100.0;
/// Csmith operations per sample of the host's speed; a spec pass takes
/// one sample after each profile.
const REFERENCE_EVERY: usize = 10;
/// Pool programs cross-checked against the worklist solver per run.
const WORKLIST_SAMPLE: usize = 6;
/// Corpus generations per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 11;

const GOLDEN: &str = include_str!("../golden/batch-seed1.txt");

/// What one program's all-pairs run produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Verdicts {
    pub pairs: u64,
    pub no_alias: u64,
    pub digest: u64,
}

/// Proven pairs of every function, in function order.
type Proven = Vec<(String, Vec<(u32, u32)>, u64)>;

fn all_pairs(m: &Module, engine: &DisambiguationEngine) -> Proven {
    m.functions()
        .map(|(fid, f)| {
            let ptrs = AaEval::pointer_values(m, fid);
            let n = ptrs.len() as u64;
            let proven = engine.no_alias_pairs(f, fid, &ptrs);
            let proven = proven.iter().map(|(a, b)| (a.index() as u32, b.index() as u32)).collect();
            (f.name.clone(), proven, n * n.saturating_sub(1) / 2)
        })
        .collect()
}

fn digest(proven: &Proven) -> Verdicts {
    let mut h = Fnv::new();
    let (mut pairs, mut no_alias) = (0, 0);
    for (name, ps, asked) in proven {
        h.add(name.as_bytes());
        for (a, b) in ps {
            h.add(&a.to_le_bytes());
            h.add(&b.to_le_bytes());
        }
        pairs += asked;
        no_alias += ps.len() as u64;
    }
    Verdicts { pairs, no_alias, digest: h.finish() }
}

/// The reference verdicts: the paper's worklist solver.
pub fn reference(source: &str) -> Result<Verdicts, String> {
    let mut m = sraa_minic::compile(source).map_err(|e| e.to_string())?;
    let cfg = EngineConfig { solver: SolverKind::Worklist, ..Default::default() };
    let engine = DisambiguationEngine::build(&mut m, cfg);
    Ok(digest(&all_pairs(&m, &engine)))
}

fn golden() -> BTreeMap<String, Verdicts> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let n = |i: usize| f[i].parse::<u64>().expect("golden counts are integers");
            let digest = u64::from_str_radix(f[3], 16).expect("golden digests are hex");
            (f[0].to_string(), Verdicts { pairs: n(1), no_alias: n(2), digest })
        })
        .collect()
}

/// Writes the golden file for the default seed with the worklist solver.
pub fn record_golden(seed: u64) -> Result<String, String> {
    let mut out = String::from(
        "# batch-allpairs golden verdicts, default seed, worklist solver\n\
         # program pairs_asked proven_no_alias fnv64_of_proven_pairs\n",
    );
    for w in sraa_synth::spec_all().into_iter().chain(corpus::csmith_pool(seed, POOL)) {
        let v = reference(&w.source)?;
        out.push_str(&format!("{} {} {} {:016x}\n", w.name, v.pairs, v.no_alias, v.digest));
    }
    Ok(out)
}

/// One program from source to all-pairs verdicts: its proven pairs and
/// the time it took in µs.
fn run_program(
    w: &Workload,
    tr: &mut Tracer,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<(Proven, f64), String> {
    if !tr.on() {
        let t = Instant::now();
        let mut m = sraa_minic::compile(&w.source).map_err(|e| e.to_string())?;
        let engine = DisambiguationEngine::build(&mut m, EngineConfig::default());
        let proven = all_pairs(&m, &engine);
        let us = t.elapsed().as_secs_f64() * 1e6;
        return Ok((std::hint::black_box(proven), us));
    }
    let t = Instant::now();
    let proven = tr.op("batch.program", |tr| -> Result<Proven, String> {
        let prog = tr
            .span("minic.parse", |_| sraa_minic::parse_program(&w.source))
            .map_err(|e| e.to_string())?;
        let mut m = tr
            .span("minic.lower", |_| sraa_minic::lower_program(&prog))
            .map_err(|e| e.to_string())?;
        tr.span("ir.verify", |_| sraa_ir::verify(&m)).map_err(|e| e.to_string())?;
        *counts.entry("ir.insts").or_default() += insts(&m);
        let (ranges, es) = tr.span("essa.transform", |_| sraa_essa::transform_module(&mut m));
        *counts.entry("essa.insts").or_default() += insts(&m);
        *counts.entry("essa.copies").or_default() += (es.sigma_copies + es.sub_splits) as f64;
        let engine = tr.span("core.build", |_| {
            DisambiguationEngine::on_prepared(&m, &ranges, EngineConfig::default())
        });
        crate::add_solve_stats(counts, engine.stats(), true);
        let proven = tr.span("core.query", |_| all_pairs(&m, &engine));
        *counts.entry("core.replayed_pairs").or_default() +=
            proven.iter().map(|p| p.2 as f64).sum::<f64>();
        Ok(proven)
    })?;
    *counts.entry("minic.bytes").or_default() += w.source.len() as f64;
    Ok((proven, t.elapsed().as_secs_f64() * 1e6))
}

pub fn insts(m: &Module) -> f64 {
    m.functions().map(|(_, f)| f.num_insts() as f64).sum()
}

pub fn pass(args: &Args, tr: &mut Tracer, setups: usize) -> Result<Pass, String> {
    let mut pass = Pass::default();
    // Set-up: corpus generation, repeated so its median is steady.
    let mut setup_s = Vec::new();
    let mut corpus = (Vec::new(), Vec::new());
    for _ in 0..setups {
        let t = Instant::now();
        corpus = (sraa_synth::spec_all(), corpus::csmith_pool(args.seed, POOL));
        setup_s.push(t.elapsed().as_secs_f64());
        pass.setup_reference();
    }
    let (spec, pool) = corpus;
    pass.setup(&setup_s);
    pass.layer.insert("synth.generate_ms", crate::util::median(&setup_s) * 1e3);

    let spec_passes = ((args.seconds as f64 * SPEC_PASSES_PER_S).round() as usize).max(1);
    let csmith_ops = ((args.seconds as f64 * CSMITH_OPS_PER_S).round() as usize).max(1);
    let mut rng = Rng::new(args.seed);
    let picks: Vec<usize> = (0..csmith_ops).map(|_| rng.below(POOL)).collect();

    let mut seen: BTreeMap<String, Verdicts> = BTreeMap::new();
    let mut csmith_us = Vec::new();
    let mut spec_ms = Vec::new();
    let (mut bytes, mut busy_us) = (0.0, 0.0);
    let mut counts = BTreeMap::new();
    // Checks one operation's verdicts against the program's earlier runs
    // and returns its time, or `None` when it failed.
    let mut record = |pass: &mut Pass, w: &Workload, r: Result<(Proven, f64), String>| {
        pass.attempted += 1;
        match r {
            Ok((proven, us)) => {
                let v = digest(&proven);
                pass.pairs += v.pairs;
                pass.no_alias += v.no_alias;
                match seen.get(&w.name) {
                    Some(prev) if *prev != v => {
                        pass.fail(format!("{}: verdicts changed between runs", w.name))
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(w.name.clone(), v);
                    }
                }
                Some(us)
            }
            Err(e) => {
                pass.fail(format!("{}: {e}", w.name));
                None
            }
        }
    };
    // Interleave: the csmith operations are spread evenly between the
    // spec passes.
    let mut next = 0;
    for p in 0..spec_passes {
        let mut pass_us = 0.0;
        for w in &spec {
            let r = run_program(w, tr, &mut counts);
            pass_us += record(&mut pass, w, r).unwrap_or(0.0);
            bytes += w.source.len() as f64;
            pass.reference();
        }
        spec_ms.push(pass_us / 1e3);
        busy_us += pass_us;
        let upto = csmith_ops * (p + 1) / spec_passes;
        for (k, &i) in picks[next..upto].iter().enumerate() {
            if k % REFERENCE_EVERY == 0 {
                pass.reference();
            }
            let w = &pool[i];
            let r = run_program(w, tr, &mut counts);
            if let Some(us) = record(&mut pass, w, r) {
                csmith_us.push(us);
                busy_us += us;
                bytes += w.source.len() as f64;
            }
        }
        next = upto;
    }
    pass.measured_ms = busy_us / 1e3;

    // Correctness, outside the timed region.
    let gold = golden();
    for (name, v) in &seen {
        if let Some(g) = gold.get(name) {
            if g != v {
                pass.fail(format!("{name}: {v:?} differs from golden {g:?}"));
            }
        }
    }
    for _ in 0..WORKLIST_SAMPLE {
        let w = &pool[rng.below(POOL)];
        let Some(got) = seen.get(&w.name) else { continue };
        match reference(&w.source) {
            Ok(r) if r == *got => {}
            Ok(r) => pass.fail(format!("{}: SCC {got:?} vs worklist {r:?}", w.name)),
            Err(e) => pass.fail(format!("{}: {e}", w.name)),
        }
    }

    pass.peak_rss("self");
    pass.op(&csmith_us, "program_us", "csmith program, source to verdicts");
    pass.bulk(&spec_ms, "spec_pass_ms", "the 16 spec profiles");
    pass.named("source_kb_per_s", bytes / 1024.0 / (busy_us / 1e6), "KB/s");

    // Per-layer counts (only the traced pass's are reported).
    pass.layer.extend(counts);
    pass.layer.insert("core.query_repeat_share", 0.0);
    Ok(pass)
}
