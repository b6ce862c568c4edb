//! The sraa benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! sraa-perfbench --workload <batch-allpairs|daemon-read|daemon-edit>
//!                --seed <n> --seconds <s> --trace <0|1>
//!                --sraa <path to the sraa binary> --work <scratch dir>
//! sraa-perfbench --self-test --sraa <path> --work <dir>
//! sraa-perfbench --record-golden <file>
//! ```
//!
//! `perfbench/run.py` builds both binaries and passes `--sraa`/`--work`.
//! The last line of standard output is one JSON object; everything above
//! it is a human-readable table. The exit code is 1 when any output was
//! wrong.

mod batch;
mod corpus;
mod daemon;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics, reported by every workload (see README.md for
/// what the operation and the bulk request are on each).
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_us_p50_norm", "us"), ("bulk_ms_p50_norm", "ms")];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: [(&str, &str); 50] = [
    ("minic.parse_ms", "ms"),
    ("minic.lower_ms", "ms"),
    ("minic.kb_per_s", "KB/s"),
    ("ir.verify_ms", "ms"),
    ("ir.insts", "count"),
    ("essa.insts", "count"),
    ("essa.transform_ms", "ms"),
    ("essa.copies", "count"),
    ("core.build_ms", "ms"),
    ("core.summary_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.constraints", "count"),
    ("core.pops", "count"),
    ("core.pops_per_constraint", "ratio"),
    ("core.query_ms", "ms"),
    ("core.query_ns_per_pair", "ns"),
    ("core.pairs", "count"),
    ("core.no_alias", "count"),
    ("core.no_alias_ratio", "ratio"),
    ("core.query_repeat_share", "ratio"),
    ("core.summary_hits", "count"),
    ("core.summary_misses", "count"),
    ("core.summary_invalidated", "count"),
    ("core.summary_hit_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.published", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.segments", "count"),
    ("alias.render_eval_ms", "ms"),
    ("alias.pentagon_ms", "ms"),
    ("alias.andersen_ms", "ms"),
    ("alias.steensgaard_ms", "ms"),
    ("alias.basic_ms", "ms"),
    ("alias.lt_eval_ms", "ms"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.server_us_p50", "us"),
    ("serve.server_us_p99", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.protocol_us", "us"),
    ("serve.errors", "count"),
    ("serve.frames", "count"),
    ("serve.startup_ms", "ms"),
    ("serve.seed_upload_ms", "ms"),
    ("synth.generate_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.parallelism", "count"),
    ("host.dense_min", "count"),
];

/// Counts that must repeat exactly between two runs with one seed.
const DETERMINISTIC: [&str; 16] = [
    "ir.insts",
    "essa.insts",
    "essa.copies",
    "core.constraints",
    "core.pops",
    "core.pairs",
    "core.no_alias",
    "core.summary_hits",
    "core.summary_misses",
    "core.summary_invalidated",
    "store.hits",
    "store.misses",
    "store.published",
    "store.segments",
    "serve.frames",
    "serve.errors",
];

const WORKLOADS: [&str; 3] = ["batch-allpairs", "daemon-read", "daemon-edit"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub sraa: PathBuf,
    pub work: PathBuf,
}

/// What one pass over a workload measured and checked.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    /// Rows of the human-readable table: name, value, unit.
    named: Vec<(String, f64, &'static str)>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Client-observed time of the operations, for the tracing overhead.
    pub measured_ms: f64,
    /// Pointer pairs asked and proven no-alias.
    pub pairs: u64,
    pub no_alias: u64,
    /// Times of the reference computation, sampled between operations
    /// and between set-ups.
    ref_us: Vec<f64>,
    setup_ref_us: Vec<f64>,
}

impl Pass {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Peak resident set size of the analysing process (`"self"` or a pid).
    pub fn peak_rss(&mut self, pid: &str) {
        self.e2e.insert("peak_rss_mb", util::peak_rss_mb(pid).unwrap_or(f64::NAN));
    }

    /// Samples the host's speed: one timed run of the reference
    /// computation. Call it between operations, never inside one.
    pub fn reference(&mut self) {
        self.ref_us.push(util::reference_us());
    }

    /// The same after a set-up: a few samples, so set-up time is stated
    /// at the speed the host ran while setting up.
    pub fn setup_reference(&mut self) {
        for _ in 0..5 {
            self.setup_ref_us.push(util::reference_us());
        }
    }

    /// Factor that states a time measured in this run at the host speed
    /// where the reference computation takes [`util::REFERENCE_US`].
    fn speed(&self) -> f64 {
        util::REFERENCE_US / util::median(&self.ref_us)
    }

    /// Set-up time: the median of the run's set-ups, normalised by the
    /// reference samples taken between them.
    pub fn setup(&mut self, seconds: &[f64]) {
        let raw = util::median(seconds);
        let norm = raw * util::REFERENCE_US / util::median(&self.setup_ref_us);
        self.e2e.insert("setup_s", norm);
        self.named("setup_s", norm, "s");
        self.named("setup_s raw", raw, "s");
        self.named("setup_ref_us_p50", util::median(&self.setup_ref_us), "us");
        self.named("setups", seconds.len() as f64, "count");
    }

    /// The workload's operation, one size class, samples in the order
    /// they were taken: the median, and for the table the p90 of each
    /// tenth of the run, median over the tenths. The gated figure is the
    /// median normalised by the run's reference samples. The table prints
    /// the figures beside the workload's own name for them, `name` (as
    /// `upload_ms`), and the class of operation timed.
    pub fn op(&mut self, us: &[f64], name: &str, class: &str) {
        let tenth = us.len().div_ceil(10).max(1);
        if !util::tail_ok(tenth, 90.0) {
            eprintln!("# note: p90 of {tenth} samples of `{name}` has fewer than ten beyond it");
        }
        let p90s: Vec<f64> = us.chunks(tenth).map(|c| util::percentile(c, 90.0)).collect();
        let p50 = util::percentile(us, 50.0);
        let norm = p50 * self.speed();
        self.e2e.insert("op_us_p50_norm", norm);
        self.named("op_us_p50_norm", norm, "us");
        self.named(&format!("op_us_p50 = {name}_p50 ({class})"), p50, "us");
        self.named(&format!("op_us_p90 = {name}_p90 ({class})"), util::median(&p90s), "us");
        self.named("op_samples", us.len() as f64, "count");
        self.named("ref_us_p50", util::median(&self.ref_us), "us");
        self.named("ref_samples", self.ref_us.len() as f64, "count");
    }

    /// The workload's bulk request, one size class: the median, gated and
    /// printed as for [`Pass::op`].
    pub fn bulk(&mut self, ms: &[f64], name: &str, class: &str) {
        if ms.len() < 5 {
            eprintln!("# note: median of only {} samples of `{name}`", ms.len());
        }
        let p50 = util::percentile(ms, 50.0);
        let norm = p50 * self.speed();
        self.e2e.insert("bulk_ms_p50_norm", norm);
        self.named("bulk_ms_p50_norm", norm, "ms");
        self.named(&format!("bulk_ms_p50 = {name}_p50 ({class})"), p50, "ms");
        self.named("bulk_samples", ms.len() as f64, "count");
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }
}

/// Adds an engine's solve counters; `times` also adds its phase clocks.
pub fn add_solve_stats(
    counts: &mut BTreeMap<&'static str, f64>,
    s: &sraa_core::SolveStats,
    times: bool,
) {
    *counts.entry("core.constraints").or_default() += s.constraints as f64;
    *counts.entry("core.pops").or_default() += s.pops as f64;
    if times {
        *counts.entry("core.summary_ms").or_default() += s.summary_build_ns as f64 / 1e6;
        *counts.entry("core.solve_ms").or_default() += s.final_solve_ns as f64 / 1e6;
    }
}

/// Runs one pass of the workload. The untraced pass repeats its set-up
/// (`setup_s` is the median) as often as the workload's set-up needs for
/// a steady median; a traced pass sets up once.
fn run_pass(args: &Args, tr: &mut Tracer, repeat_setup: bool) -> Result<Pass, String> {
    let setups = |n: usize| if repeat_setup { n } else { 1 };
    match args.workload.as_str() {
        "batch-allpairs" => batch::pass(args, tr, setups(batch::SETUPS)),
        "daemon-read" => daemon::read_pass(args, tr, setups(daemon::SETUPS)),
        "daemon-edit" => daemon::edit_pass(args, tr, setups(daemon::SETUPS)),
        w => Err(format!("unknown workload `{w}`; expected one of {WORKLOADS:?}")),
    }
}

fn dense_min() -> f64 {
    std::env::var("SRAA_DENSE_MIN").ok().and_then(|v| v.parse().ok()).unwrap_or(f64::NAN)
}

fn parallelism() -> f64 {
    std::thread::available_parallelism().map_or(f64::NAN, |n| n.get() as f64)
}

/// Per-layer metrics from the traced pass and its tracer.
fn layer_metrics(pass: &Pass, tr: &Tracer, untraced_ms: f64) -> BTreeMap<&'static str, f64> {
    let self_ms = tr.self_ms();
    let mut m = pass.layer.clone();
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_ms") {
            if let Some(v) = self_ms.get(span) {
                m.insert(name, *v);
            }
        }
    }
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    m.insert("alias.render_eval_ms", tr.total_ms("alias.render_eval"));
    let frontend_s = (get(&m, "minic.parse_ms") + get(&m, "minic.lower_ms")) / 1e3;
    if frontend_s > 0.0 {
        m.insert("minic.kb_per_s", get(&m, "minic.bytes") / 1024.0 / frontend_s);
    }
    if get(&m, "core.constraints") > 0.0 {
        m.insert("core.pops_per_constraint", get(&m, "core.pops") / get(&m, "core.constraints"));
    }
    let replayed = get(&m, "core.replayed_pairs");
    if replayed > 0.0 {
        m.insert("core.query_ns_per_pair", get(&m, "core.query_ms") * 1e6 / replayed);
    }
    m.insert("core.pairs", pass.pairs as f64);
    m.insert("core.no_alias", pass.no_alias as f64);
    m.insert("core.no_alias_ratio", pass.no_alias as f64 / (pass.pairs as f64).max(1.0));
    let protocol_ops = get(&m, "serve.protocol_ops");
    if protocol_ops > 0.0 {
        m.insert(
            "serve.protocol_us",
            self_ms.get("serve.protocol").copied().unwrap_or(0.0) * 1e3 / protocol_ops,
        );
    }
    m.insert("trace.op_ms", tr.op_ms());
    m.insert("trace.unattributed_ms", tr.unattributed_ms());
    m.insert("trace.overhead_pct", (pass.measured_ms - untraced_ms) / untraced_ms * 100.0);
    m.insert("host.parallelism", parallelism());
    m.insert("host.dense_min", dense_min());
    PER_LAYER.iter().map(|(k, _)| (*k, m.get(k).copied().unwrap_or(0.0))).collect()
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, units: &[(&str, &str)]) -> String {
    let body: Vec<String> = units
        .iter()
        .map(|(k, u)| {
            let v = values.get(k).copied().unwrap_or(f64::NAN);
            let v = if v.is_finite() { format!("{v}") } else { "null".into() };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_problems(pass: &Pass) {
    for p in &pass.problems {
        eprintln!("# wrong: {p}");
    }
}

fn run(args: &Args, trace: bool) -> Result<bool, String> {
    println!(
        "# sraa benchmark: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, trace as u8
    );
    println!("# host: available_parallelism {} SRAA_DENSE_MIN {}", parallelism(), dense_min());
    let (pass, metrics, units): (Pass, BTreeMap<&'static str, f64>, &[(&str, &str)]) = if !trace {
        let pass = run_pass(args, &mut Tracer::new(false), true)?;
        for (name, value, unit) in &pass.named {
            println!("{name:<40} {value:>14.3} {unit}");
        }
        let e2e = pass.e2e.clone();
        (pass, e2e, &END_TO_END)
    } else {
        let untraced = run_pass(args, &mut Tracer::new(false), false)?;
        print_problems(&untraced);
        let mut tr = Tracer::new(true);
        let mut pass = run_pass(args, &mut tr, false)?;
        pass.attempted += untraced.attempted;
        pass.failed += untraced.failed;
        let metrics = layer_metrics(&pass, &tr, untraced.measured_ms);
        let op_ms = tr.op_ms();
        println!("# layer self time over {op_ms:.1} ms of traced operations");
        for (span, ms) in tr.self_ms() {
            println!("{span:<24} {ms:>12.2} ms {:>6.1}%", ms / op_ms * 100.0);
        }
        std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
        let spans = args.work.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        tr.write(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("# spans written to {}", spans.display());
        for (name, unit) in PER_LAYER {
            println!("{name:<28} {:>16.3} {unit}", metrics[name]);
        }
        (pass, metrics, &PER_LAYER)
    };
    print_problems(&pass);
    if pass.attempted == 0 {
        return Err("the run attempted no operation".into());
    }
    let correct = pass.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        pass.attempted,
        pass.failed,
        json_metrics(&metrics, units)
    );
    Ok(correct)
}

/// Two traced runs with one seed must agree on every count; another
/// seed must change the corpus.
fn self_test(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    if corpus::csmith(args.seed, 0).source == corpus::csmith(args.seed + 1, 0).source {
        println!("FAIL corpus does not depend on the seed");
        ok = false;
    }
    for w in WORKLOADS {
        let mut wok = true;
        let mut counts = Vec::new();
        for seed in [args.seed, args.seed, args.seed + 1] {
            let a = Args {
                workload: w.into(),
                seed,
                seconds: args.seconds,
                sraa: args.sraa.clone(),
                work: args.work.clone(),
            };
            let mut tr = Tracer::new(true);
            let pass = run_pass(&a, &mut tr, false)?;
            print_problems(&pass);
            wok &= pass.failed == 0;
            let m = layer_metrics(&pass, &tr, pass.measured_ms);
            counts.push(DETERMINISTIC.map(|k| (k, m[k])));
        }
        for ((k, a), (_, b)) in counts[0].iter().zip(&counts[1]) {
            if a != b {
                println!("FAIL {w}: {k} is {a} then {b} with one seed");
                wok = false;
            }
        }
        if counts[0] == counts[2] {
            println!("FAIL {w}: another seed left every count unchanged");
            wok = false;
        }
        println!("{} {w}: {:?}", if wok { "ok" } else { "FAIL" }, counts[0]);
        ok &= wok;
    }
    Ok(ok)
}

fn parse_args() -> Result<(Args, bool, Option<String>, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        sraa: PathBuf::from("sraa"),
        work: PathBuf::from(".bench_work"),
    };
    let (mut trace, mut golden, mut selftest) = (false, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            selftest = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value == "1",
            "--sraa" => args.sraa = PathBuf::from(&value),
            "--work" => args.work = PathBuf::from(&value),
            "--record-golden" => golden = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((args, trace, golden, selftest))
}

fn main() {
    let result = parse_args().and_then(|(args, trace, golden, selftest)| {
        if let Some(path) = golden {
            let text = batch::record_golden(args.seed)?;
            std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
            return Ok(true);
        }
        if selftest {
            return self_test(&args);
        }
        run(&args, trace)
    });
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
