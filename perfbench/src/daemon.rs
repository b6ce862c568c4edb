//! The resident-daemon workloads. Each pass starts a fresh `sraa serve`
//! (and, for `daemon-edit`, a fresh shared-store directory), uploads its
//! seeded corpus during set-up, and drives it over one Unix-socket
//! connection in a closed loop: the next request goes out only after the
//! previous reply (or the `done` frame of a stream) has arrived.

use crate::corpus;
use crate::trace::Tracer;
use crate::util::{median, percentile, Rng};
use crate::{Args, Pass};
use sraa_alias::{
    render_eval, AaEval, AliasAnalysis, AndersenAnalysis, BasicAliasAnalysis, Combined, PentagonAa,
    SteensgaardAnalysis, StrictInequalityAa,
};
use sraa_core::{DisambiguationEngine, EngineConfig};
use sraa_ir::{Module, Value};
use sraa_serve::{decode_frame, encode_frame, obj, parse, Client, Json};
use sraa_synth::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `sraa serve` with one client connection.
pub struct Daemon {
    child: Child,
    client: Client,
    pub pid: String,
}

impl Daemon {
    fn start(sraa: &Path, dir: &Path, store: Option<&Path>) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock = dir.join("serve.sock");
        let err = std::fs::File::create(dir.join("serve.err")).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(sraa);
        cmd.arg("serve").arg("--socket").arg(&sock);
        if let Some(s) = store {
            cmd.arg("--shared-store").arg(s);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sraa.display()))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let client = loop {
            if sock.exists() {
                if let Ok(c) = Client::connect_unix(&sock) {
                    break c;
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("sraa serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("sraa serve did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let pid = child.id().to_string();
        Ok(Daemon { child, client, pid })
    }

    fn request(&mut self, req: &Json) -> Result<Json, String> {
        self.client.request(req).map_err(|e| e.to_string())
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.request(&obj([("cmd", Json::Str("shutdown".into()))]))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(s)) if s.success() => return Ok(()),
                Ok(Some(s)) => return Err(format!("sraa serve exited with {s}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("sraa serve did not stop after `shutdown`".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn upload_req(name: &str, source: &str) -> Json {
    obj([("cmd", s("upload")), ("name", s(name)), ("source", s(source))])
}

fn no_alias_req(module: &str, func: &str, p1: Value, p2: Value) -> Json {
    obj([
        ("cmd", s("no-alias")),
        ("module", s(module)),
        ("func", s(func)),
        ("p1", Json::Str(p1.to_string())),
        ("p2", Json::Str(p2.to_string())),
    ])
}

/// Set-up of one daemon pass: corpus generation, daemon start and the
/// seed uploads, timed part by part.
struct Setup {
    daemon: Daemon,
    dir: PathBuf,
    modules: Vec<Workload>,
    generate_ms: f64,
    startup_ms: f64,
    upload_ms: f64,
}

fn setup(
    args: &Args,
    tag: &str,
    with_store: bool,
    corpus: impl Fn() -> Vec<Workload>,
) -> Result<Setup, String> {
    let dir = args.work.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let modules = corpus();
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let store = dir.join("store");
    let mut daemon = Daemon::start(&args.sraa, &dir, with_store.then_some(store.as_path()))?;
    let startup_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    for w in &modules {
        let reply = daemon.request(&upload_req(&w.name, &w.source))?;
        if !reply.is_ok() {
            return Err(format!("seed upload of {} failed: {}", w.name, reply.render()));
        }
    }
    let upload_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok(Setup { daemon, dir, modules, generate_ms, startup_ms, upload_ms })
}

/// Set-ups per untraced daemon run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Runs `setups` set-ups and keeps the last daemon; the others are shut
/// down, so set-up time is a median while the loop still starts fresh.
fn setups(
    args: &Args,
    pass: &mut Pass,
    n: usize,
    with_store: bool,
    corpus: impl Fn() -> Vec<Workload>,
) -> Result<Setup, String> {
    let (mut total, mut gen, mut start, mut up) = (vec![], vec![], vec![], vec![]);
    let mut last = None;
    for k in 0..n {
        if let Some(prev) = last.take() {
            let Setup { daemon, dir, .. }: Setup = prev;
            daemon.shutdown()?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let tag = format!("{}-{}-{k}", args.workload, std::process::id());
        let su = setup(args, &tag, with_store, &corpus)?;
        total.push((su.generate_ms + su.startup_ms + su.upload_ms) / 1e3);
        pass.setup_reference();
        gen.push(su.generate_ms);
        start.push(su.startup_ms);
        up.push(su.upload_ms);
        last = Some(su);
    }
    pass.setup(&total);
    pass.layer.insert("synth.generate_ms", median(&gen));
    pass.layer.insert("serve.startup_ms", median(&start));
    pass.layer.insert("serve.seed_upload_ms", median(&up));
    Ok(last.expect("at least one set-up"))
}

/// In-process reference for a daemon module: the same pipeline the
/// daemon runs on upload (summaries on, SCC solver).
struct Local {
    module: Module,
    lt: StrictInequalityAa,
}

fn local(source: &str) -> Result<Local, String> {
    let mut module = sraa_minic::compile(source).map_err(|e| e.to_string())?;
    let lt = StrictInequalityAa::from_engine(DisambiguationEngine::build(
        &mut module,
        EngineConfig::default().with_summaries(),
    ));
    Ok(Local { module, lt })
}

impl Local {
    fn no_alias(&self, func: &str, p1: Value, p2: Value) -> Option<bool> {
        let fid = self.module.function_by_name(func)?;
        Some(self.lt.engine().no_alias(self.module.function(fid), fid, p1, p2))
    }

    fn pairs(&self, func: &str) -> Option<Vec<(Value, Value)>> {
        let fid = self.module.function_by_name(func)?;
        let ptrs = AaEval::pointer_values(&self.module, fid);
        Some(self.lt.engine().no_alias_pairs(self.module.function(fid), fid, &ptrs))
    }
}

/// Functions of `m` with at least two pointer values, with those values.
fn pointer_funcs(m: &Module) -> Vec<(String, Vec<Value>)> {
    m.functions()
        .map(|(fid, f)| (f.name.clone(), AaEval::pointer_values(m, fid)))
        .filter(|(_, p)| p.len() >= 2)
        .collect()
}

/// The daemon's `stats` reply, folded into per-layer metrics.
fn server_stats(d: &mut Daemon, pass: &mut Pass) -> Result<f64, String> {
    let st = d.request(&obj([("cmd", s("stats"))]))?;
    let n = |k: &str| st.num_field(k).unwrap_or(0) as f64;
    pass.layer.insert("serve.server_us_p50", n("p50_us"));
    pass.layer.insert("serve.server_us_p99", n("p99_us"));
    pass.layer.insert("serve.errors", n("errors"));
    pass.layer.insert("serve.frames", n("frames"));
    Ok(n("p50_us"))
}

/// Times one request round trip, traced as `serve.roundtrip`.
fn timed(tr: &mut Tracer, d: &mut Daemon, req: &Json) -> (Result<Json, String>, f64) {
    tr.span("serve.roundtrip", |_| {
        let t = Instant::now();
        let r = d.request(req);
        (r, t.elapsed().as_secs_f64() * 1e6)
    })
}

/// In-process replay of the wire protocol on one request/reply pair:
/// what the client and the daemon each do to a frame.
fn replay_protocol(tr: &mut Tracer, req: &Json, reply: &Json) {
    tr.span("serve.protocol", |_| {
        for v in [req, reply] {
            let frame = encode_frame(&v.render());
            let payload = decode_frame(&frame, sraa_serve::protocol::MAX_FRAME).expect("own frame");
            std::hint::black_box(parse(payload).expect("own payload"));
        }
    });
}

// ---------------------------------------------------------------- read

/// Csmith-with-helpers modules resident for point queries.
const READ_MODULES: usize = 24;
/// Spec profiles resident for `pairs` streams; their `stencil_*`
/// functions are clones of one shape, so every stream is one size class.
const READ_SPEC: [&str; 3] = ["mcf", "libquantum", "bzip2"];
/// Point queries and `pairs` streams per second of `--seconds`. The
/// 40:1 ratio is not taken from any client's traffic: it gives each kind
/// about half of the loop's time on a 2-vCPU host, which the table
/// checks as `point_query_time_share`.
const READ_QUERIES_PER_S: f64 = 16000.0;
const READ_PAIRS_PER_S: f64 = 400.0;
/// Chance that a point query repeats an earlier pair: an assumption of
/// the workload, not a measured share. Repeats (memo hits) and first
/// asks (memo misses) are timed as separate classes, so the share only
/// sets how many samples each class gets and how far the memo grows.
const REPEAT_PCT: usize = 50;
/// Operations per sample of the host's speed.
const READ_REFERENCE_EVERY: usize = 1000;

enum ReadOp {
    Point {
        module: usize,
        func: usize,
        p1: Value,
        p2: Value,
        repeat: bool,
    },
    /// A `pairs` stream over `stencils[i]`.
    Pairs(usize),
}

struct Stencil {
    module: usize,
    func: String,
    /// Pointer pairs the stream answers.
    asked: u64,
    /// The no-alias pairs it must list, in order.
    want: Vec<(String, String)>,
}

pub fn read_pass(args: &Args, tr: &mut Tracer, n_setups: usize) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let seed = args.seed;
    let corpus = || {
        let mut c = corpus::csmith_pool(seed, READ_MODULES);
        c.extend(corpus::spec_named(&READ_SPEC));
        c
    };
    let Setup { mut daemon, dir, modules, .. } = setups(args, &mut pass, n_setups, false, corpus)?;

    // Load generator state, outside set-up and the timed loop: the
    // in-process pipeline gives the value names to ask about and the
    // verdicts to expect.
    let locals = modules.iter().map(|w| local(&w.source)).collect::<Result<Vec<_>, _>>()?;
    for l in &locals {
        crate::add_solve_stats(&mut pass.layer, l.lt.engine().stats(), false);
    }
    let point_funcs: Vec<Vec<(String, Vec<Value>)>> =
        locals[..READ_MODULES].iter().map(|l| pointer_funcs(&l.module)).collect();
    // The `pairs` targets, each with its pair count and expected stream.
    let mut stencils = Vec::new();
    for (mi, l) in locals.iter().enumerate().skip(READ_MODULES) {
        for (fid, f) in l.module.functions().filter(|(_, f)| f.name.starts_with("stencil_")) {
            let n = AaEval::pointer_values(&l.module, fid).len() as u64;
            let want = l.pairs(&f.name).unwrap_or_default();
            let want = want.iter().map(|(a, b)| (a.to_string(), b.to_string())).collect();
            stencils.push(Stencil {
                module: mi,
                func: f.name.clone(),
                asked: n * (n - 1) / 2,
                want,
            });
        }
    }
    if stencils.is_empty() {
        return Err("read corpus has no stencil functions".into());
    }

    let mut rng = Rng::new(seed ^ 0x5EAD);
    let n_points = (args.seconds as f64 * READ_QUERIES_PER_S).round() as usize;
    let n_pairs = ((args.seconds as f64 * READ_PAIRS_PER_S).round() as usize).max(1);
    let mut ops = Vec::with_capacity(n_points + n_pairs);
    let mut history: Vec<(usize, usize, Value, Value)> = Vec::new();
    let mut repeats = 0usize;
    for i in 0..n_points {
        let repeat = !history.is_empty() && rng.below(100) < REPEAT_PCT;
        let q = if repeat {
            repeats += 1;
            history[rng.below(history.len())]
        } else {
            let mi = loop {
                let mi = rng.below(READ_MODULES);
                if !point_funcs[mi].is_empty() {
                    break mi;
                }
            };
            let fi = rng.below(point_funcs[mi].len());
            let ptrs = &point_funcs[mi][fi].1;
            let (a, b) = rng.pair(ptrs.len());
            let q = (mi, fi, ptrs[a], ptrs[b]);
            history.push(q);
            q
        };
        ops.push(ReadOp::Point { module: q.0, func: q.1, p1: q.2, p2: q.3, repeat });
        // Spread the streams evenly through the point queries.
        if (i + 1) * n_pairs / n_points.max(1) > i * n_pairs / n_points.max(1) {
            ops.push(ReadOp::Pairs(rng.below(stencils.len())));
        }
    }

    // Point-query round trips: first asks and repeats, kept apart.
    let (mut first_us, mut repeat_us) = (Vec::new(), Vec::new());
    let mut pairs_ms = Vec::new();
    let (mut replayed_pairs, mut measured_us) = (0u64, 0.0);
    for (k, op) in ops.iter().enumerate() {
        if k % READ_REFERENCE_EVERY == 0 {
            pass.reference();
        }
        pass.attempted += 1;
        match op {
            ReadOp::Point { module, func, p1, p2, repeat } => {
                let (fname, _) = &point_funcs[*module][*func];
                let req = no_alias_req(&modules[*module].name, fname, *p1, *p2);
                let (reply, us) = tr.op("read.query", |tr| {
                    let (reply, us) = timed(tr, &mut daemon, &req);
                    if let (true, Ok(r)) = (tr.on(), &reply) {
                        replay_protocol(tr, &req, r);
                    }
                    (reply, us)
                });
                if *repeat { &mut repeat_us } else { &mut first_us }.push(us);
                measured_us += us;
                pass.pairs += 1;
                let want = locals[*module].no_alias(fname, *p1, *p2);
                match reply.map(|r| (r.get("no_alias").and_then(Json::as_bool), r)) {
                    Ok((Some(v), _)) if Some(v) == want => pass.no_alias += v as u64,
                    Ok((_, r)) => {
                        pass.fail(format!("no-alias {fname} {p1} {p2}: {} vs {want:?}", r.render()))
                    }
                    Err(e) => pass.fail(e),
                }
            }
            ReadOp::Pairs(i) => {
                let st = &stencils[*i];
                let l = &locals[st.module];
                let req = obj([
                    ("cmd", s("pairs")),
                    ("module", s(&modules[st.module].name)),
                    ("func", s(&st.func)),
                ]);
                let mut got = Vec::new();
                let (done, ms) = tr.op("read.pairs", |tr| {
                    let r = tr.span("serve.roundtrip", |_| {
                        let t = Instant::now();
                        let done = daemon.client.request_streamed(&req, |f| {
                            if let Some(Json::Arr(p)) = f.get("pair") {
                                let name = |i: usize| {
                                    p.get(i).and_then(Json::as_str).unwrap_or_default().to_string()
                                };
                                got.push((name(0), name(1)));
                            }
                        });
                        (done, t.elapsed().as_secs_f64() * 1e3)
                    });
                    if tr.on() {
                        std::hint::black_box(tr.span("core.query", |_| l.pairs(&st.func)));
                        replayed_pairs += st.asked;
                    }
                    r
                });
                pairs_ms.push(ms);
                measured_us += ms * 1e3;
                pass.pairs += st.asked;
                match done {
                    Ok(d)
                        if d.num_field("done") == Some(st.want.len() as i64) && got == st.want =>
                    {
                        pass.no_alias += st.want.len() as u64
                    }
                    Ok(d) => pass.fail(format!(
                        "pairs {}: {} frames, done {}",
                        st.func,
                        got.len(),
                        d.render()
                    )),
                    Err(e) => pass.fail(e.to_string()),
                }
            }
        }
    }
    pass.measured_ms = measured_us / 1e3;

    let server_p50 = server_stats(&mut daemon, &mut pass)?;
    pass.peak_rss(&daemon.pid);
    daemon.shutdown()?;
    let _ = std::fs::remove_dir_all(dir);

    let point_ms = (first_us.iter().sum::<f64>() + repeat_us.iter().sum::<f64>()) / 1e3;
    pass.layer.insert("core.query_repeat_share", repeats as f64 / n_points.max(1) as f64);
    pass.layer.insert("serve.transport_us_p50", percentile(&first_us, 50.0) - server_p50);
    pass.layer.insert("core.replayed_pairs", replayed_pairs as f64);
    pass.layer.insert("serve.protocol_ops", (first_us.len() + repeat_us.len()) as f64);
    // The gated figure: point queries asking a pair for the first time.
    pass.op(&first_us, "query_us", "first ask of a pair");
    pass.named("query_us_p99 (first ask)", percentile(&first_us, 99.0), "us");
    pass.named("query_us_p50 (repeat)", percentile(&repeat_us, 50.0), "us");
    pass.named("query_us_p99 (repeat)", percentile(&repeat_us, 99.0), "us");
    pass.named("repeat_samples", repeat_us.len() as f64, "count");
    pass.bulk(&pairs_ms, "pairs_ms", "stencil function");
    pass.named("pairs_ms_p99", percentile(&pairs_ms, 99.0), "ms");
    pass.named("point_query_time_share", point_ms / pass.measured_ms, "ratio");
    Ok(pass)
}

// ---------------------------------------------------------------- edit

/// Csmith-with-helpers modules re-uploaded with edits.
const EDIT_MODULES: usize = 48;
const EDIT_ITERS_PER_S: f64 = 150.0;
/// One re-upload in this many brings a version never uploaded before
/// (store misses and publishes); the others repeat an earlier version
/// of the module (summary invalidations and store hits). The share is an
/// assumption of the workload, not a measured edit pattern; it is fixed
/// so every stretch of the run has the same mix, and the two kinds of
/// upload are timed as separate classes.
const EDIT_FRESH_ONE_IN: usize = 4;
/// Point queries after each re-upload: "a few" reads beside each write,
/// an assumption of the workload.
const EDIT_QUERIES: usize = 3;
/// Iterations per sample of the host's speed.
const EDIT_REFERENCE_EVERY: usize = 10;

/// One loop iteration's record, checked after the loop.
struct EditIter {
    module: usize,
    version: (usize, usize),
    queries: Vec<(Value, Value, Result<Option<bool>, String>)>,
    eval: Result<Option<String>, String>,
}

pub fn edit_pass(args: &Args, tr: &mut Tracer, n_setups: usize) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let seed = args.seed;
    let corpus = || corpus::csmith_pool(seed, EDIT_MODULES);
    let Setup { mut daemon, dir, modules, .. } = setups(args, &mut pass, n_setups, true, corpus)?;

    // Editing a helper never changes `work`, so its pointer values stay
    // valid query targets across versions.
    let mut work_ptrs = Vec::new();
    for w in &modules {
        let l = local(&w.source)?;
        let fid = l.module.function_by_name("work").ok_or("csmith module without work()")?;
        let ptrs = AaEval::pointer_values(&l.module, fid);
        if ptrs.len() < 2 {
            return Err(format!("{}: work() has fewer than two pointers", w.name));
        }
        work_ptrs.push(ptrs);
    }

    let mut rng = Rng::new(seed ^ 0xED17);
    let iters = ((args.seconds as f64 * EDIT_ITERS_PER_S).round() as usize).max(1);
    // Versions uploaded so far per module, and the last variant used per
    // helper function.
    let mut versions: Vec<Vec<(usize, usize)>> = vec![vec![(0, 0)]; EDIT_MODULES];
    let mut last_variant = vec![[0usize; corpus::EDIT_FUNCS]; EDIT_MODULES];
    // Re-upload round trips: versions seen before and new ones, kept apart.
    let (mut repeat_upload_us, mut fresh_upload_us) = (Vec::new(), Vec::new());
    let mut eval_ms = Vec::new();
    let mut query_us = Vec::new();
    let mut log = Vec::with_capacity(iters);
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut measured_us = 0.0;
    for k in 0..iters {
        if k % EDIT_REFERENCE_EVERY == 0 {
            pass.reference();
        }
        let m = rng.below(EDIT_MODULES);
        let fresh = rng.below(EDIT_FRESH_ONE_IN) == 0;
        let version = if fresh {
            let f = rng.below(corpus::EDIT_FUNCS);
            last_variant[m][f] += 1;
            versions[m].push((f, last_variant[m][f]));
            (f, last_variant[m][f])
        } else {
            versions[m][rng.below(versions[m].len())]
        };
        let source = corpus::edit(&modules[m].source, version.0, version.1);
        let name = &modules[m].name;

        pass.attempted += 1;
        let req = upload_req(name, &source);
        let (reply, us) = tr.op("edit.upload", |tr| {
            let r = timed(tr, &mut daemon, &req);
            if tr.on() {
                replay_upload(tr, &source, &mut counts);
            }
            r
        });
        if fresh { &mut fresh_upload_us } else { &mut repeat_upload_us }.push(us);
        measured_us += us;
        match reply {
            Ok(r) if r.is_ok() => {
                for (k, field) in [
                    ("core.summary_hits", "hits"),
                    ("core.summary_misses", "misses"),
                    ("core.summary_invalidated", "invalidated"),
                    ("store.hits", "store_hits"),
                    ("store.misses", "store_misses"),
                    ("store.published", "store_published"),
                ] {
                    *counts.entry(k).or_default() += r.num_field(field).unwrap_or(0) as f64;
                }
            }
            Ok(r) => pass.fail(format!("upload {name}: {}", r.render())),
            Err(e) => pass.fail(e),
        }

        let mut queries = Vec::new();
        for _ in 0..EDIT_QUERIES {
            let ptrs = &work_ptrs[m];
            let (a, b) = rng.pair(ptrs.len());
            let req = no_alias_req(name, "work", ptrs[a], ptrs[b]);
            pass.attempted += 1;
            let (reply, us) = tr.op("edit.query", |tr| timed(tr, &mut daemon, &req));
            query_us.push(us);
            measured_us += us;
            let v = reply.map(|r| r.get("no_alias").and_then(Json::as_bool));
            queries.push((ptrs[a], ptrs[b], v));
        }

        pass.attempted += 1;
        let req = obj([("cmd", s("eval")), ("module", s(name))]);
        let (reply, us) = tr.op("edit.eval", |tr| timed(tr, &mut daemon, &req));
        eval_ms.push(us / 1e3);
        measured_us += us;
        let eval = reply.map(|r| r.str_field("text").map(str::to_string));
        log.push(EditIter { module: m, version, queries, eval });
    }
    pass.measured_ms = measured_us / 1e3;

    server_stats(&mut daemon, &mut pass)?;
    pass.peak_rss(&daemon.pid);
    daemon.shutdown()?;
    let segments = std::fs::read_dir(dir.join("store"))
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "sraaseg"))
                .count()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);

    // Every reply against the in-process pipeline on the same version.
    let mut by_version: BTreeMap<(usize, (usize, usize)), Vec<&EditIter>> = BTreeMap::new();
    for it in &log {
        by_version.entry((it.module, it.version)).or_default().push(it);
    }
    for ((m, (f, v)), its) in by_version {
        let l = local(&corpus::edit(&modules[m].source, f, v))?;
        let text = render_eval(&l.module, &l.lt);
        for it in its {
            for (p1, p2, got) in &it.queries {
                let want = l.no_alias("work", *p1, *p2);
                pass.pairs += 1;
                match got {
                    Ok(Some(v)) if Some(*v) == want => pass.no_alias += *v as u64,
                    Ok(v) => pass.fail(format!("no-alias work {p1} {p2}: {v:?} vs {want:?}")),
                    Err(e) => pass.fail(e.clone()),
                }
            }
            match &it.eval {
                Ok(Some(t)) if *t == text => {}
                Ok(_) => pass.fail(format!(
                    "eval of {} {:?} differs from render_eval",
                    modules[m].name,
                    (f, v)
                )),
                Err(e) => pass.fail(e.clone()),
            }
        }
    }

    let hits = counts.get("core.summary_hits").copied().unwrap_or(0.0);
    let summary_all = hits
        + counts.get("core.summary_misses").copied().unwrap_or(0.0)
        + counts.get("core.summary_invalidated").copied().unwrap_or(0.0);
    let store_hits = counts.get("store.hits").copied().unwrap_or(0.0);
    let store_all = store_hits + counts.get("store.misses").copied().unwrap_or(0.0);
    pass.layer.extend(counts);
    pass.layer.insert("core.summary_hit_ratio", hits / summary_all.max(1.0));
    pass.layer.insert("store.hit_ratio", store_hits / store_all.max(1.0));
    pass.layer.insert("store.segments", segments as f64);
    pass.layer.insert("core.query_repeat_share", 0.0);

    // The gated figure: re-uploads of a version the store has seen.
    pass.op(&repeat_upload_us, "upload_ms", "version seen before");
    pass.named("upload_ms_p50 (new version)", percentile(&fresh_upload_us, 50.0) / 1e3, "ms");
    pass.named("upload_ms_p90 (new version)", percentile(&fresh_upload_us, 90.0) / 1e3, "ms");
    pass.named("new_version_samples", fresh_upload_us.len() as f64, "count");
    pass.bulk(&eval_ms, "eval_ms", "right after a re-upload");
    pass.named("eval_ms_p90", percentile(&eval_ms, 90.0), "ms");
    pass.named("query_us_p50", percentile(&query_us, 50.0), "us");
    pass.named("query_us_p99", percentile(&query_us, 99.0), "us");
    Ok(pass)
}

/// Cold in-process replay of what the daemon does on upload, layer by
/// layer: an upper bound on each layer's share, since the daemon reuses
/// cached summaries.
fn replay_upload(tr: &mut Tracer, source: &str, counts: &mut BTreeMap<&'static str, f64>) {
    let Ok(prog) = tr.span("minic.parse", |_| sraa_minic::parse_program(source)) else { return };
    let Ok(mut m) = tr.span("minic.lower", |_| sraa_minic::lower_program(&prog)) else { return };
    if tr.span("ir.verify", |_| sraa_ir::verify(&m)).is_err() {
        return;
    }
    *counts.entry("minic.bytes").or_default() += source.len() as f64;
    *counts.entry("ir.insts").or_default() += crate::batch::insts(&m);
    let (ranges, es) = tr.span("essa.transform", |_| sraa_essa::transform_module(&mut m));
    *counts.entry("essa.insts").or_default() += crate::batch::insts(&m);
    *counts.entry("essa.copies").or_default() += (es.sigma_copies + es.sub_splits) as f64;
    let engine = tr.span("core.build", |_| {
        DisambiguationEngine::on_prepared(&m, &ranges, EngineConfig::default().with_summaries())
    });
    crate::add_solve_stats(counts, engine.stats(), true);
    let lt = StrictInequalityAa::from_engine(engine);
    // `render_eval`'s public parts, one span each.
    tr.span("alias.render_eval", |tr| {
        let ba = tr.span("alias.basic", |_| BasicAliasAnalysis::new(&m));
        let cf = tr.span("alias.andersen", |_| AndersenAnalysis::new(&m));
        let st = tr.span("alias.steensgaard", |_| SteensgaardAnalysis::new(&m));
        let pt = tr.span("alias.pentagon", |_| PentagonAa::on_prepared(&m));
        let ba2 = tr.span("alias.basic", |_| BasicAliasAnalysis::new(&m));
        let ba_lt = Combined::new(vec![Box::new(ba2), Box::new(lt.clone())]);
        let analyses: Vec<&dyn AliasAnalysis> = vec![&ba, &lt, &cf, &st, &pt, &ba_lt];
        std::hint::black_box(tr.span("alias.lt_eval", |_| AaEval::run(&m, &analyses)));
    });
}
