//! Traced in-process replay of one ELT-synthesis benchmark workload.
//!
//! The end-to-end numbers of the benchmark come from the `transform`
//! binary run as a child process with tracing off. This program gives
//! the per-layer numbers: it replays the workload through the layers'
//! public functions and records a span around each call — layer name,
//! axiom, start, end, parent span, thread — kept in memory and written
//! out as a chrome trace when the replay ends.
//!
//! Every run replays twice, once with spans on and once with spans off
//! (the seed's parity picks which goes first). The two wall-clock times
//! give the tracing overhead, and the two replays' funnel counts must be
//! identical: a count that differs is a failure, not noise.
//!
//! Only the layer calls the benchmark times are used here, so deleting
//! an alternative entry point of the engine never forces an edit of the
//! benchmark.
//!
//! ```text
//! eltbench-trace --workload NAME --bound N --jobs J --backend explicit|relational
//!                [--seal DIR | --read DIR] --seed S --spans-out FILE --listing-out FILE
//! ```
//!
//! `--seal DIR` also writes every suite into a fresh store under `DIR`;
//! `--read DIR` skips synthesis and serves every suite from the sealed
//! store `DIR` instead. The rendered ELT listing (byte-identical to
//! `transform synthesize --out`) goes to `--listing-out`; one JSON object
//! with the metrics goes to stdout.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::time::Instant;
use transform_core::axiom::Mtm;
use transform_litmus::format::print_elt;
use transform_par::{space_for, SuiteSink};
use transform_store::{read_suite, suite_fingerprint, EntryMeta, Store};
use transform_synth::canon::canonical_key;
use transform_synth::execs::executions;
use transform_synth::minimal::is_minimal;
use transform_synth::{
    plan_from_keyed, Backend, Examiner, KeyedProgram, ShardStats, SuiteRecord, SuiteStats,
    SynthOptions, SynthesizedElt,
};
use transform_x86::x86t_elt;
use tsat::SolverStats;

/// One timed call into a layer.
#[derive(Clone, Debug)]
struct Span<'a> {
    id: u32,
    /// The span that caused this one (`None` for the replay's root).
    parent: Option<u32>,
    /// The layer, as named in the benchmark's per-layer metrics.
    name: &'static str,
    /// The axiom a per-axiom call works for (`""` otherwise).
    axiom: &'a str,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The time origin and span ids shared by every thread of one replay.
/// With `on == false` a span is a plain call: no clock reads, no records.
struct Clock {
    on: bool,
    epoch: Instant,
    next_id: AtomicU32,
}

impl Clock {
    fn new(on: bool) -> Clock {
        Clock {
            on,
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a replay lasts less than 584 years")
    }
}

/// A span that has started and not yet ended.
struct Open<'a> {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    axiom: &'a str,
    start_ns: u64,
}

/// One thread's spans, kept in memory until the replay ends.
struct Recorder<'c, 'a> {
    clock: &'c Clock,
    thread: u32,
    spans: Vec<Span<'a>>,
}

impl<'c, 'a> Recorder<'c, 'a> {
    fn new(clock: &'c Clock, thread: u32) -> Recorder<'c, 'a> {
        Recorder {
            clock,
            thread,
            spans: Vec::new(),
        }
    }

    fn open(&self, name: &'static str, axiom: &'a str, parent: Option<u32>) -> Option<Open<'a>> {
        self.clock.on.then(|| Open {
            // Ids only need to be unique; they publish no other data.
            id: self.clock.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            axiom,
            start_ns: self.clock.now_ns(),
        })
    }

    fn close(&mut self, open: Option<Open<'a>>) {
        if let Some(o) = open {
            self.spans.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                axiom: o.axiom,
                thread: self.thread,
                start_ns: o.start_ns,
                end_ns: self.clock.now_ns(),
            });
        }
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    fn call<T>(
        &mut self,
        name: &'static str,
        axiom: &'a str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, axiom, parent);
        let out = f();
        self.close(open);
        out
    }
}

/// What one workload replays.
#[derive(Clone, Debug)]
struct Config {
    workload: String,
    bound: usize,
    jobs: usize,
    backend: Backend,
    mode: Mode,
}

#[derive(Clone, Debug)]
enum Mode {
    /// Enumerate and examine.
    Synthesize,
    /// Serve every suite from a store the `transform` binary sealed.
    Read { store: PathBuf },
}

impl Config {
    /// The options `transform synthesize --bound N --fences --rmw
    /// [--backend B]` runs with — the store fingerprints depend on them.
    fn options(&self) -> SynthOptions {
        let mut opts = SynthOptions::new(self.bound);
        opts.enumeration.allow_fences = true;
        opts.enumeration.allow_rmw = true;
        opts.backend = self.backend;
        opts
    }
}

/// The result of one replay.
struct Replay<'a> {
    spans: Vec<Span<'a>>,
    /// Work counts; they must repeat exactly across replays.
    counts: BTreeMap<String, u64>,
    /// The ELT listing, exactly as `transform synthesize --out` writes it.
    listing: String,
    wall_s: f64,
}

/// Replays `cfg` once. `store_dir` is where a sealing replay writes its
/// fresh store.
fn replay<'m>(
    cfg: &Config,
    mtm: &'m Mtm,
    spans_on: bool,
    store_dir: Option<&Path>,
) -> Result<Replay<'m>, String> {
    let start = Instant::now();
    let clock = Clock::new(spans_on);
    let mut rec = Recorder::new(&clock, 0);
    let root = rec.open("replay", "", None);
    let root_id = root.as_ref().map(|o| o.id);
    let mut counts = BTreeMap::new();
    let suites = match &cfg.mode {
        Mode::Synthesize => synthesize(cfg, mtm, &mut rec, root_id, &mut counts, store_dir)?,
        Mode::Read { store } => read_store(cfg, mtm, store, &mut rec, root_id, &mut counts)?,
    };
    let mut listing = String::new();
    for &(axiom, ref elts) in &suites {
        for (i, elt) in elts.iter().enumerate() {
            let text = rec.call("render", axiom, root_id, || {
                print_elt(&format!("{axiom}_{i}"), &elt.witness)
            });
            listing.push_str(&text);
            listing.push('\n');
        }
    }
    counts.insert("render.bytes".into(), listing.len() as u64);
    rec.close(root);
    Ok(Replay {
        spans: rec.spans,
        counts,
        listing,
        wall_s: start.elapsed().as_secs_f64(),
    })
}

/// Per axiom, in the MTM's order: the suite's members.
type Suites<'m> = Vec<(&'m str, Vec<SynthesizedElt>)>;

fn synthesize<'m>(
    cfg: &Config,
    mtm: &'m Mtm,
    rec: &mut Recorder<'_, 'm>,
    root: Option<u32>,
    counts: &mut BTreeMap<String, u64>,
    store_dir: Option<&Path>,
) -> Result<Suites<'m>, String> {
    let opts = cfg.options();
    let space = rec.call("programs.plan", "", root, || space_for(&opts, cfg.jobs));
    counts.insert("programs.partitions".into(), space.partition_count() as u64);
    counts.insert("programs.nodes".into(), space.total_mass());

    // Partitions are handed out in ordinal order to `jobs` threads, as
    // the engine's pool does, and gathered back by ordinal.
    let next = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<KeyedProgram>)> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.jobs.max(1))
            .map(|thread| {
                let (space, next, clock) = (&space, &next, rec.clock);
                scope.spawn(move || {
                    let mut wrec = Recorder::new(clock, thread as u32 + 1);
                    let mut done = Vec::new();
                    loop {
                        let ordinal = next.fetch_add(1, Ordering::Relaxed);
                        if ordinal >= space.partition_count() {
                            break;
                        }
                        let keyed =
                            wrec.call("programs.enum", "", root, || space.enumerate_keyed(ordinal));
                        done.push((ordinal, keyed));
                    }
                    (done, wrec.spans)
                })
            })
            .collect();
        for worker in workers {
            let (done, spans) = worker.join().expect("enumeration worker panicked");
            parts.extend(done);
            rec.spans.extend(spans);
        }
    });
    parts.sort_by_key(|&(ordinal, _)| ordinal);
    let keyed: Vec<KeyedProgram> = parts.into_iter().flat_map(|(_, k)| k).collect();
    counts.insert("programs.emitted".into(), keyed.len() as u64);

    for kp in &keyed {
        let key = rec.call("canon.key", "", root, || canonical_key(&kp.program));
        black_box(key);
    }
    counts.insert("canon.keys".into(), keyed.len() as u64);

    // The dedup frontier: first occurrence of each write-bearing key, in
    // enumeration order (partition-local symmetry keys of write-free
    // programs never become plan items).
    let first_axiom = &mtm.axioms()[0].name;
    let plan = rec.call("dedup", "", root, || {
        let keyed = keyed
            .into_iter()
            .map(|kp| {
                let key = kp.key.filter(|_| kp.has_write);
                (kp.program, key)
            })
            .collect();
        plan_from_keyed(mtm, first_axiom, keyed, false)
    });
    counts.insert("dedup.unique".into(), plan.items.len() as u64);

    if cfg.backend == Backend::Explicit {
        funnel(mtm, &plan.items, plan.branch_co_pa, rec, root, counts);
    }

    let store = store_dir
        .map(|dir| Store::open(dir).map_err(|e| format!("store `{}`: {e}", dir.display())))
        .transpose()?;
    let examine_span = match cfg.backend {
        Backend::Explicit => "examine",
        Backend::Relational => "sat",
    };
    let mut sat = SolverStats::default();
    let mut suites = Vec::new();
    for ax in mtm.axioms() {
        let axiom = ax.name.as_str();
        let mut examiner = Examiner::new(mtm, axiom, cfg.backend, plan.branch_co_pa);
        let mut shard = ShardStats::new(0);
        let mut records = Vec::new();
        for item in &plan.items {
            let examined = rec.call(examine_span, axiom, root, || {
                examiner.examine(&item.program)
            });
            shard.absorb(&examined);
            if let Some((witness, violated)) = examined.witness {
                records.push(SuiteRecord {
                    index: item.index,
                    elt: SynthesizedElt {
                        program: item.program.clone(),
                        witness,
                        violated,
                    },
                });
            }
        }
        counts.insert(
            format!("examine.{axiom}.executions"),
            shard.executions as u64,
        );
        counts.insert(format!("examine.{axiom}.elts"), records.len() as u64);
        if let Some(stats) = examiner.solver_stats() {
            sat.absorb(&stats);
        }
        if let Some(store) = &store {
            let fp = suite_fingerprint(mtm, axiom, &opts);
            let sealed = rec.call("store.seal", axiom, root, || {
                let pending = store.begin(fp, EntryMeta::describe(mtm, axiom, &opts))?;
                pending.shard_done(shard, records.clone());
                pending.seal(&SuiteStats::from_shards(plan.programs, vec![shard]))
            });
            sealed.map_err(|e| format!("sealing `{axiom}`: {e}"))?;
            let bytes = std::fs::metadata(store.entry_path(fp))
                .map_err(|e| format!("sealed `{axiom}` entry: {e}"))?
                .len();
            *counts.entry("store.entry_bytes".into()).or_default() += bytes;
        }
        suites.push((axiom, records.into_iter().map(|r| r.elt).collect()));
    }
    if cfg.backend == Backend::Relational {
        counts.insert("sat.conflicts".into(), sat.conflicts);
        counts.insert("sat.decisions".into(), sat.decisions);
        counts.insert("sat.solve_calls".into(), sat.solve_calls);
    }
    Ok(suites)
}

/// The explicit backend's per-candidate layers, called directly once per
/// plan item: every candidate execution is generated, analyzed and
/// evaluated against the whole MTM, and every forbidden one is checked
/// for minimality. All but the minimality checks is work each per-axiom
/// examiner repeats.
fn funnel<'m>(
    mtm: &'m Mtm,
    items: &[transform_synth::WorkItem],
    branch_co_pa: bool,
    rec: &mut Recorder<'_, 'm>,
    root: Option<u32>,
    counts: &mut BTreeMap<String, u64>,
) {
    let (mut candidates, mut analyzed, mut forbidden, mut checks) = (0u64, 0u64, 0u64, 0u64);
    for item in items {
        let xs = rec.call("execs", "", root, || {
            executions(&item.program.to_skeleton(), branch_co_pa)
        });
        candidates += xs.len() as u64;
        for x in &xs {
            let Ok(analysis) = rec.call("analyze", "", root, || x.analyze()) else {
                continue;
            };
            analyzed += 1;
            let verdict = rec.call("evaluate", "", root, || mtm.evaluate(&analysis));
            if verdict.is_permitted() {
                continue;
            }
            forbidden += 1;
            black_box(rec.call("minimal", "", root, || is_minimal(x, mtm)));
            checks += 1;
        }
    }
    counts.insert("execs.candidates".into(), candidates);
    counts.insert("analyze.ok".into(), analyzed);
    counts.insert("evaluate.forbidden_any".into(), forbidden);
    counts.insert("minimal.checks".into(), checks);
}

fn read_store<'m>(
    cfg: &Config,
    mtm: &'m Mtm,
    dir: &Path,
    rec: &mut Recorder<'_, 'm>,
    root: Option<u32>,
    counts: &mut BTreeMap<String, u64>,
) -> Result<Suites<'m>, String> {
    let opts = cfg.options();
    let store = Store::open(dir).map_err(|e| format!("store `{}`: {e}", dir.display()))?;
    let mut suites = Vec::new();
    let mut records = 0u64;
    for ax in mtm.axioms() {
        let axiom = ax.name.as_str();
        let fp = suite_fingerprint(mtm, axiom, &opts);
        let suite = rec
            .call("store.read", axiom, root, || {
                store.open_suite(fp).and_then(read_suite)
            })
            .map_err(|e| format!("reading `{axiom}` from `{}`: {e}", dir.display()))?;
        records += suite.elts.len() as u64;
        counts.insert(format!("examine.{axiom}.elts"), suite.elts.len() as u64);
        suites.push((axiom, suite.elts));
    }
    counts.insert("store.records".into(), records);
    Ok(suites)
}

/// Per-layer metrics of a spans-on replay, plus the replays' counts.
///
/// A layer's time is the sum of its spans' self times (duration minus
/// the part covered by child spans).
fn layer_metrics(cfg: &Config, on: &Replay<'_>, off_wall_s: f64) -> BTreeMap<String, f64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &on.spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut self_s: BTreeMap<(&str, &str), f64> = BTreeMap::new();
    let mut partition_max_s = 0f64;
    let mut layers_s = 0f64;
    for s in &on.spans {
        let dur_ns = s.end_ns - s.start_ns;
        let own = dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0)) as f64 * 1e-9;
        *self_s.entry((s.name, s.axiom)).or_default() += own;
        if s.name == "programs.enum" {
            partition_max_s = partition_max_s.max(dur_ns as f64 * 1e-9);
        }
        if s.parent.is_some() {
            layers_s += own;
        }
    }
    let layer = |name: &str| -> f64 {
        self_s
            .iter()
            .filter(|((n, _), _)| *n == name)
            .fold(0.0, |sum, (_, v)| sum + v)
    };
    let mut m: BTreeMap<String, f64> = on
        .counts
        .iter()
        .map(|(k, &v)| (k.clone(), v as f64))
        .collect();
    for (metric, span) in [
        ("programs.plan_s", "programs.plan"),
        ("programs.enum_s", "programs.enum"),
        ("canon.key_s", "canon.key"),
        ("dedup.s", "dedup"),
        ("execs.s", "execs"),
        ("analyze.s", "analyze"),
        ("evaluate.s", "evaluate"),
        ("minimal.s", "minimal"),
        ("store.seal_s", "store.seal"),
        ("store.read_s", "store.read"),
        ("render.s", "render"),
    ] {
        m.insert(metric.into(), layer(span));
    }
    m.insert("programs.partition_max_s".into(), partition_max_s);
    for (&(name, axiom), &secs) in &self_s {
        if name == "examine" || name == "sat" {
            m.insert(format!("{name}.{axiom}.s"), secs);
        }
    }
    let examine_total = layer("examine") + layer("sat");
    // What every per-axiom examiner recomputes identically: candidate
    // generation, analysis, and the verdict of the whole MTM.
    let shared = layer("execs") + layer("analyze") + layer("evaluate");
    m.insert("examine.total_s".into(), examine_total);
    m.insert("examine.shared_s".into(), shared);
    if shared > 0.0 {
        m.insert("examine.repeat_ratio".into(), examine_total / shared);
    }
    if let (Some(&unique), Some(&emitted)) = (
        on.counts.get("dedup.unique"),
        on.counts.get("programs.emitted"),
    ) {
        if emitted > 0 {
            m.insert(
                "dedup.unique_per_emitted".into(),
                unique as f64 / emitted as f64,
            );
        }
    }
    let jobs = cfg.jobs.max(1) as f64;
    m.insert("par.efficiency".into(), layers_s / (jobs * off_wall_s));
    m.insert(
        "par.critical_s".into(),
        partition_max_s.max(layer("programs.enum") / jobs),
    );
    m.insert("trace.on_s".into(), on.wall_s);
    m.insert("trace.off_s".into(), off_wall_s);
    m.insert(
        "trace.overhead_pct".into(),
        (on.wall_s - off_wall_s) / off_wall_s * 100.0,
    );
    m
}

/// The spans as a chrome trace (`chrome://tracing`, Perfetto).
fn chrome_trace(workload: &str, spans: &[Span<'_>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let name = if s.axiom.is_empty() {
            s.name.to_string()
        } else {
            format!("{}.{}", s.name, s.axiom)
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}{{\"name\":\"{name}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{parent}}}}}",
            if i == 0 { "" } else { "," },
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
        );
    }
    out.push_str("]}\n");
    out
}

struct Args {
    cfg: Config,
    /// Where a synthesizing replay seals its suites (one fresh store per
    /// replay below this directory); `None` seals nothing.
    seal: Option<PathBuf>,
    seed: u64,
    spans_out: PathBuf,
    listing_out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let number = |flag: &str, v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("{flag} must be a number"))
    };
    let workload = take("--workload")?.to_string();
    let bound = number("--bound", take("--bound")?)? as usize;
    let jobs = number("--jobs", take("--jobs")?)?.max(1) as usize;
    let backend = match take("--backend")? {
        "explicit" => Backend::Explicit,
        "relational" => Backend::Relational,
        other => return Err(format!("unknown --backend `{other}`")),
    };
    let seed = number("--seed", take("--seed")?)?;
    let spans_out = PathBuf::from(take("--spans-out")?);
    let listing_out = PathBuf::from(take("--listing-out")?);
    let seal = take("--seal").ok().map(PathBuf::from);
    let mode = match take("--read").ok() {
        Some(_) if seal.is_some() => return Err("--seal and --read are mutually exclusive".into()),
        Some(dir) => Mode::Read { store: dir.into() },
        None => Mode::Synthesize,
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args {
        cfg: Config {
            workload,
            bound,
            jobs,
            backend,
            mode,
        },
        seal,
        seed,
        spans_out,
        listing_out,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let mtm = x86t_elt();
    let cfg = &args.cfg;
    let store_dir = |tag: &str| args.seal.as_ref().map(|dir| dir.join(tag));
    let (on_dir, off_dir) = (store_dir("spans-on"), store_dir("spans-off"));
    // Alternate which replay runs first (and so warms up the other) by
    // the seed's parity, so the overhead has no sign bias over seeds.
    let (on, off) = if args.seed.is_multiple_of(2) {
        let on = replay(cfg, &mtm, true, on_dir.as_deref())?;
        (on, replay(cfg, &mtm, false, off_dir.as_deref())?)
    } else {
        let off = replay(cfg, &mtm, false, off_dir.as_deref())?;
        (replay(cfg, &mtm, true, on_dir.as_deref())?, off)
    };
    let mismatches: Vec<String> = on
        .counts
        .keys()
        .chain(off.counts.keys())
        .filter(|k| on.counts.get(*k) != off.counts.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", on.counts.get(k), off.counts.get(k)))
        .collect();
    if on.listing != off.listing {
        return Err("the two replays rendered different listings".into());
    }
    std::fs::write(&args.listing_out, &on.listing)
        .map_err(|e| format!("cannot write {}: {e}", args.listing_out.display()))?;
    std::fs::write(&args.spans_out, chrome_trace(&cfg.workload, &on.spans))
        .map_err(|e| format!("cannot write {}: {e}", args.spans_out.display()))?;
    let metrics = layer_metrics(cfg, &on, off.wall_s);
    let mut json = String::from("{\"counts_repeat\": ");
    json.push_str(if mismatches.is_empty() {
        "true"
    } else {
        "false"
    });
    json.push_str(", \"mismatches\": [");
    for (i, m) in mismatches.iter().enumerate() {
        let _ = write!(json, "{}\"{m}\"", if i == 0 { "" } else { ", " });
    }
    json.push_str("], \"metrics\": {");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let _ = write!(json, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
    }
    json.push_str("}}");
    Ok(json)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| run(&args)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eltbench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(backend: Backend, mode: Mode) -> Config {
        Config {
            workload: "smoke_b4".into(),
            bound: 4,
            jobs: 2,
            backend,
            mode,
        }
    }

    /// The bound-4 smoke test of the traced run: counts repeat across a
    /// spans-on and a spans-off replay, both backends render the same
    /// listing, and a sealed store serves it back byte for byte.
    #[test]
    fn bound4_replay_repeats_and_round_trips() {
        let mtm = x86t_elt();
        let dir = std::env::temp_dir().join(format!("eltbench-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let explicit = config(Backend::Explicit, Mode::Synthesize);
        let on = replay(&explicit, &mtm, true, Some(&dir.join("on"))).expect("spans-on replay");
        let off = replay(&explicit, &mtm, false, Some(&dir.join("off"))).expect("spans-off replay");
        assert_eq!(on.counts, off.counts);
        assert_eq!(on.listing, off.listing);
        assert!(off.spans.is_empty());
        assert!(on.counts["dedup.unique"] > 0 && on.counts["execs.candidates"] > 0);
        assert!(on.listing.starts_with("elt \""), "{}", on.listing);
        for name in [
            "programs.plan",
            "programs.enum",
            "canon.key",
            "dedup",
            "execs",
            "examine",
            "store.seal",
            "render",
        ] {
            assert!(on.spans.iter().any(|s| s.name == name), "no `{name}` span");
        }
        let m = layer_metrics(&explicit, &on, off.wall_s);
        assert!(m["programs.enum_s"] > 0.0 && m["examine.total_s"] > 0.0);

        let relational = config(Backend::Relational, Mode::Synthesize);
        let sat = replay(&relational, &mtm, false, None).expect("relational replay");
        assert_eq!(sat.listing, on.listing);
        assert!(sat.counts["sat.solve_calls"] > 0);

        let read = config(
            Backend::Explicit,
            Mode::Read {
                store: dir.join("on"),
            },
        );
        let served = replay(&read, &mtm, true, None).expect("store replay");
        assert_eq!(served.listing, on.listing);
        assert!(served.spans.iter().any(|s| s.name == "store.read"));
        std::fs::remove_dir_all(&dir).expect("remove test store");
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let clock = Clock::new(true);
        let mut rec = Recorder::new(&clock, 0);
        let root = rec.open("replay", "", None);
        let id = root.as_ref().map(|o| o.id);
        rec.call("render", "sc_per_loc", id, || ());
        rec.close(root);
        let trace = chrome_trace("w", &rec.spans);
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2);
        assert!(trace.contains("\"name\":\"render.sc_per_loc\""));
        assert!(trace.contains("\"parent\":null"));
    }
}
