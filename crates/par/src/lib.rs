//! `transform-par` — the parallel synthesis orchestrator.
//!
//! The TransForm paper reports synthesis runtimes up to its one-week
//! timeout on the Alloy/Kodkod/MiniSat stack; the sequential engine in
//! [`transform_synth`] is the same single-threaded architecture. This
//! crate distributes that engine across worker threads while reproducing
//! its output *exactly*: for any worker count, the synthesized suite is
//! byte-identical to the sequential one, and every work counter aggregates
//! losslessly. The sequential engine stays in [`transform_synth`] as the
//! independent oracle the tests compare against.
//!
//! # Pipeline
//!
//! The paper's Fig. 7 engine factors into three phases (see
//! [`transform_synth::engine`]); this crate fuses the first two into one
//! streaming pool:
//!
//! 1. **Plan ∥ Examine** — the program space is split by *root shape*
//!    (the first thread's shape) into independently enumerable
//!    partitions ([`transform_synth::programs::EnumSpace`]); partitions
//!    are pool tasks alongside examine batches, so workers generate,
//!    canonically key, and examine programs concurrently ([`stream`]).
//!    Partitions are *admitted* strictly in ordinal order through a
//!    dedup frontier — the same first-occurrence scan the sequential
//!    planner runs — so plan indices never depend on scheduling. Each
//!    examine batch runs on one multi-axiom
//!    [`transform_synth::Examiner`]; with the
//!    [`SynthBackend::Relational`] backend that examiner owns one
//!    incremental SAT solver per axiom (`tsat` solving under
//!    assumptions) serving every program in the batch, and batch
//!    granularity autotunes to the observed examination rate. Workers
//!    claim emitted ELT keys in a concurrent streaming dedup set
//!    ([`dedup::KeySet`]) as results stream in.
//! 2. **Merge** — per-item results are re-ordered by plan index and
//!    stitched into the suite; per-batch counters are kept and summed
//!    losslessly.
//!
//! One [`Run`] covers one axiom or many: the synthesis plan and
//! candidate generation are axiom-independent, so a run enumerates
//! every partition once and queues each admitted chunk as one examine
//! batch, examined once per program for every axiom — no shared plan is
//! materialized before workers start, and every axiom's
//! [`SuiteSink::run_done`] fires when the last chunk retires (the
//! per-axiom seal + push-on-seal hook). There is one partition per root
//! shape and no finer split; each partition's mass — the exact
//! shape-combination node count of its subtree — drives progress and
//! the ETA ([`EnumSpace::masses`]).
//!
//! Determinism holds because every per-item examination is a pure
//! function of the item: candidate executions are examined in a canonical
//! order rather than backend generation order, so not even shared-solver
//! learning can change which witness a program contributes.
//!
//! # Examples
//!
//! ```
//! use transform_core::spec::parse_mtm;
//! use transform_par::Run;
//! use transform_synth::SynthOptions;
//!
//! let mtm = parse_mtm(
//!     "mtm x86t_elt {
//!        axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
//!      }",
//! ).expect("spec parses");
//! let mut opts = SynthOptions::new(4);
//! opts.enumeration.allow_fences = false;
//! opts.enumeration.allow_rmw = false;
//! let sequential = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &opts);
//! let parallel = Run::new(&mtm, &["sc_per_loc"], &opts, 4).collect();
//! assert_eq!(sequential.elts.len(), parallel["sc_per_loc"].elts.len());
//! ```

#![deny(missing_docs)]

pub mod dedup;
pub mod progress;
pub mod stream;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use transform_core::axiom::Mtm;
use transform_synth::programs::EnumSpace;
use transform_synth::{ShardStats, Suite, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt};

pub use progress::{
    AxiomSnapshot, AxiomState, JournalEvent, JournalEventKind, ProgressSnapshot, ProgressState,
};
pub use stream::StreamMetrics;

/// The machine's available parallelism (the `--jobs` default).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The enumeration space of a run: [`EnumSpace::new`]; `jobs` is
/// ignored. It exists only for eltbench's traced replay, which calls
/// it; the pipeline calls [`EnumSpace::new`] directly.
pub fn space_for(opts: &SynthOptions, _jobs: usize) -> EnumSpace {
    EnumSpace::new(&opts.enumeration)
}

/// Receives a suite's members as parallel shards finish, instead of the
/// orchestrator collecting them in memory.
///
/// A run has one sink per axiom; each examined chunk reports one shard
/// to every axiom's sink. The persistent suite store
/// (`transform-store`) implements this with an in-memory spool that
/// its seal encodes into the sealed entry; a collecting
/// implementation reproduces the in-memory [`Suite`]. Calls arrive from
/// worker threads in completion order — implementations must be
/// thread-safe, and must not assume record indices arrive sorted. Every
/// shard of a run is reported exactly once, including shards cut short
/// by the deadline (their counters are partial, and the run's
/// [`SuiteStats::timed_out`] is set).
pub trait SuiteSink: Sync {
    /// One shard retired: its work counters and the suite members
    /// (witness-bearing plan items) it produced.
    fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>);

    /// The run finished: called exactly once per synthesis run, after
    /// the final [`SuiteSink::shard_done`], with the run's aggregated
    /// counters. The default does nothing.
    ///
    /// This is the push-on-seal hook for tiered caches: a sink that
    /// streams shards into a pending store entry learns here whether the
    /// run completed (`stats.timed_out == false`) and can arrange for
    /// the sealed artifact to be published to a remote cache tier —
    /// timed-out runs are never sealed, hence never pushed.
    fn run_done(&self, _stats: &SuiteStats) {}
}

/// A [`SuiteSink`] that collects records in memory — the sink behind
/// [`Run::collect`].
struct CollectSink {
    records: Mutex<Vec<SuiteRecord>>,
}

impl CollectSink {
    fn new() -> CollectSink {
        CollectSink {
            records: Mutex::new(Vec::new()),
        }
    }

    fn into_elts(self) -> Vec<SynthesizedElt> {
        let mut records = self
            .records
            .into_inner()
            .expect("record lock is never poisoned");
        records.sort_by_key(|r| r.index);
        records.into_iter().map(|r| r.elt).collect()
    }
}

impl SuiteSink for CollectSink {
    fn shard_done(&self, _stats: ShardStats, records: Vec<SuiteRecord>) {
        self.records
            .lock()
            .expect("record lock is never poisoned")
            .extend(records);
    }
}

/// One synthesis request — the crate's single entry point.
///
/// A run synthesizes the per-axiom suites of `axioms` (one or many) in
/// one fused streamed pipeline on `jobs` workers. For any `jobs`, every
/// suite (programs, order, witnesses) is byte-identical to
/// [`transform_synth::synthesize_suite`], and the
/// `executions`/`forbidden`/`minimal` counters sum to the same totals;
/// only the per-shard breakdown and wall-clock differ. With a timeout,
/// the budget covers the whole run; a run whose schedule fully retired
/// before the expiry stays complete, and each suite's `elapsed` reports
/// the shared run's wall-clock at completion.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    /// The model whose axioms are synthesized.
    pub mtm: &'a Mtm,
    /// The axioms to synthesize, each a member of `mtm`.
    pub axioms: &'a [&'a str],
    /// Enumeration bound, backend, timeout, and batch granularity.
    pub opts: &'a SynthOptions,
    /// Worker threads (`0` is treated as `1`).
    pub jobs: usize,
    /// Live telemetry: the run publishes partitions and subtree mass
    /// retired, programs admitted, and per-axiom batch/item/ELT counts
    /// into this state ([`progress`] has the full inventory). It may
    /// track more axioms than the run covers (the tiered store passes
    /// its caller's state, with cache-served axioms already marked
    /// [`AxiomState::Cached`]); the run binds its own axioms by name.
    /// Observation is lock-free sampling and never changes a result.
    pub progress: Option<&'a Arc<ProgressState>>,
}

impl<'a> Run<'a> {
    /// An unobserved run.
    pub fn new(mtm: &'a Mtm, axioms: &'a [&'a str], opts: &'a SynthOptions, jobs: usize) -> Self {
        Run {
            mtm,
            axioms,
            opts,
            jobs,
            progress: None,
        }
    }

    /// Runs the pipeline, streaming every retired batch into every
    /// axiom's sink (`sinks[i]` receives `axioms[i]`) instead of collecting
    /// members in memory. Returns the per-axiom counters in `axioms`
    /// order and the run's scheduling metrics; the suites live wherever
    /// the sinks put them. Sorting an axiom's records by
    /// [`SuiteRecord::index`] recovers its byte-identical sequential
    /// suite.
    ///
    /// # Panics
    ///
    /// Panics when any axiom is not part of `mtm` (or not tracked by
    /// `progress`), or `axioms` and `sinks` disagree in length.
    pub fn stream(&self, sinks: &[&dyn SuiteSink]) -> (Vec<SuiteStats>, StreamMetrics) {
        stream::run_fused(self, sinks)
    }

    /// Runs the pipeline and collects every axiom's suite in memory,
    /// keyed by axiom name.
    ///
    /// # Panics
    ///
    /// As [`Run::stream`].
    pub fn collect(&self) -> BTreeMap<String, Suite> {
        let sinks: Vec<CollectSink> = self.axioms.iter().map(|_| CollectSink::new()).collect();
        let sink_refs: Vec<&dyn SuiteSink> = sinks.iter().map(|s| s as &dyn SuiteSink).collect();
        let (all_stats, _) = self.stream(&sink_refs);
        self.axioms
            .iter()
            .zip(sinks)
            .zip(all_stats)
            .map(|((axiom, sink), stats)| {
                let suite = Suite {
                    axiom: axiom.to_string(),
                    elts: sink.into_elts(),
                    stats,
                };
                (axiom.to_string(), suite)
            })
            .collect()
    }
}
/// Re-exported so callers of the parallel API can name the backend
/// without a direct `transform_synth` dependency.
pub use transform_synth::Backend as SynthBackend;

#[cfg(test)]
mod tests {
    use super::*;
    use transform_core::spec::parse_mtm;

    fn small_mtm() -> Mtm {
        parse_mtm(
            "mtm x86t_elt {
               axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
               axiom invlpg:     acyclic(fr_va | ^po | remap)
             }",
        )
        .expect("spec parses")
    }

    fn opts(bound: usize) -> SynthOptions {
        let mut o = SynthOptions::new(bound);
        o.enumeration.allow_fences = false;
        o.enumeration.allow_rmw = false;
        o
    }

    /// One axiom's suite, collected through a run.
    fn one_suite(mtm: &Mtm, axiom: &str, o: &SynthOptions, jobs: usize) -> Suite {
        Run::new(mtm, &[axiom], o, jobs)
            .collect()
            .remove(axiom)
            .expect("the run covers its axiom")
    }

    /// A run admits exactly the sequential plan at every worker count:
    /// the admitted program count and examined item count match, and
    /// every record carries its sequential plan index.
    #[test]
    fn run_admits_the_sequential_plan() {
        let mtm = small_mtm();
        let o = opts(4);
        let plan = transform_synth::plan_suite(&mtm, "invlpg", &o, None);
        for jobs in [1, 2, 8] {
            let sink = CollectSink::new();
            let (stats, _) = Run::new(&mtm, &["invlpg"], &o, jobs).stream(&[&sink]);
            assert_eq!(stats[0].programs, plan.programs, "jobs {jobs}");
            let items: usize = stats[0].shards.iter().map(|s| s.items).sum();
            assert_eq!(items, plan.items.len(), "jobs {jobs}");
            let records = sink.records.into_inner().unwrap();
            assert!(!records.is_empty(), "jobs {jobs}");
            for r in &records {
                assert_eq!(plan.items[r.index].index, r.index, "jobs {jobs}");
                assert_eq!(r.elt.program, plan.items[r.index].program, "jobs {jobs}");
            }
        }
    }

    #[test]
    fn parallel_suite_matches_sequential_engine() {
        let mtm = small_mtm();
        let o = opts(4);
        let sequential = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &o);
        let parallel = one_suite(&mtm, "sc_per_loc", &o, 4);
        assert_eq!(sequential.elts.len(), parallel.elts.len());
        for (a, b) in sequential.elts.iter().zip(&parallel.elts) {
            assert_eq!(a.program, b.program);
            assert_eq!(a.witness, b.witness);
            assert_eq!(a.violated, b.violated);
        }
        assert_eq!(sequential.stats.executions, parallel.stats.executions);
        assert_eq!(sequential.stats.forbidden, parallel.stats.forbidden);
        assert_eq!(sequential.stats.minimal, parallel.stats.minimal);
        assert_eq!(sequential.stats.programs, parallel.stats.programs);
        // The parallel run actually sharded.
        assert!(parallel.stats.shards.len() > 1);
        let item_sum: usize = parallel.stats.shards.iter().map(|s| s.items).sum();
        assert_eq!(item_sum, sequential.stats.shards[0].items);
    }

    #[test]
    fn pooled_all_matches_per_axiom_suites() {
        let mtm = small_mtm();
        let o = opts(4);
        let pooled = Run::new(&mtm, &["sc_per_loc", "invlpg"], &o, 4).collect();
        assert_eq!(pooled.len(), 2);
        for (axiom, suite) in &pooled {
            let solo = one_suite(&mtm, axiom, &o, 4);
            assert_eq!(suite.elts.len(), solo.elts.len(), "{axiom}");
            for (a, b) in suite.elts.iter().zip(&solo.elts) {
                assert_eq!(a.program, b.program, "{axiom}");
                assert_eq!(a.witness, b.witness, "{axiom}");
                assert_eq!(a.violated, b.violated, "{axiom}");
            }
            assert_eq!(suite.stats.programs, solo.stats.programs);
            assert_eq!(suite.stats.executions, solo.stats.executions);
            assert_eq!(suite.stats.forbidden, solo.stats.forbidden);
            assert_eq!(suite.stats.minimal, solo.stats.minimal);
            assert!(!suite.stats.timed_out);
        }
    }

    #[test]
    fn streamed_sink_reproduces_the_suite() {
        struct TestSink {
            records: Mutex<Vec<SuiteRecord>>,
            shards: Mutex<Vec<ShardStats>>,
            done: Mutex<Vec<SuiteStats>>,
        }
        impl SuiteSink for TestSink {
            fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>) {
                self.shards.lock().unwrap().push(stats);
                self.records.lock().unwrap().extend(records);
            }
            fn run_done(&self, stats: &SuiteStats) {
                self.done.lock().unwrap().push(stats.clone());
            }
        }
        let mtm = small_mtm();
        let o = opts(4);
        let sink = TestSink {
            records: Mutex::new(Vec::new()),
            shards: Mutex::new(Vec::new()),
            done: Mutex::new(Vec::new()),
        };
        let (mut stats, _) = Run::new(&mtm, &["sc_per_loc"], &o, 4).stream(&[&sink]);
        let stats = stats.remove(0);
        let suite = one_suite(&mtm, "sc_per_loc", &o, 4);
        let mut records = sink.records.into_inner().unwrap();
        records.sort_by_key(|r| r.index);
        assert_eq!(records.len(), suite.elts.len());
        for (r, e) in records.iter().zip(&suite.elts) {
            assert_eq!(r.elt.program, e.program);
            assert_eq!(r.elt.witness, e.witness);
            assert_eq!(r.elt.violated, e.violated);
        }
        // Record indices strictly increase after sorting (plan indices
        // are unique), and every shard was reported exactly once.
        assert!(records.windows(2).all(|w| w[0].index < w[1].index));
        assert_eq!(sink.shards.into_inner().unwrap().len(), stats.shards.len());
        assert_eq!(stats.executions, suite.stats.executions);
        assert!(!stats.timed_out);
        // The completion hook fired exactly once, with the final counters.
        let done = sink.done.into_inner().unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].executions, stats.executions);
        assert!(!done[0].timed_out);
    }

    #[test]
    fn expired_deadline_cuts_the_streamed_run_cleanly() {
        let mtm = small_mtm();
        let mut o = opts(6);
        o.timeout = Some(std::time::Duration::ZERO);
        let cut = one_suite(&mtm, "sc_per_loc", &o, 4);
        assert!(cut.stats.timed_out);
        assert!(cut.elts.is_empty());
        // The metrics record the reproducible cut point: nothing past
        // the first partition was planned.
        let (stats, metrics) =
            Run::new(&mtm, &["sc_per_loc"], &o, 4).stream(&[&CollectSink::new()]);
        assert!(stats[0].timed_out);
        assert_eq!(metrics.cut_at_partition, Some(0));
        assert_eq!(stats[0].programs, 0);
    }

    /// The tentpole invariant: journaling is a pure side buffer.
    /// Suites from a journal-recording run are byte-identical to the
    /// sequential engine's at every worker count, and the journal
    /// itself brackets the run with start/end events.
    #[test]
    fn journaled_runs_reproduce_the_sequential_suite_at_any_jobs() {
        let mtm = small_mtm();
        let o = opts(4);
        let reference = transform_synth::synthesize_suite(&mtm, "sc_per_loc", &o);
        for jobs in [1, 2, 4] {
            let progress = std::sync::Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
            let suite = Run {
                progress: Some(&progress),
                ..Run::new(&mtm, &["sc_per_loc"], &o, jobs)
            }
            .collect()
            .remove("sc_per_loc")
            .expect("the run covers its axiom");
            assert_eq!(suite.elts.len(), reference.elts.len(), "jobs {jobs}");
            for (a, b) in suite.elts.iter().zip(&reference.elts) {
                assert_eq!(a.program, b.program, "jobs {jobs}");
                assert_eq!(a.witness, b.witness, "jobs {jobs}");
                assert_eq!(a.violated, b.violated, "jobs {jobs}");
            }
            assert_eq!(suite.stats.executions, reference.stats.executions);
            let events = progress.take_journal();
            assert_eq!(
                events.first().map(|e| e.kind),
                Some(progress::JournalEventKind::RunStart),
                "jobs {jobs}"
            );
            assert_eq!(
                events.last().map(|e| e.kind),
                Some(progress::JournalEventKind::RunEnd),
                "jobs {jobs}"
            );
            // Every retired partition and batch left a span, and
            // timestamps never run backwards within... emission order is
            // per-lock-transition, so they are monotone overall.
            assert!(events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::PartitionRetired));
            assert!(events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::BatchExamined));
            assert!(events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::AxiomComplete));
            assert!(events.windows(2).all(|w| w[0].t_micros <= w[1].t_micros));
        }
    }

    /// A deadline-cut journaled run records the cut event, and the
    /// progress mirror carries the exact retired mass the manifest
    /// persists.
    #[test]
    fn journaled_deadline_cut_records_the_cut_event() {
        let mtm = small_mtm();
        let mut o = opts(6);
        o.timeout = Some(std::time::Duration::ZERO);
        let progress = std::sync::Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
        let suite = Run {
            progress: Some(&progress),
            ..Run::new(&mtm, &["sc_per_loc"], &o, 2)
        }
        .collect()
        .remove("sc_per_loc")
        .expect("the run covers its axiom");
        assert!(suite.stats.timed_out);
        let snap = progress.snapshot();
        assert!(snap.cut_at_partition.is_some());
        let events = progress.take_journal();
        assert!(
            events
                .iter()
                .any(|e| e.kind == progress::JournalEventKind::Cut),
            "cut runs journal their cut point"
        );
        // The retired mass in the snapshot is the sum of the retired
        // partitions' journaled masses — exact, not estimated.
        let journaled: u64 = events
            .iter()
            .filter(|e| e.kind == progress::JournalEventKind::PartitionRetired)
            .map(|e| e.b)
            .sum();
        assert_eq!(snap.mass_retired, journaled);
    }

    #[test]
    fn all_axiom_run_covers_every_axiom() {
        let mtm = small_mtm();
        let axioms: Vec<&str> = mtm.axioms().iter().map(|a| a.name.as_str()).collect();
        let suites = Run::new(&mtm, &axioms, &opts(4), 2).collect();
        assert_eq!(suites.len(), 2);
        assert!(suites.values().all(|s| !s.elts.is_empty()));
        let distinct = transform_synth::unique_union(suites.values()).len();
        let total: usize = suites.values().map(|s| s.elts.len()).sum();
        assert!(distinct <= total);
    }
}
