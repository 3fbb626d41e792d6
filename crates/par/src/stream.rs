//! The fused streaming pipeline: program *generation* runs inside the
//! work-stealing pool, not in front of it — for one axiom or for every
//! axiom of an MTM at once.
//!
//! A two-phase orchestrator (plan everything, then examine) would keep
//! the pool idle behind a single-threaded, memory-hungry enumeration
//! pass. Here the enumeration's prefix partitions ([`EnumSpace`]) are
//! themselves pool tasks: workers alternate between *enumerating* a
//! partition (materializing its programs with canonical keys, computed
//! once) and *examining* a batch of admitted plan items, so SAT and
//! relational solving start while later partitions are still being
//! generated and peak live candidates stay bounded by partition size.
//!
//! # The fused cross-axiom run
//!
//! The synthesis plan is axiom-independent (it keeps write-bearing
//! canonical first occurrences), and so is candidate generation: only
//! the final violation filter depends on the axiom. A multi-axiom run
//! therefore enumerates every partition **once** and queues its
//! admitted items as **one** examine batch, which a multi-axiom
//! [`Examiner`] examines once per program for every axiom; the batch's
//! per-axiom results stream into per-axiom sinks. No shared plan is
//! materialized before workers start, and the moment the last batch
//! retires every axiom's [`SuiteSink::run_done`] fires from the pool
//! (the per-axiom seal + push-on-seal hook).
//!
//! # Determinism
//!
//! Every enumerated program has a stable position `(partition ordinal,
//! offset)` that is a pure function of the space — never of scheduling.
//! Partitions may be *enumerated* out of order, but they are *admitted*
//! strictly in ordinal order through the admitter — the same
//! first-occurrence-per-canonical-key scan the sequential planner runs —
//! so plan indices, dedup outcomes, and therefore every per-axiom suite
//! are byte-identical to the sequential engine at every worker count.
//!
//! # Deadlines
//!
//! A deadline cuts the plan at partition granularity: the first
//! partition whose worker observed the expiry is recorded
//! ([`StreamMetrics::cut_at_partition`]), every partition below it is
//! fully planned, and everything from it on is dropped — a timed-out
//! plan is a well-defined prefix of the deadline-free plan, not a
//! worker-race-dependent subset. The cut is shared by every axiom of a
//! fused run (they examine the same plan). Examination stays
//! best-effort after expiry, exactly like the sequential engine's
//! mid-plan stop — but a run whose whole schedule retired before the
//! expiry stays complete.
//!
//! # Batches
//!
//! Each admitted partition's plan items are queued as exactly one
//! examine batch, so every item in a batch shares its first-thread
//! shape (the prefix affinity that makes relational solver reuse pay).
//! Partitions are small: at bound 6 the 2,584 plan items form 500
//! batches, the largest of 92 items. Batching is pure scheduling: it
//! never changes a suite, and the deadline still cuts mid-batch because
//! [`Examiner::examine_chunk`] polls it before every program.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use transform_core::axiom::Mtm;
use transform_synth::programs::{EnumSpace, KeyedProgram, Program};
use transform_synth::{
    branches_co_pa, Examiner, ShardStats, SuiteRecord, SuiteStats, SynthOptions, SynthesizedElt,
    WorkItem,
};

use crate::progress::{AxiomState, JournalEventKind, ProgressSnapshot, ProgressState};
use crate::{Run, SuiteSink};

/// Scheduling facts of one streamed run — everything the pipeline knows
/// that the (format-frozen) [`SuiteStats`] cannot carry.
///
/// This is the *final snapshot* of the run's [`ProgressState`]
/// ([`StreamMetrics::from_snapshot`]): the pipeline maintains one set
/// of counters, observers sample it live, and the returned metrics are
/// its value after the last worker exits — live telemetry and the final
/// record can never disagree.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamMetrics {
    /// Axioms sharing the run (1 for a single-suite synthesis).
    pub axioms: usize,
    /// Enumeration partitions in the space.
    pub partitions: usize,
    /// First partition cut by the deadline (`None`: enumeration ran to
    /// completion). Everything below it was fully planned.
    pub cut_at_partition: Option<usize>,
    /// Examine batches created — one per partition that admits a plan
    /// item, each examined for every axiom (a deadline cut abandons
    /// queued batches, which stay counted here but produce no shard
    /// stats).
    pub batches: usize,
    /// Peak number of simultaneously materialized candidate programs
    /// (enumerated but not yet examined, or dropped) —
    /// bounded by the lookahead window (twice the worker count) times
    /// the largest partition, not by the size of the enumeration.
    ///
    /// Exact on timed-out runs too: a partition that was materialized
    /// and then discarded by the deadline cut (resolved behind the cut
    /// point, or delivered after expiry) is counted at its moment of
    /// materialization, and the discarded tail leaves the live count
    /// the moment it is dropped.
    pub peak_live_candidates: usize,
}

impl StreamMetrics {
    /// Builds the metrics from a progress snapshot — the identity that
    /// keeps live telemetry and the final record one set of numbers.
    /// `axioms` counts the snapshot's tracked axioms; fused runs over a
    /// subset (the store's cache-miss path) overwrite it with the
    /// number actually run.
    pub fn from_snapshot(snap: &ProgressSnapshot) -> StreamMetrics {
        StreamMetrics {
            axioms: snap.axioms.len(),
            partitions: snap.partitions_total,
            cut_at_partition: snap.cut_at_partition,
            batches: snap.batches,
            peak_live_candidates: snap.peak_live_candidates,
        }
    }
}

/// The deterministic dedup frontier: admits partitions in enumeration
/// order, keeping the first occurrence of each canonical key — exactly
/// the scan [`transform_synth::plan_from_keyed`] runs over the eager
/// enumeration, so admitted items carry the sequential plan's indices.
pub(crate) struct Admitter {
    seen: BTreeSet<Vec<u64>>,
    /// Programs admitted so far (the post-symmetry-reduction enumeration
    /// count — [`SuiteStats::programs`]).
    pub programs: usize,
    next_index: usize,
}

impl Admitter {
    pub fn new() -> Admitter {
        Admitter {
            seen: BTreeSet::new(),
            programs: 0,
            next_index: 0,
        }
    }

    /// Admits one partition's programs, in order; returns the plan items
    /// they contribute (write-bearing first occurrences).
    pub fn admit(&mut self, keyed: Vec<KeyedProgram>) -> Vec<WorkItem> {
        let mut items = Vec::new();
        for kp in keyed {
            // Symmetry reduction across partitions: a later occurrence
            // of a key is not even counted.
            let key = kp.key.expect("enumeration keys every program");
            if !self.seen.insert(key.clone()) {
                continue;
            }
            self.programs += 1;
            if kp.has_write {
                items.push(WorkItem {
                    index: self.next_index,
                    program: kp.program,
                    key,
                });
                self.next_index += 1;
            }
        }
        items
    }
}

/// One admitted partition's plan items, examined for every axiom of the
/// run on one [`Examiner`] (for the relational backend, one incremental
/// solver per axiom). Every item in a batch shares its first-thread
/// shape — the prefix affinity that makes solver reuse pay.
struct Batch {
    shard: usize,
    items: Vec<WorkItem>,
}

/// What one retired batch reports back to the pipeline.
struct Retired {
    /// Items in the batch; all of them leave the live count.
    len: usize,
    /// Per run axiom: items examined and suite members found.
    per_axiom: Vec<(usize, usize)>,
    /// The batch's wall-clock, shared by every axiom it examined.
    elapsed: Duration,
    /// The deadline cut the batch short.
    cut: bool,
}

enum Task {
    Enumerate(usize),
    Examine(Batch),
}

struct State {
    /// Next partition ordinal to hand out.
    next_enum: usize,
    /// Partitions handed out but not yet resolved.
    enumerating: usize,
    /// Enumerated partitions waiting for the frontier (`None` = cut by
    /// the deadline).
    resolved: BTreeMap<usize, Option<Vec<KeyedProgram>>>,
    /// Next ordinal the admitter must process.
    frontier: usize,
    /// First partition the deadline cut, if any.
    cut_at: Option<usize>,
    /// The deadline struck (enumeration cut or examination stopped):
    /// drain everything and let workers exit.
    expired: bool,
    admitter: Admitter,
    exam: VecDeque<Batch>,
    /// Next batch ordinal — the shard id every axiom's stats carry.
    next_shard: usize,
    /// Batches created.
    batches: usize,
    /// Outstanding (created, not yet retired) batches.
    remaining: usize,
    /// A batch was cut mid-way: the run can never complete.
    batch_cut: bool,
    /// The whole schedule retired cleanly (latched).
    complete: bool,
    live: usize,
    peak_live: usize,
    /// Estimated subtree mass of the partitions admitted so far.
    mass_retired: u64,
}

impl State {
    /// No further batches will ever be created: every partition was
    /// admitted and none is still being enumerated.
    fn enum_settled(&self, partition_count: usize) -> bool {
        self.frontier == partition_count && self.enumerating == 0
    }

    /// Whether the whole schedule retired cleanly: enumeration settled
    /// and every batch retired uncut.
    fn schedule_retired(&self, partition_count: usize) -> bool {
        self.enum_settled(partition_count) && self.remaining == 0 && !self.batch_cut
    }

    /// Latches completion once the whole schedule retired; returns
    /// `true` exactly once, so the caller can finish every axiom
    /// (assemble stats, fire `run_done`) outside the lock.
    fn newly_complete(&mut self, partition_count: usize) -> bool {
        if self.complete || !self.schedule_retired(partition_count) {
            return false;
        }
        self.complete = true;
        true
    }
}

struct Pipeline<'s> {
    space: &'s EnumSpace,
    /// The run's live telemetry: published (relaxed stores) from inside
    /// every lock-held transition, sampled lock-free by observers. The
    /// final [`StreamMetrics`] is this state's last snapshot.
    progress: Arc<ProgressState>,
    /// Run-axiom index → progress slot (the observer's state may track
    /// more axioms than this run covers — cache hits, for one).
    slots: Vec<usize>,
    deadline: Option<Instant>,
    /// Lookahead backpressure: partitions may be *enumerated* at most
    /// this far beyond the dedup frontier. Without it, one slow head
    /// partition would let the other workers buffer the entire rest of
    /// the space ahead of the stalled frontier — peak live candidates
    /// would degrade to the full enumeration, exactly what streaming is
    /// meant to avoid. With it, live candidates are bounded by
    /// `window` × the largest partition, independent of the bound.
    window: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl<'s> Pipeline<'s> {
    fn new(
        space: &'s EnumSpace,
        axiom_names: &[&str],
        progress: Option<&Arc<ProgressState>>,
        deadline: Option<Instant>,
        jobs: usize,
    ) -> Self {
        let progress = match progress {
            Some(p) => Arc::clone(p),
            None => Arc::new(ProgressState::new(axiom_names)),
        };
        let slots: Vec<usize> = axiom_names
            .iter()
            .map(|name| {
                progress
                    .slot_of(name)
                    .unwrap_or_else(|| panic!("progress state does not track axiom `{name}`"))
            })
            .collect();
        use std::sync::atomic::Ordering::Relaxed;
        progress
            .partitions_total
            .store(space.partition_count(), Relaxed);
        progress.mass_total.store(space.total_mass(), Relaxed);
        for &slot in &slots {
            progress.set_axiom_state(slot, AxiomState::Running);
        }
        Pipeline {
            space,
            progress,
            slots,
            deadline,
            window: (2 * jobs).max(2),
            state: Mutex::new(State {
                next_enum: 0,
                enumerating: 0,
                resolved: BTreeMap::new(),
                frontier: 0,
                cut_at: None,
                expired: false,
                admitter: Admitter::new(),
                exam: VecDeque::new(),
                next_shard: 0,
                batches: 0,
                remaining: 0,
                batch_cut: false,
                complete: false,
                live: 0,
                peak_live: 0,
                mass_retired: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Mirrors the lock-held state into the progress atomics — called
    /// at the end of every state transition, while the lock is still
    /// held, so published counters advance in the same order the state
    /// does (each one individually monotone). Relaxed stores: observers
    /// only sample, they never synchronize with the run.
    fn publish(&self, st: &State) {
        use std::sync::atomic::Ordering::Relaxed;
        let p = &self.progress;
        p.partitions_retired.store(st.frontier, Relaxed);
        p.mass_retired.store(st.mass_retired, Relaxed);
        p.programs.store(st.admitter.programs, Relaxed);
        p.items_planned.store(st.admitter.next_index, Relaxed);
        p.frontier_depth.store(st.resolved.len(), Relaxed);
        p.live_candidates.store(st.live, Relaxed);
        p.peak_live_candidates.store(st.peak_live, Relaxed);
        p.batches.store(st.batches, Relaxed);
        if let Some(cut) = st.cut_at {
            p.cut_at_partition.store(cut, Relaxed);
        }
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    /// The count of admitted (post-symmetry-reduction) programs — final
    /// once enumeration settles, which is a precondition of any axiom
    /// completing.
    fn programs(&self) -> usize {
        self.state
            .lock()
            .expect("pipeline lock is never poisoned")
            .admitter
            .programs
    }

    /// The next unit of work, examination first (it frees live
    /// candidates; enumeration creates them). `None` once nothing can
    /// produce further work.
    fn next_task(&self) -> Option<Task> {
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        loop {
            if let Some(batch) = st.exam.pop_front() {
                return Some(Task::Examine(batch));
            }
            if !st.expired
                && st.next_enum < self.space.partition_count()
                && st.next_enum < st.frontier + self.window
            {
                let ord = st.next_enum;
                st.next_enum += 1;
                st.enumerating += 1;
                return Some(Task::Enumerate(ord));
            }
            let enumeration_settled = st.expired || st.enum_settled(self.space.partition_count());
            if enumeration_settled && st.exam.is_empty() {
                return None;
            }
            st = self.cv.wait(st).expect("pipeline lock is never poisoned");
        }
    }

    /// One partition's outcome: its programs, or `None` when its worker
    /// saw the deadline expired before enumerating it. Returns whether
    /// this completes the run (an empty plan completes the moment the
    /// last partition is admitted).
    fn resolve(&self, ordinal: usize, outcome: Option<Vec<KeyedProgram>>) -> bool {
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        st.enumerating -= 1;
        if let Some(keyed) = &outcome {
            self.progress.record(
                JournalEventKind::PartitionEnumerated,
                None,
                ordinal as u64,
                keyed.len() as u64,
                0,
            );
        }
        if st.expired {
            // Everything past the cut is discarded — but this partition
            // *was* materialized, so it still counts toward the peak
            // (the whole point of `peak_live_candidates` is memory
            // pressure, and these programs existed).
            if let Some(keyed) = &outcome {
                st.peak_live = st.peak_live.max(st.live + keyed.len());
            }
            self.publish(&st);
            self.cv.notify_all();
            return false;
        }
        if let Some(keyed) = &outcome {
            st.live += keyed.len();
            st.peak_live = st.peak_live.max(st.live);
        }
        st.resolved.insert(ordinal, outcome);
        // Advance the frontier: admit in strict ordinal order.
        while let Some(entry) = {
            let frontier = st.frontier;
            st.resolved.remove(&frontier)
        } {
            match entry {
                None => {
                    // The deadline's cut reached the frontier: the plan
                    // ends here, reproducibly — for every axiom at once.
                    st.cut_at = Some(st.frontier);
                    self.progress
                        .record(JournalEventKind::Cut, None, st.frontier as u64, 0, 0);
                    Self::expire(&mut st);
                    break;
                }
                Some(keyed) => {
                    let delivered = keyed.len();
                    let items = st.admitter.admit(keyed);
                    st.live -= delivered - items.len(); // dropped by dedup
                    let mass = self.space.masses()[st.frontier];
                    st.mass_retired = st.mass_retired.saturating_add(mass);
                    self.progress.record(
                        JournalEventKind::PartitionRetired,
                        None,
                        st.frontier as u64,
                        mass,
                        0,
                    );
                    if !items.is_empty() {
                        // One batch per partition, examined for every axiom.
                        let shard = st.next_shard;
                        st.next_shard += 1;
                        st.exam.push_back(Batch { shard, items });
                        st.batches += 1;
                        st.remaining += 1;
                    }
                    st.frontier += 1;
                }
            }
        }
        // Head-of-line blocking: out-of-order delivery filled the whole
        // lookahead window behind a straggler frontier partition.
        if st.resolved.len() >= self.window && !st.expired {
            self.progress.record(
                JournalEventKind::FrontierStall,
                None,
                st.frontier as u64,
                st.resolved.len() as u64,
                0,
            );
        }
        let done = st.newly_complete(self.space.partition_count());
        self.publish(&st);
        self.cv.notify_all();
        done
    }

    /// One batch retired (possibly cut short by the deadline). Returns
    /// whether this completes the run.
    fn batch_done(&self, retired: &Retired) -> bool {
        use std::sync::atomic::Ordering::Relaxed;
        for (&slot, &(examined, found)) in self.slots.iter().zip(&retired.per_axiom) {
            let ax = self.progress.axiom(slot);
            ax.batches_done.fetch_add(1, Relaxed);
            ax.items_examined.fetch_add(examined, Relaxed);
            ax.elts.fetch_add(found, Relaxed);
        }
        let mut st = self.state.lock().expect("pipeline lock is never poisoned");
        st.remaining -= 1;
        st.live = st.live.saturating_sub(retired.len);
        for (&slot, &(examined, found)) in self.slots.iter().zip(&retired.per_axiom) {
            self.progress.record(
                JournalEventKind::BatchExamined,
                Some(slot as u32),
                examined as u64,
                found as u64,
                retired.elapsed.as_micros() as u64,
            );
        }
        if retired.cut {
            // Examination hit the deadline: every axiom's suite is
            // partial, the plan ends at the current frontier (when
            // enumeration was still in flight), and all queued work is
            // abandoned.
            st.batch_cut = true;
            if st.cut_at.is_none() && st.frontier < self.space.partition_count() {
                st.cut_at = Some(st.frontier);
                self.progress
                    .record(JournalEventKind::Cut, None, st.frontier as u64, 0, 0);
            }
            Self::expire(&mut st);
        }
        let done = st.newly_complete(self.space.partition_count());
        self.publish(&st);
        self.cv.notify_all();
        done
    }

    /// The deadline struck: discard all queued work, with exact live
    /// accounting for the discarded tail — enumerated-but-unadmitted
    /// partitions and queued batches leave the live count now, while
    /// in-flight batches release theirs in [`Pipeline::batch_done`].
    /// Abandoned batches stay counted in `remaining`, which (correctly)
    /// blocks the run from ever completing.
    fn expire(st: &mut State) {
        st.expired = true;
        for (_, outcome) in std::mem::take(&mut st.resolved) {
            if let Some(keyed) = outcome {
                st.live = st.live.saturating_sub(keyed.len());
            }
        }
        for batch in std::mem::take(&mut st.exam) {
            st.live = st.live.saturating_sub(batch.items.len());
        }
    }
}

/// Everything a worker shares with its siblings for one fused run.
struct RunCtx<'r> {
    mtm: &'r Mtm,
    axioms: &'r [&'r str],
    opts: &'r SynthOptions,
    branch_co_pa: bool,
    start: Instant,
    /// Per-axiom streaming dedup of emitted ELT keys.
    claimed: &'r [crate::dedup::KeySet],
    /// Per-axiom shard counters, pushed as batches retire.
    shard_stats: &'r [Mutex<Vec<ShardStats>>],
    sinks: &'r [&'r dyn SuiteSink],
    /// Per-axiom final stats, written by whichever worker completes the
    /// axiom (the driver fills in timed-out axioms after the join).
    finished: &'r [Mutex<Option<SuiteStats>>],
}

/// One pool worker: alternates between enumerating partitions and
/// examining batches for every axiom until the pipeline drains.
fn worker(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>) {
    while let Some(task) = pipeline.next_task() {
        match task {
            Task::Enumerate(ordinal) => {
                // Enumeration honors the deadline inside the partition
                // too; a partition whose enumeration saw the expiry is
                // partial, so its output is discarded and the partition
                // counts as cut — the plan stays a reproducible prefix.
                let outcome = (!pipeline.past_deadline())
                    .then(|| {
                        pipeline
                            .space
                            .enumerate_keyed_within(ordinal, pipeline.deadline)
                    })
                    .filter(|_| !pipeline.past_deadline());
                if pipeline.resolve(ordinal, outcome) {
                    finish_run(pipeline, ctx);
                }
            }
            Task::Examine(batch) => {
                if pipeline.batch_done(&examine_batch(pipeline, ctx, &batch)) {
                    finish_run(pipeline, ctx);
                }
            }
        }
    }
}

/// Examines one batch for every axiom of the run on one multi-axiom
/// [`Examiner`], and streams each axiom's shard stats and suite members
/// into that axiom's sink.
fn examine_batch(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>, batch: &Batch) -> Retired {
    let start = Instant::now();
    let mut examiner =
        Examiner::for_axioms(ctx.mtm, ctx.axioms, ctx.opts.backend, ctx.branch_co_pa);
    let programs: Vec<&Program> = batch.items.iter().map(|item| &item.program).collect();
    let mut cut = false;
    let results = examiner.examine_chunk(&programs, || {
        cut = cut || pipeline.past_deadline();
        cut
    });
    let mut per_axiom = Vec::with_capacity(results.len());
    for (ai, axiom_results) in results.into_iter().enumerate() {
        let mut stats = ShardStats::new(batch.shard);
        let mut records = Vec::new();
        for (item, mut result) in batch.items.iter().zip(axiom_results) {
            stats.absorb(&result);
            if result.witness.is_some() && !ctx.claimed[ai].claim(&item.key) {
                // The admitter guarantees key uniqueness; dropping a
                // duplicate witness (never its counters) keeps the merge
                // correct even if a future enumerator breaks that
                // invariant.
                debug_assert!(false, "duplicate canonical key in admitted plan");
                result.witness = None;
            }
            if let Some((witness, violated)) = result.witness {
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
        per_axiom.push((stats.items, records.len()));
        ctx.shard_stats[ai]
            .lock()
            .expect("stats lock is never poisoned")
            .push(stats);
        ctx.sinks[ai].shard_done(stats, records);
    }
    Retired {
        len: batch.items.len(),
        per_axiom,
        elapsed: start.elapsed(),
        cut,
    }
}

/// The whole schedule retired cleanly: finish every axiom of the run.
fn finish_run(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>) {
    for ai in 0..ctx.axioms.len() {
        finish_axiom(pipeline, ctx, ai);
    }
}

/// An axiom's schedule retired cleanly: assemble its final stats and
/// fire its sink's completion hook *now*, from the pool — the seal (and
/// push) of a cached run happens as the last batch retires, not after
/// the workers join.
fn finish_axiom(pipeline: &Pipeline<'_>, ctx: &RunCtx<'_>, ai: usize) {
    let mut shards = ctx.shard_stats[ai]
        .lock()
        .expect("stats lock is never poisoned")
        .clone();
    shards.sort_by_key(|s| s.shard);
    let mut stats = SuiteStats::from_shards(pipeline.programs(), shards);
    stats.elapsed = ctx.start.elapsed();
    stats.timed_out = false;
    pipeline
        .progress
        .set_axiom_state(pipeline.slots[ai], AxiomState::Complete);
    pipeline.progress.record(
        JournalEventKind::AxiomComplete,
        Some(pipeline.slots[ai] as u32),
        stats.shards.iter().map(|s| s.items as u64).sum(),
        0,
        0,
    );
    ctx.sinks[ai].run_done(&stats);
    *ctx.finished[ai]
        .lock()
        .expect("finished lock is never poisoned") = Some(stats);
}

/// Runs the fused enumerate-while-examining pipeline for the run's
/// axioms (one or many) on `run.jobs` workers, streaming retired
/// batches into the per-axiom sinks. Partitions are enumerated once and
/// each admitted partition is examined once for every axiom; every
/// axiom's `run_done` fires when the last batch retires. Returns per-axiom
/// counters (in `axioms` order) and the run's scheduling metrics.
///
/// # Panics
///
/// Panics when any axiom is not part of `mtm`, or `axioms` and `sinks`
/// disagree in length.
pub(crate) fn run_fused(
    run: &Run<'_>,
    sinks: &[&dyn SuiteSink],
) -> (Vec<SuiteStats>, StreamMetrics) {
    let Run {
        mtm, axioms, opts, ..
    } = *run;
    assert_eq!(axioms.len(), sinks.len(), "one sink per axiom");
    for axiom in axioms {
        assert!(
            mtm.axiom(axiom).is_some(),
            "axiom `{axiom}` is not part of {}",
            mtm.name()
        );
    }
    let jobs = run.jobs.max(1);
    let start = Instant::now();
    let deadline = opts.timeout.map(|t| start + t);
    let space = EnumSpace::new(&opts.enumeration);
    let branch_co_pa = branches_co_pa(mtm);
    let pipeline = Pipeline::new(&space, axioms, run.progress, deadline, jobs);
    pipeline.progress.record(
        JournalEventKind::RunStart,
        None,
        space.partition_count() as u64,
        space.total_mass(),
        jobs as u64,
    );
    let claimed: Vec<crate::dedup::KeySet> =
        axioms.iter().map(|_| crate::dedup::KeySet::new()).collect();
    let shard_stats: Vec<Mutex<Vec<ShardStats>>> =
        axioms.iter().map(|_| Mutex::new(Vec::new())).collect();
    let finished: Vec<Mutex<Option<SuiteStats>>> =
        axioms.iter().map(|_| Mutex::new(None)).collect();
    let ctx = RunCtx {
        mtm,
        axioms,
        opts,
        branch_co_pa,
        start,
        claimed: &claimed,
        shard_stats: &shard_stats,
        sinks,
        finished: &finished,
    };

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let pipeline = &pipeline;
            let ctx = &ctx;
            scope.spawn(move || worker(pipeline, ctx));
        }
    });

    let progress = Arc::clone(&pipeline.progress);
    let slots = pipeline.slots.clone();
    let st = pipeline
        .state
        .into_inner()
        .expect("pipeline lock is never poisoned");
    let elapsed = start.elapsed();
    let all_stats: Vec<SuiteStats> = finished
        .into_iter()
        .enumerate()
        .zip(&shard_stats)
        .zip(sinks)
        .map(|(((ai, slot), shards), sink)| {
            match slot.into_inner().expect("finished lock is never poisoned") {
                Some(stats) => stats,
                None => {
                    // No worker latched completion. Either the deadline
                    // cut this axiom's plan or examination (timed out,
                    // best-effort partial counters), or the space was
                    // empty and no pipeline event ever fired (complete,
                    // trivially). Its run_done still fires exactly once
                    // — sinks never seal timed-out runs.
                    let complete = !st.expired && st.schedule_retired(space.partition_count());
                    progress.set_axiom_state(
                        slots[ai],
                        if complete {
                            AxiomState::Complete
                        } else {
                            AxiomState::Cut
                        },
                    );
                    let mut shards = shards.lock().expect("stats lock is never poisoned").clone();
                    shards.sort_by_key(|s| s.shard);
                    let mut stats = SuiteStats::from_shards(st.admitter.programs, shards);
                    stats.elapsed = elapsed;
                    stats.timed_out = !complete;
                    sink.run_done(&stats);
                    stats
                }
            }
        })
        .collect();
    progress.record(
        JournalEventKind::RunEnd,
        None,
        st.admitter.programs as u64,
        st.admitter.next_index as u64,
        st.batches as u64,
    );
    // The returned metrics ARE the final progress snapshot — one set of
    // counters from first live sample to final record.
    let mut metrics = StreamMetrics::from_snapshot(&progress.snapshot());
    metrics.axioms = axioms.len();
    (all_stats, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_synth::programs::EnumOptions;
    use transform_synth::{plan_from_keyed, plan_key};

    fn enum_opts(bound: usize) -> EnumOptions {
        let mut o = EnumOptions::new(bound);
        o.allow_fences = false;
        o.allow_rmw = false;
        o
    }

    fn mtm() -> Mtm {
        transform_core::spec::parse_mtm(
            "mtm m { axiom sc_per_loc: acyclic(rf | co | fr | po_loc) }",
        )
        .expect("spec parses")
    }

    /// The admitter over in-order partitions equals the sequential
    /// planner's scan over the eager enumeration.
    #[test]
    fn admitter_reproduces_the_sequential_plan() {
        let m = mtm();
        let eo = enum_opts(4);
        let space = EnumSpace::new(&eo);
        let mut admitter = Admitter::new();
        let mut items = Vec::new();
        for p in 0..space.partition_count() {
            items.extend(admitter.admit(space.enumerate_keyed(p)));
        }
        let keyed = transform_synth::programs::programs(&eo)
            .into_iter()
            .map(|p| {
                let key = plan_key(&p);
                (p, key)
            })
            .collect();
        let reference = plan_from_keyed(&m, "sc_per_loc", keyed, false);
        assert_eq!(admitter.programs, reference.programs);
        assert_eq!(items.len(), reference.items.len());
        for (a, b) in items.iter().zip(&reference.items) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.key, b.key);
            assert_eq!(a.program, b.program);
        }
    }

    /// Out-of-order delivery with a cut partition: the frontier admits
    /// the prefix below the cut and drops everything from it on.
    #[test]
    fn frontier_cuts_reproducibly_on_out_of_order_delivery() {
        let eo = enum_opts(4);
        let space = EnumSpace::new(&eo);
        assert!(space.partition_count() >= 3, "space too small for the test");
        let pipeline = Pipeline::new(&space, &["a"], None, None, 2);
        // Claim the first three enumeration tasks.
        for expect in 0..3 {
            match pipeline.next_task() {
                Some(Task::Enumerate(ord)) => assert_eq!(ord, expect),
                _ => panic!("expected an enumeration task"),
            }
        }
        // Deliver 2 first, cut 1, then deliver 0: only partition 0 may
        // be admitted, and the cut lands at ordinal 1.
        pipeline.resolve(2, Some(space.enumerate_keyed(2)));
        pipeline.resolve(1, None);
        pipeline.resolve(0, Some(space.enumerate_keyed(0)));
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.cut_at, Some(1));
        assert!(st.expired);
        let mut reference = Admitter::new();
        let expected_items = reference.admit(space.enumerate_keyed(0)).len();
        assert_eq!(st.admitter.programs, reference.programs);
        let queued: usize = st.exam.iter().map(|b| b.items.len()).sum();
        assert_eq!(queued, expected_items);
    }

    /// A fused three-axiom pipeline queues each admitted partition once:
    /// one batch per partition that admits a plan item, whatever the
    /// axiom count, covering the plan exactly once.
    #[test]
    fn fused_pipeline_queues_one_batch_per_chunk() {
        let eo = enum_opts(4);
        let space = EnumSpace::new(&eo);
        // A window wide enough to claim every partition before any
        // examine batch exists (examination has pop priority).
        let pipeline = Pipeline::new(
            &space,
            &["a", "b", "c"],
            None,
            None,
            space.partition_count(),
        );
        for ordinal in 0..space.partition_count() {
            match pipeline.next_task() {
                Some(Task::Enumerate(ord)) => assert_eq!(ord, ordinal),
                _ => panic!("expected an enumeration task"),
            }
        }
        for ordinal in 0..space.partition_count() {
            pipeline.resolve(ordinal, Some(space.enumerate_keyed(ordinal)));
        }
        // The reference: each partition's admitted items, in order,
        // with the partitions that admit nothing left out.
        let mut reference = Admitter::new();
        let expected: Vec<Vec<usize>> = (0..space.partition_count())
            .map(|p| reference.admit(space.enumerate_keyed(p)))
            .filter(|items| !items.is_empty())
            .map(|items| items.iter().map(|i| i.index).collect())
            .collect();
        assert!(expected.len() > 1, "space too small for the test");
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(
            st.batches,
            expected.len(),
            "one batch per admitting partition"
        );
        assert_eq!(st.exam.len(), st.batches);
        assert_eq!(st.remaining, st.batches);
        let shards: Vec<usize> = st.exam.iter().map(|b| b.shard).collect();
        assert_eq!(shards, (0..st.batches).collect::<Vec<_>>());
        // The queued batches are the partitions' items, in plan order.
        let batches: Vec<Vec<usize>> = st
            .exam
            .iter()
            .map(|b| b.items.iter().map(|i| i.index).collect())
            .collect();
        assert_eq!(batches, expected);
        assert_eq!(st.live, st.admitter.next_index);
    }

    /// Regression for the former "best-effort on timed-out runs" peak
    /// accounting: a deadline cut now (a) counts discarded partitions
    /// delivered after expiry toward the peak — they were materialized
    /// — and (b) returns every queued-but-abandoned candidate to the
    /// live count, so `live` drains to exactly the in-flight batches.
    #[test]
    fn deadline_cut_keeps_live_accounting_exact() {
        let eo = enum_opts(4);
        let space = EnumSpace::new(&eo);
        assert!(space.partition_count() >= 3, "space too small for the test");
        let pipeline = Pipeline::new(&space, &["a"], None, None, 3);
        for expect in 0..3 {
            match pipeline.next_task() {
                Some(Task::Enumerate(ord)) => assert_eq!(ord, expect),
                _ => panic!("expected an enumeration task"),
            }
        }
        let n0 = space.enumerate_keyed(0).len();
        let n2 = space.enumerate_keyed(2).len();
        // Partition 0 admits: its items go live and queue as batches.
        pipeline.resolve(0, Some(space.enumerate_keyed(0)));
        // Partition 1 is cut: expire() discards the queued batches and
        // drains their candidates from the live count on the spot.
        pipeline.resolve(1, None);
        {
            let st = pipeline.state.lock().expect("lock");
            assert!(st.expired);
            assert_eq!(st.cut_at, Some(1));
            assert_eq!(st.live, 0, "abandoned queue drained exactly");
            assert!(st.exam.is_empty());
        }
        // Partition 2 lands after expiry: discarded, but its programs
        // were materialized — the peak must include them.
        pipeline.resolve(2, Some(space.enumerate_keyed(2)));
        let st = pipeline.state.into_inner().expect("lock");
        assert_eq!(st.live, 0);
        assert!(
            st.peak_live >= n0.max(n2),
            "peak {} must cover both the admitted ({n0}) and the \
             discarded ({n2}) materializations",
            st.peak_live
        );
        // The progress mirror agrees with the final state.
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.peak_live_candidates, st.peak_live);
        assert_eq!(snap.live_candidates, 0);
        assert_eq!(snap.cut_at_partition, Some(1));
    }

    /// The progress mirror tracks the frontier: partitions retired,
    /// mass retired, programs, and plan items all advance with
    /// admission, and the mass total is the space's.
    #[test]
    fn progress_mirrors_frontier_advance() {
        let eo = enum_opts(4);
        let space = EnumSpace::new(&eo);
        let masses = space.masses().to_vec();
        let pipeline = Pipeline::new(&space, &["a"], None, None, 2);
        assert_eq!(pipeline.progress.snapshot().mass_total, space.total_mass());
        for ordinal in 0..space.partition_count() {
            loop {
                match pipeline.next_task() {
                    Some(Task::Enumerate(ord)) => {
                        assert_eq!(ord, ordinal);
                        break;
                    }
                    Some(Task::Examine(b)) => {
                        // Examination has pop priority; retire it untouched.
                        pipeline.batch_done(&Retired {
                            len: b.items.len(),
                            per_axiom: vec![(0, 0)],
                            elapsed: Duration::ZERO,
                            cut: false,
                        });
                    }
                    None => panic!("pipeline drained early"),
                }
            }
            pipeline.resolve(ordinal, Some(space.enumerate_keyed(ordinal)));
            let snap = pipeline.progress.snapshot();
            assert_eq!(snap.partitions_retired, ordinal + 1);
            assert_eq!(snap.mass_retired, masses[..=ordinal].iter().sum::<u64>());
        }
        let st = pipeline.state.into_inner().expect("lock");
        let snap = pipeline.progress.snapshot();
        assert_eq!(snap.partitions_retired, space.partition_count());
        assert_eq!(snap.mass_retired, space.total_mass());
        assert_eq!(snap.programs, st.admitter.programs);
        assert_eq!(snap.items_planned, st.admitter.next_index);
        assert_eq!(snap.batches, st.batches);
        assert!(snap.enumeration_eta().is_some());
    }

    fn synth_opts(bound: usize) -> SynthOptions {
        let mut o = SynthOptions::new(bound);
        o.enumeration.allow_fences = false;
        o.enumeration.allow_rmw = false;
        o
    }

    /// A deadline-cut run keeps its partition-granular journal
    /// invariants: retired mass in the progress mirror equals the sum of
    /// `PartitionRetired` journal events, and a recorded cut matches
    /// `cut_at_partition`.
    #[test]
    fn deadline_cut_run_keeps_journal_invariants() {
        let m = mtm();
        for jobs in [1usize, 2] {
            let label = format!("jobs {jobs}");
            let mut opts = synth_opts(4);
            opts.timeout = Some(Duration::from_millis(1));
            let progress = Arc::new(ProgressState::with_journal(&["sc_per_loc"]));
            let sink = crate::CollectSink::new();
            let (stats, metrics) = Run {
                progress: Some(&progress),
                ..Run::new(&m, &["sc_per_loc"], &opts, jobs)
            }
            .stream(&[&sink]);
            let journal = progress.take_journal();
            let snap = progress.snapshot();
            let retired: u64 = journal
                .iter()
                .filter(|e| e.kind == JournalEventKind::PartitionRetired)
                .map(|e| e.b)
                .sum();
            assert_eq!(snap.mass_retired, retired, "{label}");
            if let Some(cut) = metrics.cut_at_partition {
                assert!(stats[0].timed_out, "{label}");
                let cuts: Vec<u64> = journal
                    .iter()
                    .filter(|e| e.kind == JournalEventKind::Cut)
                    .map(|e| e.a)
                    .collect();
                assert_eq!(cuts, vec![cut as u64], "{label}");
            }
        }
    }
}
