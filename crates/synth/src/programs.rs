//! Bounded enumeration of ELT programs (§IV-A).
//!
//! A *program* is an execution skeleton: instructions placed on threads
//! with ghost attachments, remap assignments, and rmw dependencies — but
//! no communication choices yet. Enumeration respects the paper's
//! placement rules:
//!
//! * the first same-VA access on a core must walk (TLBs start empty);
//! * an access after an `INVLPG` of its VA must walk (Fig. 5b);
//! * other accesses may hit or miss freely (capacity evictions, §III-B2);
//! * every user write carries a dirty-bit update (§III-A2);
//! * every PTE write invokes exactly one `INVLPG` per core (§III-B2), and
//!   an `INVLPG` serves at most one PTE write — so every core needs at
//!   least as many `INVLPG`s as the program has PTE writes;
//! * spurious `INVLPG`s appear only where they can affect the thread's
//!   execution (a later same-VA access exists);
//! * fences appear only between two instructions of their thread.
//!
//! The instruction bound counts *every* event, ghosts included — the
//! paper's Fig. 10a is a four-instruction ELT.

use crate::canon::canonical_key;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use transform_core::exec::{EltBuilder, Execution};
use transform_core::ids::{Pa, Va};

/// How a PTE write's target PA relates to the rest of the test.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum PaRef {
    /// The initial physical page of VA *i* (aliasing an existing page).
    Initial(usize),
    /// A page not initially mapped by any VA in the test.
    Fresh(usize),
}

/// One program-order slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum SlotOp {
    /// User read; `walk` marks a TLB miss.
    Read {
        /// VA index.
        va: usize,
        /// Whether the read invokes a PT walk.
        walk: bool,
    },
    /// User write (always carries a dirty-bit update).
    Write {
        /// VA index.
        va: usize,
        /// Whether the write invokes a PT walk.
        walk: bool,
    },
    /// `MFENCE`.
    Fence,
    /// Support PTE write remapping `va` to `pa`.
    PteWrite {
        /// VA index.
        va: usize,
        /// Target page.
        pa: PaRef,
    },
    /// Support TLB invalidation.
    Invlpg {
        /// VA index.
        va: usize,
    },
    /// Support full TLB flush (the extended IPI type, §III-B2 future
    /// work): evicts every entry of the issuing core's TLB.
    TlbFlush,
}

impl SlotOp {
    /// Event cost of the slot, ghosts included.
    pub fn cost(self) -> usize {
        match self {
            SlotOp::Read { walk, .. } => 1 + usize::from(walk),
            SlotOp::Write { walk, .. } => 2 + usize::from(walk),
            SlotOp::Fence | SlotOp::Invlpg { .. } | SlotOp::TlbFlush | SlotOp::PteWrite { .. } => 1,
        }
    }

    /// The VA the op touches, if any.
    pub fn va(self) -> Option<usize> {
        match self {
            SlotOp::Read { va, .. }
            | SlotOp::Write { va, .. }
            | SlotOp::PteWrite { va, .. }
            | SlotOp::Invlpg { va } => Some(va),
            SlotOp::Fence | SlotOp::TlbFlush => None,
        }
    }
}

/// An ELT program: threads of slots plus remap/rmw structure.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Program {
    /// Instruction sequences, one per core.
    pub threads: Vec<Vec<SlotOp>>,
    /// `(wpte, invlpg)` pairs as `(thread, slot)` positions.
    pub remap: Vec<((usize, usize), (usize, usize))>,
    /// RMW dependencies as `(thread, read-slot)`; the write is the next
    /// slot.
    pub rmw: Vec<(usize, usize)>,
}

impl Program {
    /// Total event count, ghosts included.
    pub fn size(&self) -> usize {
        self.threads.iter().flatten().map(|op| op.cost()).sum()
    }

    /// Whether the program contains any write (user or PTE) — the
    /// spanning-set criterion 1: only write-bearing programs can have a
    /// forbidden outcome.
    pub fn has_write(&self) -> bool {
        self.threads
            .iter()
            .flatten()
            .any(|op| matches!(op, SlotOp::Write { .. } | SlotOp::PteWrite { .. }))
    }

    /// Number of distinct VAs (they are first-use numbered).
    pub fn num_vas(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .filter_map(|op| op.va())
            .max()
            .map_or(0, |v| v + 1)
    }

    /// Extracts the program of an execution (discarding communication) —
    /// the inverse of [`Program::to_skeleton`]. Used by the COATCheck
    /// comparison tool, whose unit of comparison is the ELT *program*.
    pub fn from_execution(x: &Execution) -> Program {
        use transform_core::event::EventKind;
        use transform_core::ids::ThreadId;
        let num_vas = x.num_vas();
        let mut threads = Vec::new();
        let mut slot_of = std::collections::BTreeMap::new();
        for t in 0..x.num_threads() {
            let mut row = Vec::new();
            for (s, &e) in x.po_of(ThreadId(t)).iter().enumerate() {
                slot_of.insert(e, (t, s));
                let ev = x.event(e);
                let walk = x
                    .ghosts_of(e)
                    .iter()
                    .any(|&g| x.event(g).kind == EventKind::Ptw);
                let op = match ev.kind {
                    EventKind::Read => SlotOp::Read {
                        va: ev.va_unwrap().0,
                        walk,
                    },
                    EventKind::Write => SlotOp::Write {
                        va: ev.va_unwrap().0,
                        walk,
                    },
                    EventKind::Fence => SlotOp::Fence,
                    EventKind::PteWrite { new_pa } => SlotOp::PteWrite {
                        va: ev.va_unwrap().0,
                        pa: if new_pa.0 < num_vas {
                            PaRef::Initial(new_pa.0)
                        } else {
                            PaRef::Fresh(new_pa.0 - num_vas)
                        },
                    },
                    EventKind::Invlpg => SlotOp::Invlpg {
                        va: ev.va_unwrap().0,
                    },
                    EventKind::TlbFlush => SlotOp::TlbFlush,
                    EventKind::Ptw | EventKind::DirtyBitWrite => {
                        unreachable!("ghosts are not in po")
                    }
                };
                row.push(op);
            }
            threads.push(row);
        }
        let remap = x
            .remap_pairs()
            .iter()
            .map(|&(w, i)| (slot_of[&w], slot_of[&i]))
            .collect();
        let rmw = x.rmw_pairs().iter().map(|&(r, _)| slot_of[&r]).collect();
        Program {
            threads,
            remap,
            rmw,
        }
    }

    /// Lowers the program to an execution skeleton (events, ghosts, po,
    /// remap, rmw — no communication).
    pub fn to_skeleton(&self) -> Execution {
        let num_vas = self.num_vas();
        let mut b = EltBuilder::new();
        let mut ids = Vec::new();
        for (t, slots) in self.threads.iter().enumerate() {
            let tid = b.thread();
            debug_assert_eq!(tid.0, t);
            let mut row = Vec::new();
            for &op in slots {
                let id = match op {
                    SlotOp::Read { va, walk: true } => b.read_walk(tid, Va(va)).0,
                    SlotOp::Read { va, walk: false } => b.read(tid, Va(va)),
                    SlotOp::Write { va, walk: true } => b.write_walk(tid, Va(va)).0,
                    SlotOp::Write { va, walk: false } => b.write(tid, Va(va)).0,
                    SlotOp::Fence => b.fence(tid),
                    SlotOp::PteWrite { va, pa } => {
                        let pa = match pa {
                            PaRef::Initial(v) => Pa(v),
                            PaRef::Fresh(k) => Pa(num_vas + k),
                        };
                        b.pte_write(tid, Va(va), pa)
                    }
                    SlotOp::Invlpg { va } => b.invlpg(tid, Va(va)),
                    SlotOp::TlbFlush => b.tlb_flush(tid),
                };
                row.push(id);
            }
            ids.push(row);
        }
        for &((wt, ws), (it, is)) in &self.remap {
            b.remap(ids[wt][ws], ids[it][is]);
        }
        for &(t, s) in &self.rmw {
            b.rmw(ids[t][s], ids[t][s + 1]);
        }
        b.build()
    }
}

/// Knobs for bounded program enumeration.
#[derive(Clone, Debug)]
pub struct EnumOptions {
    /// Maximum total event count (the paper's instruction bound).
    pub bound: usize,
    /// Maximum number of threads (`None` ⇒ derived from the bound).
    pub max_threads: Option<usize>,
    /// Allow `MFENCE` instructions.
    pub allow_fences: bool,
    /// Allow RMW (read-modify-write) pairs.
    pub allow_rmw: bool,
    /// Allow PTE writes that re-install a VA's initial mapping.
    pub allow_identity_remap: bool,
    /// Apply canonical-form symmetry reduction during enumeration
    /// (§VI-A); turning this off is an ablation.
    pub symmetry_reduction: bool,
}

impl EnumOptions {
    /// Defaults for a given instruction bound.
    pub fn new(bound: usize) -> EnumOptions {
        EnumOptions {
            bound,
            max_threads: None,
            allow_fences: true,
            allow_rmw: true,
            allow_identity_remap: false,
            symmetry_reduction: true,
        }
    }
}

/// A per-thread instruction sequence with locally-numbered VAs and PA
/// symbols, produced by the first enumeration stage.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Shape {
    ops: Vec<SlotOp>, // va = local index; PteWrite.pa = Fresh(local symbol)
    cost: usize,
    num_vas: usize,
    num_pa_syms: usize,
    rmw: Vec<usize>,
}

impl Shape {
    /// Number of `INVLPG`s in the shape.
    fn num_invlpgs(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, SlotOp::Invlpg { .. }))
            .count()
    }
}

/// Enumerates all thread shapes of cost ≤ `budget`.
fn shapes(budget: usize, opts: &EnumOptions) -> Vec<Shape> {
    let mut out = Vec::new();
    let mut cur = Shape {
        ops: Vec::new(),
        cost: 0,
        num_vas: 0,
        num_pa_syms: 0,
        rmw: Vec::new(),
    };
    // TLB validity per local VA.
    let mut tlb: Vec<bool> = Vec::new();
    extend(&mut cur, &mut tlb, budget, opts, &mut out);
    out
}

fn extend(
    cur: &mut Shape,
    tlb: &mut Vec<bool>,
    budget: usize,
    opts: &EnumOptions,
    out: &mut Vec<Shape>,
) {
    if !cur.ops.is_empty() {
        // A trailing fence orders nothing: skip such shapes.
        if cur.ops.last() != Some(&SlotOp::Fence) {
            out.push(cur.clone());
        }
    }
    let remaining = budget.saturating_sub(cur.cost);
    if remaining == 0 {
        return;
    }
    let max_va = cur.num_vas; // may introduce one fresh VA
    for va in 0..=max_va {
        let fresh_va = va == cur.num_vas;
        let had_entry = !fresh_va && tlb[va];

        // Reads and writes, with forced walk on a cold TLB.
        for (write, base_cost) in [(false, 1usize), (true, 2usize)] {
            let walk_options: &[bool] = if had_entry { &[false, true] } else { &[true] };
            for &walk in walk_options {
                let cost = base_cost + usize::from(walk);
                if cost > remaining {
                    continue;
                }
                let op = if write {
                    SlotOp::Write { va, walk }
                } else {
                    SlotOp::Read { va, walk }
                };
                with_op(cur, tlb, op, fresh_va, walk || had_entry, |cur, tlb| {
                    extend(cur, tlb, budget, opts, out)
                });
            }
        }

        // RMW: adjacent read+write to one VA; the write reuses the read's
        // translation and adds the dirty-bit update.
        if opts.allow_rmw {
            let walk_options: &[bool] = if had_entry { &[false, true] } else { &[true] };
            for &walk in walk_options {
                let cost = 1 + usize::from(walk) + 2;
                if cost > remaining {
                    continue;
                }
                let read_slot = cur.ops.len();
                cur.ops.push(SlotOp::Read { va, walk });
                cur.ops.push(SlotOp::Write { va, walk: false });
                cur.rmw.push(read_slot);
                cur.cost += cost;
                let saved_vas = cur.num_vas;
                if fresh_va {
                    cur.num_vas += 1;
                    tlb.push(true);
                } else {
                    tlb[va] = true;
                }
                let saved_entry = had_entry;
                extend(cur, tlb, budget, opts, out);
                cur.ops.pop();
                cur.ops.pop();
                cur.rmw.pop();
                cur.cost -= cost;
                if fresh_va {
                    tlb.pop();
                } else {
                    tlb[va] = saved_entry;
                }
                cur.num_vas = saved_vas;
            }
        }

        // PTE write: PA meaning (alias vs fresh page) is resolved when
        // threads are combined; locally we only number the symbols.
        if 1 <= remaining {
            let op = SlotOp::PteWrite {
                va,
                pa: PaRef::Fresh(cur.num_pa_syms),
            };
            cur.num_pa_syms += 1;
            with_op(cur, tlb, op, fresh_va, had_entry, |cur, tlb| {
                extend(cur, tlb, budget, opts, out)
            });
            cur.num_pa_syms -= 1;
        }

        // INVLPG: evicts the TLB entry.
        if 1 <= remaining {
            let op = SlotOp::Invlpg { va };
            cur.ops.push(op);
            cur.cost += 1;
            let saved_vas = cur.num_vas;
            if fresh_va {
                cur.num_vas += 1;
                tlb.push(false);
            } else {
                tlb[va] = false;
            }
            extend(cur, tlb, budget, opts, out);
            cur.ops.pop();
            cur.cost -= 1;
            if fresh_va {
                tlb.pop();
            } else {
                tlb[va] = had_entry;
            }
            cur.num_vas = saved_vas;
        }
    }

    // Fence, only after a non-fence instruction.
    if opts.allow_fences
        && 1 <= remaining
        && !cur.ops.is_empty()
        && cur.ops.last() != Some(&SlotOp::Fence)
    {
        cur.ops.push(SlotOp::Fence);
        cur.cost += 1;
        extend(cur, tlb, budget, opts, out);
        cur.ops.pop();
        cur.cost -= 1;
    }
}

fn with_op(
    cur: &mut Shape,
    tlb: &mut Vec<bool>,
    op: SlotOp,
    fresh_va: bool,
    entry_after: bool,
    f: impl FnOnce(&mut Shape, &mut Vec<bool>),
) {
    let va = op.va().expect("memory-ish op has a VA");
    cur.ops.push(op);
    cur.cost += op.cost();
    let saved_entry = if fresh_va {
        cur.num_vas += 1;
        tlb.push(entry_after);
        false
    } else {
        let s = tlb[va];
        tlb[va] = entry_after;
        s
    };
    f(cur, tlb);
    cur.ops.pop();
    cur.cost -= op.cost();
    if fresh_va {
        cur.num_vas -= 1;
        tlb.pop();
    } else {
        tlb[va] = saved_entry;
    }
}

/// A program together with the facts the planner reuses: its canonical
/// key (computed once, during enumeration) and whether it contains a
/// write. Streamed out of [`EnumSpace::enumerate_keyed`] so downstream
/// stages never recompute [`canonical_key`].
#[derive(Clone, Debug)]
pub struct KeyedProgram {
    /// The enumerated program.
    pub program: Program,
    /// Canonical key ([`canonical_key`]) — present whenever enumeration
    /// needed it (symmetry reduction on) or the planner will (the
    /// program has a write); `None` only for write-free programs with
    /// symmetry reduction off.
    pub key: Option<Vec<u64>>,
    /// [`Program::has_write`], precomputed.
    pub has_write: bool,
}

/// Where enumerated programs land: applies symmetry-reduction dedup
/// (scoped to the whole run for the monolithic recursion, or to one
/// partition for [`EnumSpace::enumerate_keyed`]) and decides which
/// canonical keys are worth keeping.
struct EmitSink<'a> {
    opts: &'a EnumOptions,
    /// Keep keys for write-bearing programs even without symmetry
    /// reduction — the partitioned planner reuses them as plan keys.
    keep_keys: bool,
    seen: BTreeSet<Vec<u64>>,
    out: Vec<KeyedProgram>,
}

impl<'a> EmitSink<'a> {
    fn new(opts: &'a EnumOptions, keep_keys: bool) -> EmitSink<'a> {
        EmitSink {
            opts,
            keep_keys,
            seen: BTreeSet::new(),
            out: Vec::new(),
        }
    }

    fn emit(&mut self, program: Program) {
        let has_write = program.has_write();
        let needs_key = self.opts.symmetry_reduction || (self.keep_keys && has_write);
        let mut key = needs_key.then(|| canonical_key(&program));
        if self.opts.symmetry_reduction {
            let k = key.as_ref().expect("symmetry reduction keys every program");
            if self.seen.contains(k) {
                return;
            }
            if self.keep_keys {
                self.seen.insert(k.clone());
            } else {
                // Only `programs` / `programs_with_deadline` get here —
                // the sequential engine's enumeration and the oracle the
                // partitioned streams are checked against. They discard
                // per-program keys, so move the key into the dedup set
                // instead of retaining a second copy per emitted program.
                key = {
                    self.seen.insert(key.expect("checked above"));
                    None
                };
            }
        }
        self.out.push(KeyedProgram {
            program,
            key,
            has_write,
        });
    }
}

/// Enumerates all programs of size ≤ `opts.bound`, canonically deduplicated
/// when `opts.symmetry_reduction` is on.
pub fn programs(opts: &EnumOptions) -> Vec<Program> {
    programs_with_deadline(opts, None)
}

/// Like [`programs`], stopping early (with a partial result) once
/// `deadline` passes — the paper's synthesis timeout.
pub fn programs_with_deadline(
    opts: &EnumOptions,
    deadline: Option<std::time::Instant>,
) -> Vec<Program> {
    let mut all_shapes = shapes(opts.bound, opts);
    all_shapes.sort_by_key(|s| s.cost); // enables early cut-off in combine
    let max_threads = opts.max_threads.unwrap_or(opts.bound);
    let mut sink = EmitSink::new(opts, false);

    // Choose up to `max_threads` shapes (non-decreasing indices for
    // symmetry breaking across identical shape multisets).
    let mut chosen: Vec<usize> = Vec::new();
    combine(
        &all_shapes,
        0,
        opts.bound,
        max_threads,
        &mut chosen,
        &deadline,
        &mut sink,
    );
    sink.out.into_iter().map(|kp| kp.program).collect()
}

fn combine(
    shapes: &[Shape],
    from: usize,
    budget_left: usize,
    threads_left: usize,
    chosen: &mut Vec<usize>,
    deadline: &Option<std::time::Instant>,
    sink: &mut EmitSink<'_>,
) {
    if let Some(d) = deadline {
        if std::time::Instant::now() > *d {
            return;
        }
    }
    if !chosen.is_empty() {
        if !invlpgs_suffice(shapes, chosen) {
            // Further threads add PTE writes but never `INVLPG`s to the
            // shapes already chosen: the whole subtree is infeasible.
            return;
        }
        assign_and_emit(shapes, chosen, sink);
    }
    if threads_left == 0 {
        return;
    }
    for i in from..shapes.len() {
        if shapes[i].cost > budget_left {
            break; // shapes are sorted by cost
        }
        chosen.push(i);
        combine(
            shapes,
            i, // allow repeats; non-decreasing order breaks permutations
            budget_left - shapes[i].cost,
            threads_left - 1,
            chosen,
            deadline,
            sink,
        );
        chosen.pop();
    }
}

/// Whether the chosen shapes can host a remap at all: each PTE write
/// takes its own `INVLPG` on every core, so every chosen shape needs at
/// least as many `INVLPG`s as the whole multiset has PTE writes (one PA
/// symbol per PTE write).
fn invlpgs_suffice(shapes: &[Shape], chosen: &[usize]) -> bool {
    let wptes: usize = chosen.iter().map(|&i| shapes[i].num_pa_syms).sum();
    wptes == 0 || chosen.iter().all(|&i| shapes[i].num_invlpgs() >= wptes)
}

/// Exact node counts of the *unpruned* shape-combination recursion,
/// memoized.
///
/// A *node* is one chosen shape multiset. `combine` returns early from
/// nodes that fail [`invlpgs_suffice`], skipping their subtrees, so the
/// counts are an upper bound on the nodes it actually visits — which
/// keeps them a pure function of the shape list (eltbench's
/// `programs.nodes`, the `total_mass`, is unmoved by the prune).
/// `descendants(from, budget, threads)` counts the nodes of the
/// subtree that continues with shape indices `>= from` under the
/// remaining budget and thread slots: the number of non-empty
/// non-decreasing index sequences with total cost ≤ `budget` and
/// length ≤ `threads`. The recurrence mirrors the recursion — skip
/// shape `from` entirely, or choose it first and continue from it:
///
/// `N(f,b,t) = N(f+1,b,t) + [cost_f ≤ b] · (1 + N(f, b−cost_f, t−1))`
///
/// The table is `O(shapes × bound × threads)` and each entry is O(1),
/// so estimating every partition's mass costs far less than
/// enumerating even one of them.
struct MassTable {
    /// `table[(f * (bound+1) + b) * (maxt+1) + t]`.
    table: Vec<u64>,
    bound: usize,
    maxt: usize,
}

impl MassTable {
    fn new(shapes: &[Shape], bound: usize, max_threads: usize) -> MassTable {
        let maxt = max_threads.min(bound); // every shape costs ≥ 1
        let n = shapes.len();
        let bdim = bound + 1;
        let tdim = maxt + 1;
        let mut table = vec![0u64; (n + 1) * bdim * tdim];
        let idx = |f: usize, b: usize, t: usize| (f * bdim + b) * tdim + t;
        for f in (0..n).rev() {
            let cost = shapes[f].cost;
            for b in 0..bdim {
                for t in 1..tdim {
                    let mut m = table[idx(f + 1, b, t)];
                    if cost <= b {
                        m = m
                            .saturating_add(1)
                            .saturating_add(table[idx(f, b - cost, t - 1)]);
                    }
                    table[idx(f, b, t)] = m;
                }
            }
        }
        MassTable { table, bound, maxt }
    }

    /// Nodes strictly below a node that continues from index `from`
    /// with `budget` cost and `threads` slots left.
    fn descendants(&self, from: usize, budget: usize, threads: usize) -> u64 {
        let b = budget.min(self.bound);
        let t = threads.min(self.maxt);
        self.table[(from * (self.bound + 1) + b) * (self.maxt + 1) + t]
    }

    /// Estimated mass of one partition: its own node plus, for subtree
    /// partitions, everything below the prefix.
    fn partition_mass(&self, shapes: &[Shape], max_threads: usize, part: &Partition) -> u64 {
        if !part.subtree {
            return 1;
        }
        let used: usize = part.prefix.iter().map(|&i| shapes[i].cost).sum();
        let from = *part.prefix.last().expect("prefixes are non-empty");
        1u64.saturating_add(self.descendants(
            from,
            self.bound.saturating_sub(used),
            max_threads.saturating_sub(part.prefix.len()),
        ))
    }
}

/// Projects time-to-completion from subtree-mass progress: the rate is
/// `mass_retired / elapsed` and the projection covers the remaining
/// `mass_total - mass_retired`. Mass is the `MassTable`'s exact
/// shape-combination node count, so unlike a partition *count* the
/// projection is not skewed by wildly uneven partition sizes.
///
/// Returns `None` before any mass has retired (no rate to project
/// from) or when the space is empty; `Some(Duration::ZERO)` once
/// everything retired.
pub fn mass_eta(
    mass_retired: u64,
    mass_total: u64,
    elapsed: std::time::Duration,
) -> Option<std::time::Duration> {
    if mass_total == 0 || mass_retired == 0 {
        return None;
    }
    if mass_retired >= mass_total {
        return Some(std::time::Duration::ZERO);
    }
    let rate = mass_retired as f64 / elapsed.as_secs_f64().max(1e-9);
    Some(std::time::Duration::from_secs_f64(
        (mass_total - mass_retired) as f64 / rate,
    ))
}

/// The bounded program space split by *skeleton prefix* into
/// independently enumerable partitions.
///
/// A partition is a node of the shape-combination recursion: the chosen
/// first (and, after a split, second) thread shapes. Partitions are
/// ordered exactly as the monolithic recursion visits them, so
/// concatenating their outputs in ordinal order — keeping, under
/// symmetry reduction, only the first occurrence of each canonical key
/// across partitions — reproduces [`programs`] element for element.
/// That makes each partition an independent work unit for a parallel
/// pool *and* gives every enumerated program a stable position
/// `(ordinal, offset)` that no scheduling decision can move.
pub struct EnumSpace {
    shapes: Vec<Shape>,
    opts: EnumOptions,
    max_threads: usize,
    partitions: Vec<Partition>,
    /// Estimated mass of every partition, by ordinal, from the one
    /// [`MassTable`] built with the space.
    masses: Vec<u64>,
}

/// One node of the shape-combination recursion, as a work unit.
#[derive(Clone, Debug)]
struct Partition {
    /// Chosen-shape prefix: indices into the cost-sorted shape list,
    /// non-decreasing (the recursion's permutation breaking).
    prefix: Vec<usize>,
    /// Enumerate the whole subtree below the prefix, or only the prefix
    /// node itself (its children were split into their own partitions).
    subtree: bool,
}

/// Splits never go deeper than two chosen shapes: depth 2 already yields
/// O(shapes²) partitions, far more than any realistic worker count.
const MAX_SPLIT_DEPTH: usize = 2;

/// The order-preserving expansion of one subtree partition: Emit(p)
/// followed by Subtree(p + [j]) for every feasible continuation j —
/// exactly the recursion's own visit order. Splicing this in place of
/// the node keeps global partition order equal to the monolithic
/// enumeration under any sequence of splits; both split modes (depth
/// and mass) go through here so they can never drift apart.
fn expand_partition(
    node: &Partition,
    shapes: &[Shape],
    bound: usize,
    max_threads: usize,
) -> Vec<Partition> {
    let used: usize = node.prefix.iter().map(|&i| shapes[i].cost).sum();
    let budget_left = bound - used;
    let from = *node.prefix.last().expect("prefixes are non-empty");
    let mut expansion = vec![Partition {
        prefix: node.prefix.clone(),
        subtree: false,
    }];
    if node.prefix.len() < max_threads {
        for (j, shape) in shapes.iter().enumerate().skip(from) {
            if shape.cost > budget_left {
                break; // shapes are sorted by cost
            }
            let mut prefix = node.prefix.clone();
            prefix.push(j);
            expansion.push(Partition {
                prefix,
                subtree: true,
            });
        }
    }
    expansion
}

impl EnumSpace {
    /// Builds the space with one partition per first-thread shape.
    pub fn new(opts: &EnumOptions) -> EnumSpace {
        EnumSpace::with_target_partitions(opts, 0)
    }

    /// Builds the space, splitting subtrees (cheapest root shape first —
    /// those own the largest subtrees — and always order-preserving)
    /// until at least `target` partitions exist or nothing splittable
    /// remains.
    pub fn with_target_partitions(opts: &EnumOptions, target: usize) -> EnumSpace {
        let mut shapes = shapes(opts.bound, opts);
        shapes.sort_by_key(|s| s.cost); // identical to the monolithic sort
        let max_threads = opts.max_threads.unwrap_or(opts.bound);
        let mut partitions: Vec<Partition> = if max_threads == 0 {
            Vec::new()
        } else {
            (0..shapes.len())
                .map(|i| Partition {
                    prefix: vec![i],
                    subtree: true,
                })
                .collect()
        };
        while partitions.len() < target {
            // The first still-splittable subtree has the cheapest root.
            let Some(at) = partitions
                .iter()
                .position(|p| p.subtree && p.prefix.len() < MAX_SPLIT_DEPTH)
            else {
                break;
            };
            let node = partitions[at].clone();
            let expansion = expand_partition(&node, &shapes, opts.bound, max_threads);
            partitions.splice(at..=at, expansion);
        }
        let table = MassTable::new(&shapes, opts.bound, max_threads);
        let masses = partitions
            .iter()
            .map(|p| table.partition_mass(&shapes, max_threads, p))
            .collect();
        EnumSpace {
            shapes,
            opts: opts.clone(),
            max_threads,
            partitions,
            masses,
        }
    }

    /// Builds the space split by *estimated subtree mass*: any
    /// partition whose exact shape-combination node count exceeds
    /// `target_mass` is split (heaviest first, always
    /// order-preserving) until every partition fits the target or
    /// nothing splittable remains. Unlike the depth-2 split of
    /// [`EnumSpace::with_target_partitions`], this sees *into* the
    /// recursion: a cheap root shape owning a huge subtree is carved
    /// up, a costly root owning a sliver is left whole — so a parallel
    /// pool's work units carry comparable enumeration work.
    pub fn balanced(opts: &EnumOptions, target_mass: u64) -> EnumSpace {
        EnumSpace::balanced_impl(opts, Some(target_mass), usize::MAX)
    }

    /// Like [`EnumSpace::balanced`], deriving the mass target from a
    /// partition-count target: `target_mass = total_mass / target`. The
    /// convenience the parallel orchestrator uses (`jobs × partitions
    /// per worker` in, balanced work units out).
    pub fn balanced_for_target(opts: &EnumOptions, target: usize) -> EnumSpace {
        EnumSpace::balanced_impl(opts, None, target)
    }

    fn balanced_impl(opts: &EnumOptions, target_mass: Option<u64>, target: usize) -> EnumSpace {
        /// Far more partitions than any realistic worker count needs;
        /// bounds per-partition overhead when the mass target is tiny.
        const MAX_BALANCED_PARTITIONS: usize = 8192;
        let mut shapes = shapes(opts.bound, opts);
        shapes.sort_by_key(|s| s.cost); // identical to the monolithic sort
        let max_threads = opts.max_threads.unwrap_or(opts.bound);
        let table = MassTable::new(&shapes, opts.bound, max_threads);
        let mut partitions: Vec<Partition> = if max_threads == 0 {
            Vec::new()
        } else {
            (0..shapes.len())
                .map(|i| Partition {
                    prefix: vec![i],
                    subtree: true,
                })
                .collect()
        };
        let mut masses: Vec<u64> = partitions
            .iter()
            .map(|p| table.partition_mass(&shapes, max_threads, p))
            .collect();
        let total: u64 = masses.iter().fold(0u64, |a, &m| a.saturating_add(m));
        let target_mass = target_mass
            .unwrap_or_else(|| total / target.max(1) as u64)
            .max(1);
        while partitions.len() < MAX_BALANCED_PARTITIONS {
            // The heaviest partition above the target. A subtree whose
            // mass exceeds 1 always has children, so splitting strictly
            // reduces the maximum and the loop terminates.
            let Some(at) = (0..partitions.len())
                .filter(|&i| partitions[i].subtree && masses[i] > target_mass)
                .max_by_key(|&i| masses[i])
            else {
                break;
            };
            let node = partitions[at].clone();
            let expansion = expand_partition(&node, &shapes, opts.bound, max_threads);
            let expansion_masses: Vec<u64> = expansion
                .iter()
                .map(|p| table.partition_mass(&shapes, max_threads, p))
                .collect();
            partitions.splice(at..=at, expansion);
            masses.splice(at..=at, expansion_masses);
        }
        EnumSpace {
            shapes,
            opts: opts.clone(),
            max_threads,
            partitions,
            masses,
        }
    }

    /// The estimated mass of every partition, in ordinal order: the
    /// exact shape-combination node count each work unit covers
    /// (diagnostics and progress reporting). Computed once, from the
    /// table that built the space.
    pub fn masses(&self) -> &[u64] {
        &self.masses
    }

    /// Total estimated mass of the space: the sum of
    /// [`EnumSpace::masses`] — the denominator of mass-based progress
    /// reporting ([`mass_eta`]).
    pub fn total_mass(&self) -> u64 {
        self.masses.iter().fold(0u64, |a, &m| a.saturating_add(m))
    }

    /// The enumeration options the space was built for.
    pub fn options(&self) -> &EnumOptions {
        &self.opts
    }

    /// Number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The chosen-shape prefix of partition `ordinal` (diagnostics).
    pub fn partition_prefix(&self, ordinal: usize) -> &[usize] {
        &self.partitions[ordinal].prefix
    }

    /// Enumerates one partition, canonical keys included. Symmetry
    /// dedup is partition-local: concatenating all partitions in
    /// ordinal order and keeping the first occurrence of each key
    /// reproduces [`programs`] exactly (which [`EnumSpace::stream`]
    /// does, and the parallel planner's ordered dedup frontier relies
    /// on).
    pub fn enumerate_keyed(&self, ordinal: usize) -> Vec<KeyedProgram> {
        self.enumerate_keyed_within(ordinal, None)
    }

    /// Like [`EnumSpace::enumerate_keyed`], aborting early once
    /// `deadline` passes. An aborted partition's output is *partial* —
    /// callers that need the reproducible-prefix guarantee must check
    /// the deadline after the call and discard the result (treating the
    /// partition as cut) if it struck, which is what the parallel
    /// planner and the streaming pipeline do.
    pub fn enumerate_keyed_within(
        &self,
        ordinal: usize,
        deadline: Option<std::time::Instant>,
    ) -> Vec<KeyedProgram> {
        let part = &self.partitions[ordinal];
        let mut sink = EmitSink::new(&self.opts, true);
        let mut chosen = part.prefix.clone();
        if part.subtree {
            let used: usize = chosen.iter().map(|&i| self.shapes[i].cost).sum();
            let from = *chosen.last().expect("prefixes are non-empty");
            combine(
                &self.shapes,
                from,
                self.opts.bound - used,
                self.max_threads - chosen.len(),
                &mut chosen,
                &deadline,
                &mut sink,
            );
        } else if invlpgs_suffice(&self.shapes, &chosen) {
            assign_and_emit(&self.shapes, &chosen, &mut sink);
        }
        sink.out
    }

    /// A resumable iterator over the whole program space, one partition
    /// at a time — yields exactly the sequence of [`programs`] while
    /// keeping at most one partition's programs materialized.
    pub fn stream(&self) -> ProgramStream<'_> {
        ProgramStream {
            space: self,
            next_partition: 0,
            buffered: Vec::new().into_iter(),
            seen: BTreeSet::new(),
        }
    }
}

/// The streaming counterpart of [`programs`]: iterates the partitions
/// of an [`EnumSpace`] in order, carrying the cross-partition
/// first-occurrence dedup, so the yielded sequence is element-for-
/// element identical to the eager enumeration at any partition
/// granularity.
pub struct ProgramStream<'s> {
    space: &'s EnumSpace,
    next_partition: usize,
    buffered: std::vec::IntoIter<KeyedProgram>,
    seen: BTreeSet<Vec<u64>>,
}

impl Iterator for ProgramStream<'_> {
    type Item = Program;

    fn next(&mut self) -> Option<Program> {
        loop {
            if let Some(kp) = self.buffered.next() {
                if self.space.opts.symmetry_reduction {
                    let key = kp.key.expect("symmetry reduction keys every program");
                    if !self.seen.insert(key) {
                        continue; // first occurrence was in an earlier partition
                    }
                }
                return Some(kp.program);
            }
            if self.next_partition == self.space.partitions.len() {
                return None;
            }
            self.buffered = self.space.enumerate_keyed(self.next_partition).into_iter();
            self.next_partition += 1;
        }
    }
}

/// Resolves local VA numbers and PA symbols to global meanings and emits
/// canonical programs, deciding feasibility as early as its inputs
/// allow:
///
/// 1. enumerate the VA maps (injective per thread, first-use numbered);
/// 2. per VA map, match PTE writes to `INVLPG`s ([`remap_assignments`])
///    and keep the remaps whose spurious `INVLPG`s are useful
///    ([`spurious_invlpgs_useful`]). Both read only VAs and slot
///    positions, never PAs, so a VA map with no surviving remap skips
///    its whole PA cross-product;
/// 3. per PA assignment of a surviving VA map, emit one program per
///    surviving remap.
fn assign_and_emit(shapes: &[Shape], chosen: &[usize], sink: &mut EmitSink<'_>) {
    let opts = sink.opts;
    let ts: Vec<&Shape> = chosen.iter().map(|&i| &shapes[i]).collect();

    // Enumerate injective per-thread maps local VA → global VA with
    // canonical (first-use) numbering of fresh globals.
    let mut va_maps: Vec<Vec<Vec<usize>>> = vec![Vec::new()]; // per thread: map
    let mut globals_so_far = vec![0usize];
    for t in &ts {
        let mut next_maps = Vec::new();
        let mut next_globals = Vec::new();
        for (maps, &g) in va_maps.iter().zip(&globals_so_far) {
            // Build all injective maps of t.num_vas locals into globals,
            // where locals in order may reuse existing or take the next
            // fresh id.
            let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), g)];
            for _local in 0..t.num_vas {
                let mut grown = Vec::new();
                for (m, gg) in stack {
                    for cand in 0..=gg {
                        if m.contains(&cand) {
                            continue; // injective within the thread
                        }
                        let mut m2 = m.clone();
                        m2.push(cand);
                        grown.push((m2, gg.max(cand + 1)));
                    }
                }
                stack = grown;
            }
            for (m, gg) in stack {
                let mut full = maps.clone();
                full.push(m);
                next_maps.push(full);
                next_globals.push(gg);
            }
        }
        va_maps = next_maps;
        globals_so_far = next_globals;
    }

    let rmw: Vec<(usize, usize)> = ts
        .iter()
        .enumerate()
        .flat_map(|(t, s)| s.rmw.iter().map(move |&slot| (t, slot)))
        .collect();
    // One PA symbol per PTE write, consumed in (thread, slot) order.
    let num_syms: usize = ts.iter().map(|s| s.num_pa_syms).sum();

    for (vmap, &num_vas) in va_maps.iter().zip(&globals_so_far) {
        // Global VAs; PTE-write PAs stay local symbols until a PA
        // assignment fills them in.
        let va_threads: Vec<Vec<SlotOp>> = ts
            .iter()
            .zip(vmap)
            .map(|(shape, m)| {
                shape
                    .ops
                    .iter()
                    .map(|&op| match op {
                        SlotOp::Read { va, walk } => SlotOp::Read { va: m[va], walk },
                        SlotOp::Write { va, walk } => SlotOp::Write { va: m[va], walk },
                        SlotOp::Fence => SlotOp::Fence,
                        SlotOp::TlbFlush => SlotOp::TlbFlush,
                        SlotOp::Invlpg { va } => SlotOp::Invlpg { va: m[va] },
                        SlotOp::PteWrite { va, pa } => SlotOp::PteWrite { va: m[va], pa },
                    })
                    .collect()
            })
            .collect();
        let remaps: Vec<Vec<RemapPair>> = remap_assignments(&va_threads)
            .into_iter()
            .filter(|remap| spurious_invlpgs_useful(&va_threads, remap))
            .collect();
        if remaps.is_empty() {
            continue;
        }

        // Each symbol maps to Initial(v) for v < num_vas or Fresh(j) with
        // first-use numbering.
        let mut assignments: Vec<Vec<PaRef>> = vec![Vec::new()];
        for _ in 0..num_syms {
            let mut grown = Vec::new();
            for a in &assignments {
                let fresh_used = a
                    .iter()
                    .filter_map(|p| match p {
                        PaRef::Fresh(j) => Some(*j + 1),
                        PaRef::Initial(_) => None,
                    })
                    .max()
                    .unwrap_or(0);
                for v in 0..num_vas {
                    let mut a2 = a.clone();
                    a2.push(PaRef::Initial(v));
                    grown.push(a2);
                }
                for j in 0..=fresh_used {
                    let mut a2 = a.clone();
                    a2.push(PaRef::Fresh(j));
                    grown.push(a2);
                }
            }
            assignments = grown;
        }

        for assignment in &assignments {
            let mut threads = va_threads.clone();
            let mut sym_iter = assignment.iter();
            let mut ok = true;
            for op in threads.iter_mut().flatten() {
                if let SlotOp::PteWrite { va, pa } = op {
                    *pa = *sym_iter.next().expect("one symbol per PTE write");
                    if !opts.allow_identity_remap && *pa == PaRef::Initial(*va) {
                        ok = false;
                    }
                }
            }
            if !ok {
                continue;
            }
            for remap in &remaps {
                sink.emit(Program {
                    threads: threads.clone(),
                    remap: remap.clone(),
                    rmw: rmw.clone(),
                });
            }
        }
    }
}

/// One `(wpte, invlpg)` remap pair as `(thread, slot)` positions.
type RemapPair = ((usize, usize), (usize, usize));

/// All ways to give every PTE write exactly one same-VA `INVLPG` per core
/// (same-core one strictly later in po), each `INVLPG` serving at most one
/// PTE write.
fn remap_assignments(threads: &[Vec<SlotOp>]) -> Vec<Vec<RemapPair>> {
    let wptes: Vec<(usize, usize, usize)> = threads
        .iter()
        .enumerate()
        .flat_map(|(t, row)| {
            row.iter().enumerate().filter_map(move |(s, op)| match op {
                SlotOp::PteWrite { va, .. } => Some((t, s, *va)),
                _ => None,
            })
        })
        .collect();
    let invlpgs: Vec<(usize, usize, usize)> = threads
        .iter()
        .enumerate()
        .flat_map(|(t, row)| {
            row.iter().enumerate().filter_map(move |(s, op)| match op {
                SlotOp::Invlpg { va } => Some((t, s, *va)),
                _ => None,
            })
        })
        .collect();
    let num_threads = threads.len();
    let mut results = Vec::new();
    let mut partial: Vec<RemapPair> = Vec::new();
    let mut used: BTreeSet<(usize, usize)> = BTreeSet::new();

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        wptes: &[(usize, usize, usize)],
        invlpgs: &[(usize, usize, usize)],
        num_threads: usize,
        wi: usize,
        target_thread: usize,
        partial: &mut Vec<RemapPair>,
        used: &mut BTreeSet<(usize, usize)>,
        results: &mut Vec<Vec<RemapPair>>,
    ) {
        if wi == wptes.len() {
            results.push(partial.clone());
            return;
        }
        if target_thread == num_threads {
            recurse(
                wptes,
                invlpgs,
                num_threads,
                wi + 1,
                0,
                partial,
                used,
                results,
            );
            return;
        }
        let (wt, ws, wva) = wptes[wi];
        for &(it, is, iva) in invlpgs {
            if it != target_thread || iva != wva || used.contains(&(it, is)) {
                continue;
            }
            if it == wt && is <= ws {
                continue; // same-core INVLPG must follow the PTE write
            }
            used.insert((it, is));
            partial.push(((wt, ws), (it, is)));
            recurse(
                wptes,
                invlpgs,
                num_threads,
                wi,
                target_thread + 1,
                partial,
                used,
                results,
            );
            partial.pop();
            used.remove(&(it, is));
        }
    }

    recurse(
        &wptes,
        &invlpgs,
        num_threads,
        0,
        0,
        &mut partial,
        &mut used,
        &mut results,
    );
    results
}

/// Spurious (un-remapped) INVLPGs must be able to affect the execution: a
/// later same-VA access on the same core.
fn spurious_invlpgs_useful(threads: &[Vec<SlotOp>], remap: &[RemapPair]) -> bool {
    let remapped: BTreeSet<(usize, usize)> = remap.iter().map(|&(_, i)| i).collect();
    for (t, row) in threads.iter().enumerate() {
        for (s, op) in row.iter().enumerate() {
            let SlotOp::Invlpg { va } = op else { continue };
            if remapped.contains(&(t, s)) {
                continue;
            }
            let useful = row[s + 1..].iter().any(|later| {
                matches!(later, SlotOp::Read { va: v, .. } | SlotOp::Write { va: v, .. } if v == va)
            });
            if !useful {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts the pruned enumeration yields the unpruned oracle's
    /// program sequence, element for element.
    fn assert_matches_unpruned(opts: &EnumOptions, what: &str) {
        let pruned = programs(opts);
        let oracle = unpruned::programs(opts);
        let bound = opts.bound;
        if let Some(i) = (0..pruned.len().min(oracle.len())).find(|&i| pruned[i] != oracle[i]) {
            panic!(
                "{what}, bound {bound}: program {i} is {:?}, oracle has {:?}",
                pruned[i], oracle[i]
            );
        }
        assert_eq!(pruned.len(), oracle.len(), "{what}, bound {bound}");
    }

    #[test]
    fn pruned_enumeration_reproduces_the_unpruned_sequence() {
        for bound in 1..=5 {
            assert_matches_unpruned(&EnumOptions::new(bound), "defaults");
        }
    }

    #[test]
    fn pruned_enumeration_reproduces_the_unpruned_sequence_under_every_option() {
        type Tweak = fn(&mut EnumOptions);
        let tweaks: [(&str, Tweak); 5] = [
            ("fences off", |o| o.allow_fences = false),
            ("rmw off", |o| o.allow_rmw = false),
            ("identity remaps", |o| o.allow_identity_remap = true),
            ("symmetry off", |o| o.symmetry_reduction = false),
            ("two threads", |o| o.max_threads = Some(2)),
        ];
        for (what, tweak) in tweaks {
            for bound in 1..=4 {
                let mut opts = EnumOptions::new(bound);
                tweak(&mut opts);
                assert_matches_unpruned(&opts, what);
            }
        }
    }

    #[test]
    #[ignore = "about 30 s in release: the unpruned oracle materializes ~38 M programs"]
    fn pruned_enumeration_reproduces_the_unpruned_sequence_at_bound_6() {
        assert_matches_unpruned(&EnumOptions::new(6), "defaults");
    }

    #[test]
    fn mass_eta_projects_linearly_from_the_retired_rate() {
        use std::time::Duration;
        // Half the mass in 10 s → the other half in another 10 s.
        let eta = mass_eta(50, 100, Duration::from_secs(10)).expect("rate exists");
        assert!((eta.as_secs_f64() - 10.0).abs() < 1e-6, "{eta:?}");
        // No retired mass → no rate to project from; empty space likewise.
        assert_eq!(mass_eta(0, 100, Duration::from_secs(1)), None);
        assert_eq!(mass_eta(0, 0, Duration::from_secs(1)), None);
        // Fully retired → done, even if the clock reads zero.
        assert_eq!(mass_eta(100, 100, Duration::ZERO), Some(Duration::ZERO));
    }

    #[test]
    fn total_mass_sums_the_partition_masses() {
        let opts = EnumOptions::new(4);
        for space in [
            EnumSpace::with_target_partitions(&opts, 16),
            EnumSpace::balanced_for_target(&opts, 16),
        ] {
            let masses = space.masses();
            assert_eq!(masses.len(), space.partition_count());
            assert_eq!(space.total_mass(), masses.iter().sum::<u64>());
            assert!(space.total_mass() > 0);
        }
        // Splitting never changes the total mass, only its partitioning.
        let coarse = EnumSpace::new(&opts);
        let fine = EnumSpace::balanced_for_target(&opts, 64);
        assert_eq!(coarse.total_mass(), fine.total_mass());
    }

    #[test]
    fn skeletons_are_well_formed_program_shapes() {
        let opts = EnumOptions::new(4);
        let progs = programs(&opts);
        assert!(!progs.is_empty());
        for p in &progs {
            assert!(p.size() <= 4, "{p:?}");
            let skel = p.to_skeleton();
            // The skeleton may still need communication choices, but its
            // TLB structure must be sound.
            transform_core::derive::static_tlb_sources(&skel)
                .unwrap_or_else(|e| panic!("{p:?}: {e}"));
        }
    }

    #[test]
    fn smallest_read_program_exists() {
        let opts = EnumOptions::new(2);
        let progs = programs(&opts);
        // R x with its walk.
        assert!(progs
            .iter()
            .any(|p| { p.threads == vec![vec![SlotOp::Read { va: 0, walk: true }]] }));
        // No program exceeds the bound.
        assert!(progs.iter().all(|p| p.size() <= 2));
    }

    #[test]
    fn first_access_always_walks() {
        for p in programs(&EnumOptions::new(5)) {
            for row in &p.threads {
                let mut tlb = BTreeSet::new();
                for op in row {
                    match *op {
                        SlotOp::Read { va, walk } | SlotOp::Write { va, walk } => {
                            assert!(
                                walk || tlb.contains(&va),
                                "cold access without walk in {p:?}"
                            );
                            if walk {
                                tlb.insert(va);
                            }
                        }
                        SlotOp::Invlpg { va } => {
                            tlb.remove(&va);
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn ptwalk2_shape_is_enumerated_at_bound_4() {
        // Fig. 10a: WPTE x→b; INVLPG x; R x (+walk) — 4 events.
        let opts = EnumOptions::new(4);
        let progs = programs(&opts);
        let found = progs.iter().any(|p| {
            p.threads.len() == 1
                && p.threads[0]
                    == vec![
                        SlotOp::PteWrite {
                            va: 0,
                            pa: PaRef::Fresh(0),
                        },
                        SlotOp::Invlpg { va: 0 },
                        SlotOp::Read { va: 0, walk: true },
                    ]
                && p.remap == vec![((0, 0), (0, 1))]
        });
        assert!(found, "ptwalk2 program missing from bound-4 enumeration");
    }

    #[test]
    fn pte_writes_are_fully_remapped() {
        // Every PTE write carries exactly one INVLPG per core.
        let opts = EnumOptions::new(4);
        for p in programs(&opts) {
            let wptes: Vec<(usize, usize)> = p
                .threads
                .iter()
                .enumerate()
                .flat_map(|(t, row)| {
                    row.iter().enumerate().filter_map(move |(s, op)| {
                        matches!(op, SlotOp::PteWrite { .. }).then_some((t, s))
                    })
                })
                .collect();
            for w in wptes {
                let covered: BTreeSet<usize> = p
                    .remap
                    .iter()
                    .filter(|&&(wp, _)| wp == w)
                    .map(|&(_, (it, _))| it)
                    .collect();
                assert_eq!(covered.len(), p.threads.len(), "{p:?}");
            }
        }
    }

    #[test]
    fn symmetry_reduction_shrinks_the_set() {
        let mut with = EnumOptions::new(4);
        with.allow_fences = false;
        with.allow_rmw = false;
        let mut without = with.clone();
        without.symmetry_reduction = false;
        let n_with = programs(&with).len();
        let n_without = programs(&without).len();
        assert!(n_with <= n_without);
        assert!(n_with > 0);
    }

    #[test]
    fn stream_matches_eager_enumeration_at_any_partition_target() {
        for bound in [2usize, 3, 4] {
            for (fences, rmw) in [(false, false), (true, true)] {
                for symmetry in [true, false] {
                    let mut opts = EnumOptions::new(bound);
                    opts.allow_fences = fences;
                    opts.allow_rmw = rmw;
                    opts.symmetry_reduction = symmetry;
                    let eager = programs(&opts);
                    for target in [0usize, 1, 7, 1000] {
                        let space = EnumSpace::with_target_partitions(&opts, target);
                        let streamed: Vec<Program> = space.stream().collect();
                        assert_eq!(
                            eager, streamed,
                            "bound {bound} fences {fences} rmw {rmw} \
                             symmetry {symmetry} target {target}"
                        );
                    }
                }
            }
        }
    }

    /// Brute-force node count of the shape-combination recursion:
    /// every non-empty chosen multiset is one node, exactly what
    /// `MassTable` claims to count in O(1).
    fn count_nodes(shapes: &[Shape], from: usize, budget: usize, threads: usize) -> u64 {
        if threads == 0 {
            return 0;
        }
        let mut total = 0u64;
        for (j, shape) in shapes.iter().enumerate().skip(from) {
            if shape.cost > budget {
                break; // sorted by cost
            }
            total += 1 + count_nodes(shapes, j, budget - shape.cost, threads - 1);
        }
        total
    }

    #[test]
    fn mass_table_counts_the_recursion_exactly() {
        for bound in [2usize, 3, 4, 5] {
            for (fences, rmw) in [(false, false), (true, true)] {
                let mut opts = EnumOptions::new(bound);
                opts.allow_fences = fences;
                opts.allow_rmw = rmw;
                let mut all = shapes(bound, &opts);
                all.sort_by_key(|s| s.cost);
                let table = MassTable::new(&all, bound, bound);
                for from in [0usize, all.len() / 2, all.len()] {
                    for threads in 1..=bound {
                        assert_eq!(
                            table.descendants(from, bound, threads),
                            count_nodes(&all, from, bound, threads),
                            "bound {bound} fences {fences} rmw {rmw} \
                             from {from} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    /// The masses a space keeps from construction are the ones a fresh
    /// table computes for its partitions, whichever constructor split it.
    #[test]
    fn stored_masses_equal_a_fresh_mass_table() {
        for bound in 1usize..=5 {
            let mut opts = EnumOptions::new(bound);
            opts.allow_fences = true;
            opts.allow_rmw = true;
            for space in [
                EnumSpace::new(&opts),
                EnumSpace::with_target_partitions(&opts, 32),
                EnumSpace::balanced_for_target(&opts, 16),
                EnumSpace::balanced(&opts, 7),
            ] {
                let table = MassTable::new(&space.shapes, bound, space.max_threads);
                let fresh: Vec<u64> = space
                    .partitions
                    .iter()
                    .map(|p| table.partition_mass(&space.shapes, space.max_threads, p))
                    .collect();
                assert_eq!(space.masses(), fresh.as_slice(), "bound {bound}");
            }
        }
    }

    #[test]
    fn balanced_stream_matches_eager_enumeration_at_any_mass_target() {
        for bound in [3usize, 4] {
            for symmetry in [true, false] {
                let mut opts = EnumOptions::new(bound);
                opts.allow_fences = true;
                opts.allow_rmw = true;
                opts.symmetry_reduction = symmetry;
                let eager = programs(&opts);
                for target_mass in [0u64, 1, 5, 50, u64::MAX] {
                    let space = EnumSpace::balanced(&opts, target_mass);
                    let streamed: Vec<Program> = space.stream().collect();
                    assert_eq!(
                        eager, streamed,
                        "bound {bound} symmetry {symmetry} target_mass {target_mass}"
                    );
                }
                for target in [0usize, 1, 7, 64] {
                    let space = EnumSpace::balanced_for_target(&opts, target);
                    let streamed: Vec<Program> = space.stream().collect();
                    assert_eq!(
                        eager, streamed,
                        "bound {bound} symmetry {symmetry} target {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn balanced_partitions_respect_the_mass_target() {
        let mut opts = EnumOptions::new(4);
        opts.allow_fences = true;
        opts.allow_rmw = true;
        for target_mass in [1u64, 3, 10, 100] {
            let space = EnumSpace::balanced(&opts, target_mass);
            let masses = space.masses();
            assert_eq!(masses.len(), space.partition_count());
            assert!(
                masses.iter().all(|&m| m <= target_mass),
                "target {target_mass}: masses {masses:?}"
            );
            // Splitting conserves total mass: same recursion, different
            // work-unit boundaries.
            let whole: u64 = EnumSpace::balanced(&opts, u64::MAX).masses().iter().sum();
            assert_eq!(masses.iter().sum::<u64>(), whole);
        }
    }

    #[test]
    fn balanced_split_is_less_lopsided_than_depth_split() {
        // The tentpole claim, at a measurable scale: for the same
        // partition-count target, the heaviest mass-balanced partition
        // carries no more work than the heaviest depth-split one.
        let mut opts = EnumOptions::new(5);
        opts.allow_fences = true;
        opts.allow_rmw = true;
        let target = 64;
        let depth = EnumSpace::with_target_partitions(&opts, target);
        let mass = EnumSpace::balanced_for_target(&opts, target);
        let max_depth = depth.masses().iter().copied().max().unwrap_or(0);
        let max_mass = mass.masses().iter().copied().max().unwrap_or(0);
        assert!(
            max_mass <= max_depth,
            "mass split's heaviest partition ({max_mass}) exceeds depth split's ({max_depth})"
        );
    }

    #[test]
    fn partition_target_grows_the_partition_count() {
        let opts = EnumOptions::new(4);
        let shallow = EnumSpace::new(&opts);
        let deep = EnumSpace::with_target_partitions(&opts, shallow.partition_count() * 4);
        assert!(deep.partition_count() > shallow.partition_count());
        // Split partitions stay prefix-labelled and non-empty overall.
        let total: usize = (0..deep.partition_count())
            .map(|p| deep.enumerate_keyed(p).len())
            .sum();
        assert!(total >= programs(&opts).len());
    }

    #[test]
    fn keyed_enumeration_keys_every_write_bearing_program() {
        let mut opts = EnumOptions::new(4);
        opts.symmetry_reduction = false; // keys still required for planning
        let space = EnumSpace::new(&opts);
        for p in 0..space.partition_count() {
            for kp in space.enumerate_keyed(p) {
                assert_eq!(kp.has_write, kp.program.has_write());
                if kp.has_write {
                    assert_eq!(
                        kp.key.as_deref(),
                        Some(canonical_key(&kp.program).as_slice())
                    );
                } else {
                    assert!(kp.key.is_none());
                }
            }
        }
    }

    #[test]
    fn max_threads_zero_enumerates_nothing() {
        let mut opts = EnumOptions::new(4);
        opts.max_threads = Some(0);
        assert!(programs(&opts).is_empty());
        let space = EnumSpace::with_target_partitions(&opts, 16);
        assert_eq!(space.partition_count(), 0);
        assert_eq!(space.stream().count(), 0);
    }

    #[test]
    fn fences_never_dangle() {
        for p in programs(&EnumOptions::new(4)) {
            for row in &p.threads {
                if let Some(SlotOp::Fence) = row.last() {
                    panic!("trailing fence in {p:?}");
                }
                if let Some(SlotOp::Fence) = row.first() {
                    panic!("leading fence in {p:?}");
                }
            }
        }
    }

    /// The generate-and-filter enumerator `combine` and `assign_and_emit`
    /// were before the feasibility filters moved up: no `INVLPG`-count
    /// prune, and every PA assignment of every VA map is materialized
    /// before its remaps are matched and checked. Kept verbatim as an
    /// independent oracle for the pruned enumeration.
    mod unpruned {
        use super::super::*;

        /// [`programs`](super::super::programs) over the unpruned recursion.
        pub(super) fn programs(opts: &EnumOptions) -> Vec<Program> {
            let mut all_shapes = shapes(opts.bound, opts);
            all_shapes.sort_by_key(|s| s.cost);
            let max_threads = opts.max_threads.unwrap_or(opts.bound);
            let mut sink = EmitSink::new(opts, false);
            let mut chosen: Vec<usize> = Vec::new();
            combine(
                &all_shapes,
                0,
                opts.bound,
                max_threads,
                &mut chosen,
                &None,
                &mut sink,
            );
            sink.out.into_iter().map(|kp| kp.program).collect()
        }

        fn combine(
            shapes: &[Shape],
            from: usize,
            budget_left: usize,
            threads_left: usize,
            chosen: &mut Vec<usize>,
            deadline: &Option<std::time::Instant>,
            sink: &mut EmitSink<'_>,
        ) {
            if let Some(d) = deadline {
                if std::time::Instant::now() > *d {
                    return;
                }
            }
            if !chosen.is_empty() {
                assign_and_emit(shapes, chosen, sink);
            }
            if threads_left == 0 {
                return;
            }
            for i in from..shapes.len() {
                if shapes[i].cost > budget_left {
                    break; // shapes are sorted by cost
                }
                chosen.push(i);
                combine(
                    shapes,
                    i, // allow repeats; non-decreasing order breaks permutations
                    budget_left - shapes[i].cost,
                    threads_left - 1,
                    chosen,
                    deadline,
                    sink,
                );
                chosen.pop();
            }
        }

        fn assign_and_emit(shapes: &[Shape], chosen: &[usize], sink: &mut EmitSink<'_>) {
            let opts = sink.opts;
            let ts: Vec<&Shape> = chosen.iter().map(|&i| &shapes[i]).collect();

            // Enumerate injective per-thread maps local VA → global VA with
            // canonical (first-use) numbering of fresh globals.
            let mut va_maps: Vec<Vec<Vec<usize>>> = vec![Vec::new()]; // per thread: map
            let mut globals_so_far = vec![0usize];
            for t in &ts {
                let mut next_maps = Vec::new();
                let mut next_globals = Vec::new();
                for (maps, &g) in va_maps.iter().zip(&globals_so_far) {
                    // Build all injective maps of t.num_vas locals into globals,
                    // where locals in order may reuse existing or take the next
                    // fresh id.
                    let mut stack: Vec<(Vec<usize>, usize)> = vec![(Vec::new(), g)];
                    for _local in 0..t.num_vas {
                        let mut grown = Vec::new();
                        for (m, gg) in stack {
                            for cand in 0..=gg {
                                if m.contains(&cand) {
                                    continue; // injective within the thread
                                }
                                let mut m2 = m.clone();
                                m2.push(cand);
                                grown.push((m2, gg.max(cand + 1)));
                            }
                        }
                        stack = grown;
                    }
                    for (m, gg) in stack {
                        let mut full = maps.clone();
                        full.push(m);
                        next_maps.push(full);
                        next_globals.push(gg);
                    }
                }
                va_maps = next_maps;
                globals_so_far = next_globals;
            }

            for (vmap, &num_vas) in va_maps.iter().zip(&globals_so_far) {
                // Collect PA symbols in (thread, slot) order.
                let mut syms: Vec<(usize, usize)> = Vec::new(); // (thread, local sym)
                for (t, shape) in ts.iter().enumerate() {
                    for op in &shape.ops {
                        if let SlotOp::PteWrite {
                            pa: PaRef::Fresh(k),
                            ..
                        } = op
                        {
                            syms.push((t, *k));
                        }
                    }
                }
                // Each symbol maps to Initial(v) for v < num_vas or Fresh(j) with
                // first-use numbering.
                let mut assignments: Vec<Vec<PaRef>> = vec![Vec::new()];
                for _ in &syms {
                    let mut grown = Vec::new();
                    for a in &assignments {
                        let fresh_used = a
                            .iter()
                            .filter_map(|p| match p {
                                PaRef::Fresh(j) => Some(*j + 1),
                                PaRef::Initial(_) => None,
                            })
                            .max()
                            .unwrap_or(0);
                        for v in 0..num_vas {
                            let mut a2 = a.clone();
                            a2.push(PaRef::Initial(v));
                            grown.push(a2);
                        }
                        for j in 0..=fresh_used {
                            let mut a2 = a.clone();
                            a2.push(PaRef::Fresh(j));
                            grown.push(a2);
                        }
                    }
                    assignments = grown;
                }

                for assignment in &assignments {
                    // Materialize global threads.
                    let mut threads: Vec<Vec<SlotOp>> = Vec::new();
                    let mut sym_iter = assignment.iter();
                    let mut ok = true;
                    for (t, shape) in ts.iter().enumerate() {
                        let mut row = Vec::new();
                        for &op in &shape.ops {
                            let g = match op {
                                SlotOp::Read { va, walk } => SlotOp::Read {
                                    va: vmap[t][va],
                                    walk,
                                },
                                SlotOp::Write { va, walk } => SlotOp::Write {
                                    va: vmap[t][va],
                                    walk,
                                },
                                SlotOp::Fence => SlotOp::Fence,
                                SlotOp::TlbFlush => SlotOp::TlbFlush,
                                SlotOp::Invlpg { va } => SlotOp::Invlpg { va: vmap[t][va] },
                                SlotOp::PteWrite { va, .. } => {
                                    let pa = *sym_iter.next().expect("one symbol per PTE write");
                                    let va = vmap[t][va];
                                    if !opts.allow_identity_remap && pa == PaRef::Initial(va) {
                                        ok = false;
                                    }
                                    SlotOp::PteWrite { va, pa }
                                }
                            };
                            row.push(g);
                        }
                        threads.push(row);
                    }
                    if !ok {
                        continue;
                    }
                    let rmw: Vec<(usize, usize)> = ts
                        .iter()
                        .enumerate()
                        .flat_map(|(t, s)| s.rmw.iter().map(move |&slot| (t, slot)))
                        .collect();

                    for remap in remap_assignments(&threads) {
                        let prog = Program {
                            threads: threads.clone(),
                            remap,
                            rmw: rmw.clone(),
                        };
                        if !spurious_invlpgs_useful(&prog.threads, &prog.remap) {
                            continue;
                        }
                        sink.emit(prog);
                    }
                }
            }
        }
    }
}
