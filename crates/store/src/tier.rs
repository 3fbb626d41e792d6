//! The caching policy over the store: a local store directory backed
//! by an optional shared remote tier, with read-through population and
//! push-on-seal.
//!
//! The lookup order for each axiom of a [`Run`]:
//!
//! 1. **Local tier** — a sealed entry in the local [`Store`] is served
//!    directly (and validated record-by-record, as always). Corrupt,
//!    truncated, or version-mismatched entries are deleted and rebuilt —
//!    never served.
//! 2. **Remote tier** — on a local miss, the remote tier is asked for
//!    the sealed bytes. A remote hit is *installed into the local tier
//!    first* ([`Store::install_bytes`] fully validates every byte before
//!    publishing), then served from there — so the next lookup is a
//!    local hit, and corrupt remote bytes can never be served.
//! 3. **Synthesis** — every axiom missing everywhere joins one fused
//!    streamed run; each suite is sealed locally from the pool when the
//!    run's last batch retires, and the sealed bytes are *pushed* to the remote tier
//!    (best-effort), turning this run's work into a shared asset.
//!    Sealing and pushing are gated on
//!    [`transform_par::SuiteSink::run_done`] reporting a completed
//!    (un-timed-out) axiom — partial suites are never sealed, hence
//!    never pushed.
//!
//! Every temperature serves the suite *from the sealed artifact*: a
//! cold run seals and then reads its own entry back. A warm run
//! therefore reproduces the cold run's output byte for byte
//! (statistics included — `elapsed` is the recorded synthesis time, not
//! the read time), which is what makes cached results indistinguishable
//! from fresh ones.
//!
//! Remote failures are soft on this read path: an unreachable or
//! misbehaving remote degrades the tiered cache to the local-only one.
//! Only genuine local i/o failures surface as errors.

use crate::fingerprint::{suite_fingerprint, Fingerprint};
use crate::store::{read_suite, EntryMeta, PendingSuite, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use transform_par::{JournalEventKind, ProgressState, Run, SuiteSink};
use transform_synth::{ShardStats, Suite, SuiteRecord, SuiteStats};

/// How a cached lookup was satisfied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheStatus {
    /// Served from an existing sealed entry in the local tier.
    Hit,
    /// Served from the remote tier: the sealed bytes were fetched,
    /// fully validated into the local tier (read-through population),
    /// and streamed from there — the next lookup is a local [`Hit`].
    ///
    /// [`Hit`]: CacheStatus::Hit
    RemoteHit,
    /// No entry existed anywhere; synthesized and sealed.
    Miss,
    /// An entry existed but failed validation; it was deleted and the
    /// suite resynthesized and re-sealed.
    Rebuilt {
        /// What the validation failure was.
        reason: String,
    },
    /// Synthesized but *not* sealed (the run timed out, so the suite is
    /// partial and must never be served from cache).
    Uncached {
        /// Why the result was not persisted.
        reason: String,
    },
}

impl CacheStatus {
    /// Whether the suite came from a *local* sealed entry without
    /// synthesis or a remote fetch.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheStatus::Hit)
    }

    /// Whether the suite was served from the remote tier (and installed
    /// into the local one along the way).
    pub fn is_remote_hit(&self) -> bool {
        matches!(self, CacheStatus::RemoteHit)
    }
}

/// One tier of a layered suite cache: somewhere sealed-suite bytes can
/// be fetched from and published to, keyed by [`Fingerprint`].
///
/// Implementations: [`Store`] (a local directory) and
/// [`crate::HttpTier`] (a `transform serve` endpoint). Entries are
/// content-addressed and immutable, so tiers never need invalidation —
/// a fingerprint either resolves to the canonical bytes or to nothing.
pub trait CacheTier: Sync {
    /// A human-readable name for error messages and logs.
    fn describe(&self) -> String;

    /// The sealed bytes for `fp`, or `None` when this tier does not
    /// hold the entry. Callers must treat the bytes as untrusted until
    /// validated (e.g. by [`Store::install_bytes`]).
    ///
    /// # Errors
    ///
    /// Tier-specific trouble: i/o for directory tiers,
    /// [`StoreError::Remote`] for HTTP tiers.
    fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError>;

    /// Publishes sealed bytes for `fp` into this tier. Idempotent: the
    /// entry is immutable, so publishing an already-present fingerprint
    /// is a no-op-equivalent success.
    ///
    /// # Errors
    ///
    /// Tier-specific trouble, or validation failure for tiers that
    /// verify on ingest.
    fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError>;
}

impl CacheTier for Store {
    fn describe(&self) -> String {
        format!("local store {}", self.root().display())
    }

    fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        self.entry_bytes(fp)
    }

    fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError> {
        self.install_bytes(fp, bytes)
    }
}

impl CacheTier for crate::remote::HttpTier {
    fn describe(&self) -> String {
        format!("remote cache {}", self.url())
    }

    fn fetch(&self, fp: Fingerprint) -> Result<Option<Vec<u8>>, StoreError> {
        crate::remote::HttpTier::fetch(self, fp)
    }

    fn publish(&self, fp: Fingerprint, bytes: &[u8]) -> Result<(), StoreError> {
        crate::remote::HttpTier::publish(self, fp, bytes)
    }
}

/// A local suite store optionally backed by a shared remote tier.
///
/// # Examples
///
/// ```
/// use transform_core::spec::parse_mtm;
/// use transform_par::Run;
/// use transform_store::{Store, TieredCache};
/// use transform_synth::SynthOptions;
///
/// let mtm = parse_mtm(
///     "mtm demo {
///        axiom sc_per_loc: acyclic(rf | co | fr | po_loc)
///      }",
/// ).expect("spec parses");
/// let mut opts = SynthOptions::new(4);
/// opts.enumeration.allow_fences = false;
/// opts.enumeration.allow_rmw = false;
/// let dir = std::env::temp_dir().join(format!("tfs-tier-doc-{}", std::process::id()));
/// // No remote configured: the tiered cache degrades to the local store.
/// let cache = TieredCache::new(Store::open(&dir).expect("store opens"));
///
/// let run = Run::new(&mtm, &["sc_per_loc"], &opts, 2);
///
/// let cold = cache.serve(&run).expect("synthesizes");
/// let warm = cache.serve(&run).expect("reads");
/// let (cold, cold_status) = &cold["sc_per_loc"];
/// let (warm, warm_status) = &warm["sc_per_loc"];
/// assert!(!cold_status.is_hit());
/// assert!(warm_status.is_hit());
/// assert_eq!(cold.elts.len(), warm.elts.len());
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct TieredCache {
    local: Store,
    remote: Option<Box<dyn CacheTier>>,
}

impl TieredCache {
    /// A local-only tiered cache (no remote fallthrough).
    pub fn new(local: Store) -> TieredCache {
        TieredCache {
            local,
            remote: None,
        }
    }

    /// Adds a remote tier behind the local one.
    #[must_use]
    pub fn with_remote(mut self, remote: Box<dyn CacheTier>) -> TieredCache {
        self.remote = Some(remote);
        self
    }

    /// The local tier.
    pub fn local(&self) -> &Store {
        &self.local
    }

    /// The remote tier, when one is configured.
    pub fn remote(&self) -> Option<&dyn CacheTier> {
        self.remote.as_deref()
    }

    /// Serves every suite of `run` through the tiers: each axiom is
    /// looked up locally, then remotely (read-through: a remote hit is
    /// validated into the local tier and served from there), and all
    /// the misses are synthesized together in one fused streamed run —
    /// the program space is enumerated and examined once, and each
    /// missing axiom's suite is sealed (and pushed to the remote,
    /// best-effort) from the pool as the last batch retires. A timed-out
    /// axiom is served from its partial run and never sealed
    /// ([`CacheStatus::Uncached`]).
    ///
    /// With `run.progress` set, every tier-served axiom is marked
    /// cached ([`ProgressState::mark_cached`]) the moment its lookup
    /// resolves, and the misses' fused run publishes its counters as it
    /// executes — an observer watches cached axioms settle instantly
    /// while live ones stream partitions, mass, and ETA.
    ///
    /// # Errors
    ///
    /// Only genuine local i/o failures (unreadable store directory,
    /// failed writes); remote trouble and validation failures degrade
    /// to the next tier.
    ///
    /// # Panics
    ///
    /// Panics when any axiom is not part of `run.mtm`.
    pub fn serve(
        &self,
        run: &Run<'_>,
    ) -> Result<BTreeMap<String, (Suite, CacheStatus)>, StoreError> {
        let (local, remote) = (&self.local, self.remote.as_deref());
        let Run {
            mtm,
            opts,
            progress,
            ..
        } = *run;
        let mut out = BTreeMap::new();
        let mut misses: Vec<(&str, Fingerprint, CacheStatus)> = Vec::new();
        for &axiom in run.axioms {
            assert!(
                mtm.axiom(axiom).is_some(),
                "axiom `{axiom}` is not part of {}",
                mtm.name()
            );
            let fp = suite_fingerprint(mtm, axiom, opts);
            match lookup_tiers(local, remote, fp, axiom)? {
                Lookup::Served(suite, status) => {
                    // Cache-served axioms settle in the progress view the
                    // moment their lookup resolves — observers render them
                    // distinctly from the axioms about to synthesize live.
                    if let Some(progress) = progress {
                        progress.mark_cached(axiom, suite.elts.len());
                    }
                    out.insert(axiom.to_string(), (suite, status));
                }
                Lookup::Absent(status) => misses.push((axiom, fp, status)),
            }
        }
        if misses.is_empty() {
            return Ok(out);
        }

        // One fused run for every miss: enumerate and examine once for
        // every axiom, seal each suite from inside the pool when the last
        // chunk retires.
        let miss_axioms: Vec<&str> = misses.iter().map(|&(a, _, _)| a).collect();
        let gates: Vec<SealOnDone<'_>> = misses
            .iter()
            .map(|&(axiom, fp, _)| {
                let pending = local.begin(fp, EntryMeta::describe(mtm, axiom, opts))?;
                Ok(SealOnDone::new(local, remote, fp, pending, axiom, progress))
            })
            .collect::<Result<_, StoreError>>()?;
        let sink_refs: Vec<&dyn SuiteSink> = gates.iter().map(|g| g as &dyn SuiteSink).collect();
        let (all_stats, _metrics) = Run {
            axioms: &miss_axioms,
            ..*run
        }
        .stream(&sink_refs);

        for (((axiom, fp, status), gate), stats) in misses.into_iter().zip(gates).zip(all_stats) {
            let (pending, seal_outcome) = gate.into_parts();
            if stats.timed_out {
                let pending = pending.expect("timed-out runs are never sealed");
                let suite = pending.into_suite(&stats)?;
                let reason = "synthesis timed out; partial suites are never cached".into();
                out.insert(axiom.to_string(), (suite, CacheStatus::Uncached { reason }));
                continue;
            }
            // A completed axiom was sealed from the pool; surface any seal
            // failure now (local disk trouble is hard, as ever).
            seal_outcome.expect("run_done seals every completed axiom")?;
            let suite = read_entry(local, fp, axiom)?;
            out.insert(axiom.to_string(), (suite, status));
        }
        Ok(out)
    }
}

/// One axiom's outcome from the local and remote tiers.
enum Lookup {
    /// A tier held the (validated) entry.
    Served(Suite, CacheStatus),
    /// Nothing servable anywhere: synthesis is needed. The carried
    /// status is [`CacheStatus::Miss`], or [`CacheStatus::Rebuilt`]
    /// when a damaged local entry was deleted on the way.
    Absent(CacheStatus),
}

/// Tiers 1 and 2 of the lookup for one axiom: serve a sealed local
/// entry; on a local miss
/// fetch from the remote, validate *into* the local tier, and serve
/// from there. Every remote failure mode is soft — unreachable remote,
/// damaged payload, local validation refusing the bytes — and degrades
/// to synthesis; only genuine local disk trouble is hard.
fn lookup_tiers(
    local: &Store,
    remote: Option<&dyn CacheTier>,
    fp: Fingerprint,
    axiom: &str,
) -> Result<Lookup, StoreError> {
    let mut status = CacheStatus::Miss;

    // Tier 1: the local store.
    if local.contains(fp) {
        match read_entry(local, fp, axiom) {
            Ok(suite) => return Ok(Lookup::Served(suite, CacheStatus::Hit)),
            Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
            Err(invalid) => {
                local.remove(fp)?;
                status = CacheStatus::Rebuilt {
                    reason: invalid.to_string(),
                };
            }
        }
    }

    // Tier 2: the remote, read-through.
    if let Some(remote) = remote {
        if let Ok(Some(bytes)) = remote.fetch(fp) {
            match local.install_bytes(fp, &bytes) {
                Ok(()) => match read_entry(local, fp, axiom) {
                    Ok(suite) => return Ok(Lookup::Served(suite, CacheStatus::RemoteHit)),
                    Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                    Err(_invalid) => {
                        // The bytes validated internally but are not the
                        // requested suite (e.g. a misbehaving remote whose
                        // entry names another axiom): evict the installed
                        // entry and fall through to synthesis.
                        local.remove(fp)?;
                    }
                },
                Err(StoreError::Io(e)) => return Err(StoreError::Io(e)),
                Err(_invalid) => {
                    // Corrupt remote bytes: never installed, never
                    // served. Fall through to synthesis.
                }
            }
        }
    }
    Ok(Lookup::Absent(status))
}

/// The per-axiom [`SuiteSink`] of a fused cached run: spools shards
/// into the axiom's pending store entry and, the moment the run's
/// schedule retires ([`SuiteSink::run_done`] with a completed run),
/// seals the entry and pushes the sealed bytes to the remote tier
/// (best-effort).
struct SealOnDone<'a> {
    local: &'a Store,
    remote: Option<&'a dyn CacheTier>,
    fp: Fingerprint,
    /// Consumed by the seal; kept for [`PendingSuite::into_suite`] on
    /// timed-out runs.
    pending: Mutex<Option<PendingSuite>>,
    /// The seal's outcome, surfaced to the driver after the run.
    sealed: Mutex<Option<Result<(), StoreError>>>,
    /// The axiom this gate seals, for journal events.
    axiom: String,
    /// The run's journal target, when the run is observed.
    progress: Option<&'a Arc<ProgressState>>,
}

impl<'a> SealOnDone<'a> {
    fn new(
        local: &'a Store,
        remote: Option<&'a dyn CacheTier>,
        fp: Fingerprint,
        pending: PendingSuite,
        axiom: &str,
        progress: Option<&'a Arc<ProgressState>>,
    ) -> SealOnDone<'a> {
        SealOnDone {
            local,
            remote,
            fp,
            pending: Mutex::new(Some(pending)),
            sealed: Mutex::new(None),
            axiom: axiom.to_string(),
            progress,
        }
    }

    /// Dismantles the gate: the still-pending entry (present only when
    /// the run never sealed) and the seal outcome (present only when it
    /// did).
    fn into_parts(self) -> (Option<PendingSuite>, Option<Result<(), StoreError>>) {
        (
            self.pending
                .into_inner()
                .expect("pending lock is never poisoned"),
            self.sealed
                .into_inner()
                .expect("sealed lock is never poisoned"),
        )
    }
}

impl SuiteSink for SealOnDone<'_> {
    fn shard_done(&self, stats: ShardStats, records: Vec<SuiteRecord>) {
        if let Some(pending) = self
            .pending
            .lock()
            .expect("pending lock is never poisoned")
            .as_ref()
        {
            pending.shard_done(stats, records);
        }
    }

    fn run_done(&self, stats: &SuiteStats) {
        if stats.timed_out {
            return; // never sealed; the driver assembles the partial suite
        }
        let Some(pending) = self
            .pending
            .lock()
            .expect("pending lock is never poisoned")
            .take()
        else {
            return;
        };
        let result = pending.seal(stats).map(|_| ());
        if result.is_ok() {
            record_seal(self.progress, &self.axiom, self.local, self.fp);
            if let Some(remote) = self.remote {
                push_sealed(self.local, remote, self.fp, self.progress, &self.axiom);
            }
        }
        *self.sealed.lock().expect("sealed lock is never poisoned") = Some(result);
    }
}

/// The progress slot of `axiom`, for axiom-scoped journal events. The
/// slot table is small (one entry per axiom of the MTM), so a linear
/// scan is fine on this once-per-seal path.
fn axiom_slot(progress: &ProgressState, axiom: &str) -> Option<u32> {
    (0..progress.axiom_count())
        .find(|&slot| progress.axiom_name(slot) == Some(axiom))
        .and_then(|slot| u32::try_from(slot).ok())
}

/// Journals a [`JournalEventKind::Seal`] for `axiom` (`a` = sealed
/// entry bytes). A no-op when the run is unobserved or unjournaled.
fn record_seal(progress: Option<&Arc<ProgressState>>, axiom: &str, local: &Store, fp: Fingerprint) {
    let Some(progress) = progress else { return };
    let sealed_bytes = std::fs::metadata(local.entry_path(fp))
        .map(|m| m.len())
        .unwrap_or(0);
    progress.record(
        JournalEventKind::Seal,
        axiom_slot(progress, axiom),
        sealed_bytes,
        0,
        0,
    );
}

/// Publishes a freshly sealed entry to the remote tier and journals a
/// [`JournalEventKind::Push`] for `axiom` when it lands. Best-effort: a
/// failed push costs other machines a shared entry, never this run its
/// result.
fn push_sealed(
    local: &Store,
    remote: &dyn CacheTier,
    fp: Fingerprint,
    progress: Option<&Arc<ProgressState>>,
    axiom: &str,
) {
    let Ok(Some(bytes)) = local.entry_bytes(fp) else {
        return;
    };
    if remote.publish(fp, &bytes).is_ok() {
        if let Some(progress) = progress {
            progress.record(JournalEventKind::Push, axiom_slot(progress, axiom), 0, 0, 0);
        }
    }
}

/// Reads and fully validates one sealed local entry, also cross-checking
/// that its metadata names the expected axiom (a fingerprint collision
/// or a renamed file would otherwise serve the wrong suite).
pub(crate) fn read_entry(store: &Store, fp: Fingerprint, axiom: &str) -> Result<Suite, StoreError> {
    let reader = store.open_suite(fp)?;
    if reader.meta().axiom != axiom {
        return Err(StoreError::Corrupt(format!(
            "entry is for axiom `{}`, expected `{axiom}`",
            reader.meta().axiom
        )));
    }
    read_suite(reader)
}
