//! Run-journal decoders against bytes they did not write: arbitrary
//! field bytes behind a valid frame must fail cleanly (never panic), and
//! journals in an older format's layout must be refused by version —
//! never misread as the current layout.
//!
//! `decode_run_list` also parses the `GET /v1/runs` body of a remote
//! server, so its input is untrusted.

use proptest::collection::vec;
use proptest::prelude::*;
use transform_par::{AxiomState, JournalEvent, JournalEventKind};
use transform_store::codec::{fnv1a64, Enc};
use transform_store::{
    decode_run, decode_run_list, encode_run, encode_run_list, RunAxiom, RunJournal, RunManifest,
    RunOutcome, Store, StoreError, FORMAT_VERSION,
};

fn manifest(id: u64) -> RunManifest {
    RunManifest {
        id,
        mtm: "x86t_elt".into(),
        bound: 6,
        allow_fences: true,
        allow_rmw: true,
        jobs: 2,
        started_unix_micros: 1_700_000_000_000_000 + id,
        elapsed_micros: 187_000,
        outcome: RunOutcome::Complete,
        partitions_total: 33_044,
        partitions_retired: 33_044,
        mass_total: 123_456,
        mass_retired: 123_456,
        programs: 2_725,
        items_planned: 2_584,
        batches: 500,
        peak_live_candidates: 163,
        cut_at_partition: None,
        axioms: vec![
            RunAxiom {
                name: "sc_per_loc".into(),
                state: AxiomState::Complete,
                elts: 54,
                items_examined: 2_584,
                batches_done: 500,
            },
            RunAxiom {
                name: "invlpg".into(),
                state: AxiomState::Cached,
                elts: 23,
                items_examined: 0,
                batches_done: 0,
            },
        ],
    }
}

fn journal(id: u64) -> RunJournal {
    RunJournal {
        manifest: manifest(id),
        events: vec![
            JournalEvent {
                t_micros: 10,
                kind: JournalEventKind::RunStart,
                axiom: None,
                a: 33_044,
                b: 123_456,
                c: 2,
            },
            JournalEvent {
                t_micros: 950,
                kind: JournalEventKind::BatchExamined,
                axiom: Some(0),
                a: 92,
                b: 3,
                c: 900,
            },
        ],
    }
}

/// `payload` behind `prefix` (magic and version), with a recomputed
/// FNV-1a trailer, so the bytes pass the frame checks and reach the
/// field decoders.
fn framed(prefix: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = prefix.to_vec();
    bytes.extend_from_slice(payload);
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Splits a valid encoding into its 12-byte magic-and-version prefix
/// and the field bytes between it and the trailer.
fn split(encoded: &[u8]) -> (&[u8], &[u8]) {
    encoded[..encoded.len() - 8].split_at(12)
}

/// Decodes `bytes` both ways. A decoder may refuse them, but it must
/// not panic, and whatever it accepts must survive a re-encoding.
fn decode_both(bytes: &[u8]) {
    if let Ok(journal) = decode_run(bytes) {
        let again = decode_run(&encode_run(&journal)).expect("re-encoded journal decodes");
        assert_eq!(again, journal);
    }
    if let Ok(list) = decode_run_list(bytes) {
        let encoded = encode_run_list(&list);
        let again = decode_run_list(&encoded).expect("re-encoded list decodes");
        assert_eq!(encode_run_list(&again), encoded);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes after a valid journal or list prefix.
    #[test]
    fn arbitrary_fields_never_panic(payload in vec(0u8..=255, 0..512)) {
        let run = encode_run(&journal(1));
        let list = encode_run_list(&[manifest(1)]);
        for encoded in [&run, &list] {
            decode_both(&framed(split(encoded).0, &payload));
        }
    }

    /// A valid journal or list with a few fields overwritten and, when
    /// `cut` falls inside it, its tail cut there: the damage lands deep
    /// in the fields,
    /// past the fixed-width id and the first strings. An edit writes one
    /// raw byte or, to reach the range checks, a whole varint of any
    /// width.
    #[test]
    fn damaged_fields_never_panic(
        edits in vec((0usize..4096, 0u64..=u64::MAX, any::<bool>()), 1..6),
        cut in 0usize..256,
    ) {
        let run = encode_run(&journal(1));
        let list = encode_run_list(&[manifest(1), manifest(2)]);
        for encoded in [&run, &list] {
            let (prefix, fields) = split(encoded);
            let mut fields = fields.to_vec();
            for &(at, value, raw) in &edits {
                let at = at % fields.len();
                let patch = if raw {
                    vec![value as u8]
                } else {
                    let mut e = Enc::new();
                    e.varint(value);
                    e.into_bytes()
                };
                let end = (at + patch.len()).min(fields.len());
                fields.splice(at..end, patch);
            }
            fields.truncate(cut);
            decode_both(&framed(prefix, &fields));
        }
    }
}

/// One manifest in the version-2 layout: today's fields plus the
/// size the batch autotuner settled on, a varint after
/// `peak_live_candidates`.
fn encode_manifest_v2(e: &mut Enc, m: &RunManifest, tuned_batch: u64) {
    e.u64(m.id);
    e.string(&m.mtm);
    e.size(m.bound);
    e.boolean(m.allow_fences);
    e.boolean(m.allow_rmw);
    e.size(m.jobs);
    e.varint(m.started_unix_micros);
    e.varint(m.elapsed_micros);
    e.u8(match m.outcome {
        RunOutcome::Running => 0,
        RunOutcome::Complete => 1,
        RunOutcome::Cut => 2,
        RunOutcome::Crashed => 3,
    });
    e.varint(m.partitions_total);
    e.varint(m.partitions_retired);
    e.varint(m.mass_total);
    e.varint(m.mass_retired);
    e.varint(m.programs);
    e.varint(m.items_planned);
    e.varint(m.batches);
    e.varint(m.peak_live_candidates);
    e.varint(tuned_batch);
    match m.cut_at_partition {
        Some(p) => {
            e.boolean(true);
            e.varint(p);
        }
        None => e.boolean(false),
    }
    e.size(m.axioms.len());
    for axiom in &m.axioms {
        e.string(&axiom.name);
        e.u8(match axiom.state {
            AxiomState::Pending => 0,
            AxiomState::Running => 1,
            AxiomState::Complete => 2,
            AxiomState::Cut => 3,
            AxiomState::Cached => 4,
        });
        e.varint(axiom.elts);
        e.varint(axiom.items_examined);
        e.varint(axiom.batches_done);
    }
}

/// A whole journal in the version-2 layout, labelled `version`.
fn journal_v2(j: &RunJournal, version: u32) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(&encode_run(j)[..8]);
    e.u32(version);
    encode_manifest_v2(&mut e, &j.manifest, 1_432);
    e.size(j.events.len());
    let mut prev = 0;
    for event in &j.events {
        e.varint(event.t_micros - prev);
        prev = event.t_micros;
        e.u8(event.kind.as_u8());
        e.varint(event.axiom.map_or(0, |slot| u64::from(slot) + 1));
        e.varint(event.a);
        e.varint(event.b);
        e.varint(event.c);
    }
    framed(&e.into_bytes(), &[])
}

/// A run list in the version-2 layout, labelled `version`.
fn list_v2(manifests: &[RunManifest], version: u32) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(&encode_run_list(&[])[..8]);
    e.u32(version);
    e.size(manifests.len());
    for m in manifests {
        encode_manifest_v2(&mut e, m, 1_432);
    }
    framed(&e.into_bytes(), &[])
}

#[test]
fn version_2_journals_and_run_lists_are_refused() {
    let j = journal(7);
    let run = journal_v2(&j, 2);
    let list = list_v2(&[manifest(7), manifest(8)], 2);
    assert!(matches!(
        decode_run(&run),
        Err(StoreError::Version { found: 2 })
    ));
    assert!(matches!(
        decode_run_list(&list),
        Err(StoreError::Version { found: 2 })
    ));

    // The layouts differ, so the version check is what keeps them out:
    // labelled as the current version (checksums recomputed), the old
    // final batch size lands where the cut flag is read.
    assert!(decode_run(&journal_v2(&j, FORMAT_VERSION)).is_err());
    assert!(decode_run_list(&list_v2(&[manifest(7), manifest(8)], FORMAT_VERSION)).is_err());

    // In a store, the version-2 journal is skipped by listings and
    // refused by a direct read, while a current journal next to it is
    // listed.
    let dir = std::env::temp_dir().join(format!("tfs-journal-v2-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::open(&dir).expect("store opens");
    std::fs::write(store.run_path(7), &run).expect("plants the stale journal");
    store
        .write_run(&journal(9))
        .expect("writes a current journal");
    match store.read_run(7) {
        Err(StoreError::Version { found }) => assert_eq!(found, 2),
        Err(other) => panic!("expected a version error, got {other}"),
        Ok(_) => panic!("expected a version error, got a journal"),
    }
    let listed: Vec<u64> = store.runs().expect("lists").iter().map(|m| m.id).collect();
    assert_eq!(listed, vec![9]);
    std::fs::remove_dir_all(&dir).ok();
}
