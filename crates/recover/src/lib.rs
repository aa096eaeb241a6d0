//! The snapshot codec for fixed-point evaluation state.
//!
//! Kreutzer's fixed-point semantics (Section 5) is stage-wise: an LFP/IFP/PFP
//! induction and a datalog evaluation both proceed through a chain of
//! region-tuple sets, and an abort (deadline, iteration cap, injected fault)
//! loses only the *current* stage — everything up to the last completed stage
//! is sound to persist and resume from. This crate defines that persistent
//! form: a versioned, checksummed binary [`Snapshot`] with two kinds,
//!
//! * [`FixpointSnapshot`] — per-fixpoint-subformula progress entries (the set
//!   of region tuples after the last completed stage) keyed by a structural
//!   fingerprint of the subformula and its outer region bindings, plus the
//!   evaluation statistics accumulated before the abort;
//! * [`DatalogSnapshot`] — the IDB relations after the last completed round,
//!   serialized structurally as packed DNF ([`IdbRepr::Packed`]); version-1
//!   files that went through the constraint-formula surface syntax still
//!   decode as [`IdbRepr::Text`].
//!
//! The layout is a fixed magic, a little-endian version word, an FNV-1a-64
//! checksum over the payload, and length-prefixed fields, written and read
//! with the workspace's shared byte codec (`lcdb_exec::codec`). Every way
//! the bytes can be damaged — truncation, bit flips, a future version,
//! trailing garbage — maps to a typed [`RecoverError`]; decoding never
//! panics and never yields a silently wrong snapshot.
//!
//! This crate is the codec only: it touches no file. Snapshots reach a disk
//! as blobs of the WAL-backed plan catalog (`lcdb_core::PlanCatalog`), which
//! brings the atomicity and the page checksums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcdb_exec::codec::{put_str, put_u32, put_u64, CodecError, Cursor};
use lcdb_exec::hash::fnv1a64;
use std::fmt;

/// Magic: the first eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"LCDBSNAP";

/// Current snapshot format version. Decoders accept [`MIN_VERSION`] through
/// this and reject anything else with [`RecoverError::UnsupportedVersion`]
/// rather than guessing at layouts. Version 2 added the packed DNF
/// representation for datalog IDB relations ([`IdbRepr::Packed`]); version 1
/// files, which stored every relation as surface syntax, still decode (as
/// [`IdbRepr::Text`]).
pub const VERSION: u32 = 2;

/// Oldest snapshot format version this build still decodes.
pub const MIN_VERSION: u32 = 1;

/// Typed decoding failures. Every corruption mode a snapshot can exhibit
/// maps to one of these; none of them panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoverError {
    /// The bytes do not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The version word names a format this build does not understand.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The payload bytes do not hash to the header checksum (bit flip,
    /// partial overwrite).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually present.
        actual: u64,
    },
    /// The bytes end before a declared field does (torn write, truncation).
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
        /// Absolute byte offset within the snapshot at which the bytes ran
        /// out.
        offset: u64,
        /// Which record was being decoded: `"header"` before the payload
        /// kind tag is known, then `"fixpoint"` or `"datalog"`.
        kind: &'static str,
    },
    /// Structurally invalid payload: unknown kind tag, non-UTF-8 string,
    /// trailing bytes, or an implausible length prefix.
    Malformed {
        /// Human-readable description of the defect.
        message: String,
    },
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::BadMagic => write!(f, "not a snapshot: bad magic"),
            RecoverError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            RecoverError::ChecksumMismatch { expected, actual } => write!(
                f,
                "snapshot checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            RecoverError::Truncated {
                context,
                offset,
                kind,
            } => {
                write!(
                    f,
                    "snapshot truncated at byte offset {offset} while reading {context} in {kind} record"
                )
            }
            RecoverError::Malformed { message } => write!(f, "malformed snapshot: {message}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<CodecError> for RecoverError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated {
                label,
                offset,
                context,
            } => RecoverError::Truncated {
                context,
                offset,
                kind: label,
            },
            CodecError::Malformed { context, message } => RecoverError::Malformed {
                message: format!("{context}: {message}"),
            },
        }
    }
}

/// Evaluation counters persisted alongside the stage state so a resumed run
/// carries over the work already spent (mirrors lcdb-core's `EvalStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistedStats {
    /// Completed fixed-point stages.
    pub fix_iterations: u64,
    /// Tuple membership tests inside fixpoints.
    pub fix_tuple_tests: u64,
    /// Quantifier-elimination calls.
    pub qe_calls: u64,
    /// Region-quantifier expansions.
    pub region_expansions: u64,
    /// Transitive-closure edge tests.
    pub tc_edge_tests: u64,
    /// Regions in the decomposition the run was evaluated against. Zero when
    /// the abort happened before any decomposition existed; otherwise a
    /// resume against a decomposition of a different size is rejected.
    pub regions: u64,
    /// Units (disjuncts, regions, tuples) quarantined by degraded mode.
    pub quarantined: u64,
}

/// Which fixed-point operator a progress entry belongs to. Resume refuses to
/// seed an entry into a loop of a different mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FixKind {
    /// Least fixed point (positive body, monotone chain).
    Lfp,
    /// Inflationary fixed point.
    Ifp,
    /// Partial fixed point.
    Pfp,
}

impl FixKind {
    fn to_byte(self) -> u8 {
        match self {
            FixKind::Lfp => 0,
            FixKind::Ifp => 1,
            FixKind::Pfp => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, RecoverError> {
        match b {
            0 => Ok(FixKind::Lfp),
            1 => Ok(FixKind::Ifp),
            2 => Ok(FixKind::Pfp),
            other => Err(RecoverError::Malformed {
                message: format!("unknown fixpoint mode tag {other}"),
            }),
        }
    }
}

/// The state of one fixpoint subformula after its last completed stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixProgress {
    /// Structural fingerprint of `(mode, set variable, tuple variables,
    /// body)` — identifies the subformula across processes.
    pub fingerprint: u64,
    /// Region ids bound to the body's free region variables at this
    /// evaluation site (fixpoints under region quantifiers are evaluated
    /// once per binding).
    pub bindings: Vec<u64>,
    /// The operator the entry was recorded under.
    pub mode: FixKind,
    /// Number of completed stages.
    pub stage: u64,
    /// Tuple arity (region ids per tuple).
    pub arity: u32,
    /// The region-tuple set after stage `stage`, sorted.
    pub tuples: Vec<Vec<u64>>,
}

/// Snapshot of an aborted region-logic evaluation: all fixpoint progress
/// entries recorded before the abort.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FixpointSnapshot {
    /// Structural fingerprint of the whole query; resume rejects a snapshot
    /// taken for a different query.
    pub query_fingerprint: u64,
    /// Counters accumulated before the abort.
    pub stats: PersistedStats,
    /// Per-fixpoint progress, one entry per `(fingerprint, bindings)` pair.
    pub entries: Vec<FixProgress>,
}

/// One linear atom of a packed DNF: `Σ coeffᵢ·varᵢ + constant  rel  0`.
/// Rationals travel as their canonical decimal/fraction rendering (the
/// `Display`/`FromStr` pair of `lcdb-arith`), which is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedAtom {
    /// Comparison tag: 0 `<`, 1 `≤`, 2 `=`, 3 `≥`, 4 `>`.
    pub rel: u8,
    /// Constant term of the linear expression, as a rational string.
    pub constant: String,
    /// `(variable, coefficient)` pairs, coefficient as a rational string.
    pub terms: Vec<(String, String)>,
}

/// How a datalog IDB relation is represented inside a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IdbRepr {
    /// Version-1 form: a constraint formula in `lcdb_logic` surface syntax,
    /// round-tripped through the parser on resume.
    Text(String),
    /// Version-2 form: the relation's DNF serialized structurally — a
    /// disjunction of conjunctions of [`PackedAtom`]s — with no detour
    /// through the pretty-printer or parser.
    Packed(Vec<Vec<PackedAtom>>),
}

/// One IDB relation in a datalog snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdbRelation {
    /// Predicate name.
    pub name: String,
    /// Attribute variables, in order.
    pub vars: Vec<String>,
    /// The defining constraint set.
    pub repr: IdbRepr,
}

/// Snapshot of an aborted datalog evaluation: the IDB after the last
/// completed round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatalogSnapshot {
    /// Structural fingerprint of the program's rules.
    pub program_fingerprint: u64,
    /// Rounds completed before the abort.
    pub rounds: u64,
    /// The IDB relations after round `rounds`.
    pub idb: Vec<IdbRelation>,
}

/// A resumable evaluation state, either kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Snapshot {
    /// Region-logic fixpoint progress.
    Fixpoint(FixpointSnapshot),
    /// Datalog IDB rounds.
    Datalog(DatalogSnapshot),
}

const KIND_FIXPOINT: u8 = 1;
const KIND_DATALOG: u8 = 2;

/// Bytes of fixed header before the payload: magic (8), version (4),
/// checksum (8), payload length (8).
const HEADER_LEN: u64 = 28;

const REPR_TEXT: u8 = 0;
const REPR_PACKED: u8 = 1;

impl Snapshot {
    /// The fingerprint of the query/program this snapshot belongs to.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Snapshot::Fixpoint(s) => s.query_fingerprint,
            Snapshot::Datalog(s) => s.program_fingerprint,
        }
    }

    /// Serialize to the byte layout (header + checksummed payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            Snapshot::Fixpoint(s) => {
                payload.push(KIND_FIXPOINT);
                put_u64(&mut payload, s.query_fingerprint);
                put_stats(&mut payload, &s.stats);
                put_u64(&mut payload, s.entries.len() as u64);
                for e in &s.entries {
                    put_u64(&mut payload, e.fingerprint);
                    payload.push(e.mode.to_byte());
                    put_u64(&mut payload, e.stage);
                    put_u64(&mut payload, e.bindings.len() as u64);
                    for &b in &e.bindings {
                        put_u64(&mut payload, b);
                    }
                    put_u64(&mut payload, u64::from(e.arity));
                    put_u64(&mut payload, e.tuples.len() as u64);
                    for t in &e.tuples {
                        for &r in t {
                            put_u64(&mut payload, r);
                        }
                    }
                }
            }
            Snapshot::Datalog(s) => {
                payload.push(KIND_DATALOG);
                put_u64(&mut payload, s.program_fingerprint);
                put_u64(&mut payload, s.rounds);
                put_u64(&mut payload, s.idb.len() as u64);
                for rel in &s.idb {
                    put_str(&mut payload, &rel.name);
                    put_u64(&mut payload, rel.vars.len() as u64);
                    for v in &rel.vars {
                        put_str(&mut payload, v);
                    }
                    match &rel.repr {
                        IdbRepr::Text(formula) => {
                            payload.push(REPR_TEXT);
                            put_str(&mut payload, formula);
                        }
                        IdbRepr::Packed(disjuncts) => {
                            payload.push(REPR_PACKED);
                            put_u64(&mut payload, disjuncts.len() as u64);
                            for conj in disjuncts {
                                put_u64(&mut payload, conj.len() as u64);
                                for atom in conj {
                                    payload.push(atom.rel);
                                    put_str(&mut payload, &atom.constant);
                                    put_u64(&mut payload, atom.terms.len() as u64);
                                    for (var, coeff) in &atom.terms {
                                        put_str(&mut payload, var);
                                        put_str(&mut payload, coeff);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(HEADER_LEN as usize + payload.len());
        out.extend_from_slice(&MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, fnv1a64(&payload));
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    /// Decode a snapshot, verifying magic, version, length, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, RecoverError> {
        if bytes.len() < MAGIC.len() {
            // Too short to even hold the magic: if what is there matches a
            // magic prefix this is a truncated snapshot, otherwise junk.
            if bytes == &MAGIC[..bytes.len()] {
                return Err(RecoverError::Truncated {
                    context: "magic",
                    offset: bytes.len() as u64,
                    kind: "header",
                });
            }
            return Err(RecoverError::BadMagic);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(RecoverError::BadMagic);
        }
        let mut cur = Cursor::with_base(&bytes[MAGIC.len()..], MAGIC.len() as u64, "header");
        let version = cur.u32("version")?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(RecoverError::UnsupportedVersion {
                found: version,
                supported: VERSION,
            });
        }
        let expected = cur.u64("checksum")?;
        let len = cur.u64("payload length")?;
        let payload = cur.take(usize::try_from(len).unwrap_or(usize::MAX), "payload")?;
        cur.done("snapshot")?;
        let actual = fnv1a64(payload);
        if actual != expected {
            return Err(RecoverError::ChecksumMismatch { expected, actual });
        }
        Self::decode_payload(payload, version)
    }

    fn decode_payload(payload: &[u8], version: u32) -> Result<Self, RecoverError> {
        // The payload begins right after the fixed 28-byte header (magic,
        // version, checksum, payload length), so offsets reported from here
        // are absolute positions within the snapshot.
        let mut cur = Cursor::with_base(payload, HEADER_LEN, "header");
        let kind = cur.u8("kind tag")?;
        let snap = match kind {
            KIND_FIXPOINT => {
                cur.set_label("fixpoint");
                let query_fingerprint = cur.u64("query fingerprint")?;
                let stats = get_stats(&mut cur)?;
                let entries = cur.seq("entry count", get_progress)?;
                Snapshot::Fixpoint(FixpointSnapshot {
                    query_fingerprint,
                    stats,
                    entries,
                })
            }
            KIND_DATALOG => {
                cur.set_label("datalog");
                let program_fingerprint = cur.u64("program fingerprint")?;
                let rounds = cur.u64("round count")?;
                let idb = cur.seq("relation count", |cur| get_relation(cur, version))?;
                Snapshot::Datalog(DatalogSnapshot {
                    program_fingerprint,
                    rounds,
                    idb,
                })
            }
            other => {
                return Err(RecoverError::Malformed {
                    message: format!("unknown snapshot kind tag {other}"),
                })
            }
        };
        cur.done("snapshot payload")?;
        Ok(snap)
    }

}

fn put_stats(out: &mut Vec<u8>, s: &PersistedStats) {
    for v in [
        s.fix_iterations,
        s.fix_tuple_tests,
        s.qe_calls,
        s.region_expansions,
        s.tc_edge_tests,
        s.regions,
        s.quarantined,
    ] {
        put_u64(out, v);
    }
}

fn get_progress(cur: &mut Cursor<'_>) -> Result<FixProgress, RecoverError> {
    let fingerprint = cur.u64("entry fingerprint")?;
    let mode = FixKind::from_byte(cur.u8("fixpoint mode")?)?;
    let stage = cur.u64("stage count")?;
    let bindings = cur.seq("binding count", |cur| cur.u64("binding"))?;
    let arity64 = cur.u64("arity")?;
    let arity = u32::try_from(arity64).map_err(|_| RecoverError::Malformed {
        message: format!("implausible tuple arity {arity64}"),
    })?;
    let tuples = cur.seq("tuple count", |cur| {
        (0..arity).map(|_| cur.u64("tuple element")).collect()
    })?;
    Ok(FixProgress {
        fingerprint,
        bindings,
        mode,
        stage,
        arity,
        tuples,
    })
}

fn get_relation(cur: &mut Cursor<'_>, version: u32) -> Result<IdbRelation, RecoverError> {
    let name = cur.string("relation name")?;
    let vars = cur.seq("variable count", |cur| cur.string("variable name"))?;
    // v1 stored every relation as surface syntax, with no representation tag.
    let tag = if version == 1 {
        REPR_TEXT
    } else {
        cur.u8("representation tag")?
    };
    let repr = match tag {
        REPR_TEXT => IdbRepr::Text(cur.string("relation formula")?),
        REPR_PACKED => IdbRepr::Packed(cur.seq("disjunct count", |cur| {
            cur.seq("atom count", get_atom)
        })?),
        other => {
            return Err(RecoverError::Malformed {
                message: format!("unknown representation tag {other}"),
            })
        }
    };
    Ok(IdbRelation { name, vars, repr })
}

fn get_atom(cur: &mut Cursor<'_>) -> Result<PackedAtom, RecoverError> {
    let rel = cur.u8("atom relation tag")?;
    if rel > 4 {
        return Err(RecoverError::Malformed {
            message: format!("unknown atom relation tag {rel}"),
        });
    }
    let constant = cur.string("atom constant")?;
    let terms = cur.seq("term count", |cur| {
        Ok::<_, CodecError>((cur.string("term variable")?, cur.string("term coefficient")?))
    })?;
    Ok(PackedAtom {
        rel,
        constant,
        terms,
    })
}

fn get_stats(cur: &mut Cursor<'_>) -> Result<PersistedStats, RecoverError> {
    Ok(PersistedStats {
        fix_iterations: cur.u64("stats.fix_iterations")?,
        fix_tuple_tests: cur.u64("stats.fix_tuple_tests")?,
        qe_calls: cur.u64("stats.qe_calls")?,
        region_expansions: cur.u64("stats.region_expansions")?,
        tc_edge_tests: cur.u64("stats.tc_edge_tests")?,
        regions: cur.u64("stats.regions")?,
        quarantined: cur.u64("stats.quarantined")?,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample_fixpoint() -> Snapshot {
        Snapshot::Fixpoint(FixpointSnapshot {
            query_fingerprint: 0xdead_beef_1234_5678,
            stats: PersistedStats {
                fix_iterations: 7,
                fix_tuple_tests: 311,
                qe_calls: 2,
                region_expansions: 40,
                tc_edge_tests: 9,
                regions: 11,
                quarantined: 1,
            },
            entries: vec![
                FixProgress {
                    fingerprint: 42,
                    bindings: vec![],
                    mode: FixKind::Lfp,
                    stage: 3,
                    arity: 2,
                    tuples: vec![vec![0, 1], vec![1, 0], vec![2, 2]],
                },
                FixProgress {
                    fingerprint: 43,
                    bindings: vec![5, 9],
                    mode: FixKind::Pfp,
                    stage: 1,
                    arity: 1,
                    tuples: vec![vec![4]],
                },
            ],
        })
    }

    fn sample_datalog() -> Snapshot {
        Snapshot::Datalog(DatalogSnapshot {
            program_fingerprint: 99,
            rounds: 4,
            idb: vec![IdbRelation {
                name: "reach".into(),
                vars: vec!["x".into(), "y".into()],
                repr: IdbRepr::Text("x < y and y < 1".into()),
            }],
        })
    }

    fn sample_packed() -> Snapshot {
        Snapshot::Datalog(DatalogSnapshot {
            program_fingerprint: 7,
            rounds: 2,
            idb: vec![IdbRelation {
                name: "reach".into(),
                vars: vec!["x".into(), "y".into()],
                repr: IdbRepr::Packed(vec![
                    vec![
                        PackedAtom {
                            rel: 0,
                            constant: "-1/2".into(),
                            terms: vec![("x".into(), "1".into()), ("y".into(), "-3".into())],
                        },
                        PackedAtom {
                            rel: 2,
                            constant: "0".into(),
                            terms: vec![("y".into(), "2/7".into())],
                        },
                    ],
                    // An empty conjunct (true) and a constant atom.
                    vec![],
                    vec![PackedAtom {
                        rel: 4,
                        constant: "5".into(),
                        terms: vec![],
                    }],
                ]),
            }],
        })
    }

    #[test]
    fn roundtrip_fixpoint() {
        let s = sample_fixpoint();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn roundtrip_datalog() {
        let s = sample_datalog();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn roundtrip_packed_datalog() {
        let s = sample_packed();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    /// Hand-encode a version-1 datalog payload (no representation tag, bare
    /// formula string) and check this build still reads it as `Text`.
    #[test]
    fn version1_datalog_still_decodes() {
        let mut payload = vec![2u8]; // kind: datalog
        payload.extend_from_slice(&99u64.to_le_bytes()); // program fingerprint
        payload.extend_from_slice(&4u64.to_le_bytes()); // rounds
        payload.extend_from_slice(&1u64.to_le_bytes()); // relation count
        let put_s = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        put_s(&mut payload, "reach");
        payload.extend_from_slice(&2u64.to_le_bytes()); // var count
        put_s(&mut payload, "x");
        put_s(&mut payload, "y");
        put_s(&mut payload, "x < y and y < 1");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version 1
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert_eq!(Snapshot::decode(&bytes).unwrap(), sample_datalog());
    }

    #[test]
    fn unknown_repr_and_rel_tags_rejected() {
        // Current-version payload with an unknown representation tag.
        let mut payload = vec![2u8];
        payload.extend_from_slice(&0u64.to_le_bytes()); // fingerprint
        payload.extend_from_slice(&0u64.to_le_bytes()); // rounds
        payload.extend_from_slice(&1u64.to_le_bytes()); // relation count
        payload.extend_from_slice(&1u64.to_le_bytes()); // name length
        payload.push(b'r');
        payload.extend_from_slice(&0u64.to_le_bytes()); // var count
        payload.push(9); // bogus repr tag
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(RecoverError::Malformed { .. })
        ));

        // Packed atom with an out-of-range relation tag.
        let mut payload = vec![2u8];
        payload.extend_from_slice(&0u64.to_le_bytes()); // fingerprint
        payload.extend_from_slice(&0u64.to_le_bytes()); // rounds
        payload.extend_from_slice(&1u64.to_le_bytes()); // relation count
        payload.extend_from_slice(&1u64.to_le_bytes()); // name length
        payload.push(b'r');
        payload.extend_from_slice(&0u64.to_le_bytes()); // var count
        payload.push(REPR_PACKED);
        payload.extend_from_slice(&1u64.to_le_bytes()); // disjunct count
        payload.extend_from_slice(&1u64.to_le_bytes()); // atom count
        payload.push(200); // bogus rel tag
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(RecoverError::Malformed { .. })
        ));
    }

    #[test]
    fn roundtrip_empty_entries() {
        let s = Snapshot::Fixpoint(FixpointSnapshot::default());
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_fixpoint().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Snapshot::decode(&bytes), Err(RecoverError::BadMagic));
        assert_eq!(Snapshot::decode(b"junk"), Err(RecoverError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample_fixpoint().encode();
        bytes[8] = 0x7f; // low byte of the LE version word
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(RecoverError::UnsupportedVersion {
                found: 0x7f,
                supported: VERSION
            })
        );
    }

    #[test]
    fn every_truncation_is_typed() {
        // Chop the file at every possible length: each prefix must decode to
        // a typed error (truncated/short header), never panic, never Ok.
        let bytes = sample_fixpoint().encode();
        for n in 0..bytes.len() {
            let r = Snapshot::decode(&bytes[..n]);
            match r {
                Err(RecoverError::Truncated { offset, .. }) => {
                    // The reported offset must point inside the prefix the
                    // decoder actually saw.
                    assert!(
                        offset <= n as u64,
                        "prefix of {n} bytes reported truncation at offset {offset}"
                    );
                }
                Err(_) => {}
                Ok(_) => panic!("prefix of {n} bytes decoded successfully"),
            }
        }
    }

    #[test]
    fn truncation_corpus_reports_offset_and_record_kind() {
        // A corpus of *internally consistent* truncations: chop the payload
        // at every length and rebuild a valid header (correct length and
        // checksum) around the prefix, so decoding reaches the payload
        // decoder instead of failing the outer length check. Every chop must
        // produce a typed error; every `Truncated` must carry an in-range
        // byte offset and name the record kind being decoded.
        for (snap, want_kind) in [
            (sample_fixpoint(), "fixpoint"),
            (sample_datalog(), "datalog"),
            (sample_packed(), "datalog"),
        ] {
            let full = snap.encode();
            let payload = &full[HEADER_LEN as usize..];
            let mut saw_truncated = 0usize;
            for n in 0..payload.len() {
                let prefix = &payload[..n];
                let mut bytes = Vec::with_capacity(HEADER_LEN as usize + n);
                bytes.extend_from_slice(&MAGIC);
                bytes.extend_from_slice(&VERSION.to_le_bytes());
                bytes.extend_from_slice(&fnv1a64(prefix).to_le_bytes());
                bytes.extend_from_slice(&(n as u64).to_le_bytes());
                bytes.extend_from_slice(prefix);
                match Snapshot::decode(&bytes) {
                    Ok(_) => panic!("{want_kind}: payload chopped at {n} decoded successfully"),
                    Err(RecoverError::Truncated {
                        context,
                        offset,
                        kind,
                    }) => {
                        saw_truncated += 1;
                        assert!(!context.is_empty());
                        // Offsets are absolute: at or past the payload start,
                        // never past the end of the chopped file.
                        assert!(
                            (HEADER_LEN..=HEADER_LEN + n as u64).contains(&offset),
                            "{want_kind}: chop {n} reported offset {offset}"
                        );
                        if n == 0 {
                            assert_eq!(kind, "header", "kind tag itself missing");
                        } else {
                            assert_eq!(
                                kind, want_kind,
                                "{want_kind}: chop {n} misreported record kind"
                            );
                        }
                    }
                    // Some chops land on a length prefix whose declared count
                    // exceeds the remaining bytes: those are Malformed.
                    Err(RecoverError::Malformed { .. }) => {}
                    Err(other) => {
                        panic!("{want_kind}: chop {n} gave unexpected error {other}")
                    }
                }
            }
            assert!(
                saw_truncated > 0,
                "{want_kind}: corpus produced no Truncated errors"
            );
        }
    }

    #[test]
    fn payload_bit_flip_is_checksum_mismatch() {
        let bytes = sample_fixpoint().encode();
        // Flip one bit in every payload byte; all must fail the checksum.
        for i in 28..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(
                matches!(
                    Snapshot::decode(&b),
                    Err(RecoverError::ChecksumMismatch { .. })
                ),
                "flip at {i} not caught"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample_datalog().encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(RecoverError::Malformed { .. })
        ));
    }

    #[test]
    fn implausible_length_prefix_rejected_without_allocation() {
        // A corrupt entry count far beyond the payload size must be caught
        // by the plausibility check (and re-checksummed to get there).
        let mut payload = vec![1u8]; // kind
        payload.extend_from_slice(&[0u8; 8]); // query fp
        payload.extend_from_slice(&[0u8; 56]); // stats
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // entry count
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(RecoverError::Malformed { .. })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // The header checksum is the FNV-1a 64 of the payload.
        let bytes = sample_fixpoint().encode();
        let mut recorded = [0u8; 8];
        recorded.copy_from_slice(&bytes[12..20]);
        assert_eq!(u64::from_le_bytes(recorded), fnv1a64(&bytes[HEADER_LEN as usize..]));
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The byte layout is frozen: stores written by earlier builds hold
    /// these blobs. Both literals were captured from the encoder before the
    /// codec moved to `lcdb-exec`.
    #[test]
    fn encoding_matches_golden_bytes() {
        assert_eq!(
            hex(&sample_fixpoint().encode()),
            "4c434442534e415002000000de628892600af42ae30000000000000001785634\
             12efbeadde070000000000000037010000000000000200000000000000280000\
             000000000009000000000000000b000000000000000100000000000000020000\
             00000000002a0000000000000000030000000000000000000000000000000200\
             0000000000000300000000000000000000000000000001000000000000000100\
             0000000000000000000000000000020000000000000002000000000000002b00\
             0000000000000201000000000000000200000000000000050000000000000009\
             00000000000000010000000000000001000000000000000400000000000000"
        );
        assert_eq!(
            hex(&sample_packed().encode()),
            "4c434442534e4150020000006082526e2559c6d9d30000000000000002070000\
             0000000000020000000000000001000000000000000500000000000000726561\
             6368020000000000000001000000000000007801000000000000007901030000\
             000000000002000000000000000004000000000000002d312f32020000000000\
             0000010000000000000078010000000000000031010000000000000079020000\
             00000000002d3302010000000000000030010000000000000001000000000000\
             00790300000000000000322f3700000000000000000100000000000000040100\
             000000000000350000000000000000"
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            RecoverError::BadMagic,
            RecoverError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            RecoverError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            RecoverError::Truncated {
                context: "payload",
                offset: 28,
                kind: "header",
            },
            RecoverError::Malformed {
                message: "x".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
