//! The incremental recompilation cache (paper §3's summary-file design).
//!
//! Two tiers share one set of content keys — phase 1 on a fingerprint of
//! (module name, source text, optimize flag), phase 2 on (IR fingerprint,
//! database-slice fingerprint):
//!
//! * an **in-memory** tier holding entries under those keys, plus one
//!   slot holding the most recent program analysis, keyed on the module
//!   summaries and the analyzer options — serving repeated builds inside
//!   one process. Because a key names content, not a module, two branches
//!   of one project (or a baseline and a profile-fed build) keep their
//!   entries side by side. Each tier keeps a recency index, and an entry
//!   that none of the last [`RETAINED_BUILDS`] builds used leaves memory:
//!   that retention rule is the tier's only bound. Beside them, memory
//!   only, the **`.vx` tier** holds linked programs' `.vx` text under the
//!   phase-2 keys of their objects (see [`crate::compile_artifact`]): the
//!   first link of a key list leaves a key-only marker, and only a second
//!   link stores the text, so a one-off program never holds its text;
//! * an optional **on-disk** tier ([`DiskCache`], enabled through
//!   [`CompilationCache::with_disk`] / `cminc --cache-dir`) holding the
//!   same entries under the same keys, as frames in one append-only pack
//!   with an append-only index of where each key's frame lies, so the
//!   fingerprints persist across *process* invocations: a one-module edit
//!   in a fresh `cminc` run recompiles only modules whose directive slices
//!   moved, and skips the analyzer when no summary changed. A build reads
//!   the index once and each disk hit with one positioned read; any number
//!   of processes may append to one directory.
//!
//! A disk hit decodes its frame once, for the build that asked, and the
//! memory tier keeps only the frame: the build alone holds the decoded
//! summary, object or analysis, so it moves them into what it returns
//! rather than copying them out of memory. The next lookup of the key
//! decodes the held frame into memory and counts a memory hit; from then
//! on memory holds the value, under the same retention rule.
//!
//! Reuse across builds — including builds at *different*
//! [`PaperConfig`](ipra_core::analyzer::PaperConfig)s — is sound because a
//! matching slice fingerprint certifies codegen would see identical
//! directives, and the analyzer reads nothing but the summaries and its
//! options.
//!
//! The cache keeps no record of its own traffic: the steps that probe it
//! count hits, disk hits and misses into the build's [`BuildReport`], and
//! `CompilationCache::end_build` records the retention rule's drops and
//! the disk tier's seconds in the same report. Only the disk tier counts
//! into telemetry, and only what the report cannot see: file traffic and
//! corrupt frames (`cache.disk.*`).

use crate::framed::{self, KIND_ANALYSIS, KIND_INDEX, KIND_PHASE1, KIND_PHASE2};
use cmin_ir::IrModule;
use ipra_core::analyzer::AnalyzerStats;
use ipra_core::ProgramDatabase;
use ipra_summary::ModuleSummary;
use ipra_telemetry::Telemetry;
use serde::{BinDeserialize, BinSerialize, Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use vpr::program::ObjectModule;

/// Cache accounting for one step of one build: a per-module phase, the
/// program analyzer (one lookup per build) or the `.vx` tier (one lookup
/// per [`crate::compile_artifact`] build).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Modules (or analyses, or texts) served from the cache (memory or
    /// disk).
    pub hits: usize,
    /// Of those hits, how many were loaded from the on-disk tier (always
    /// zero when the cache has no disk directory).
    pub disk_hits: usize,
    /// Modules (or analyses) recomputed, or programs linked.
    pub misses: usize,
    /// Entries of this phase's tier that the retention rule
    /// ([`RETAINED_BUILDS`]) dropped from memory as the build ended
    /// (always zero for the analyzer, whose one memory slot is outside the
    /// rule). Evicted entries stay on the disk tier when one is attached,
    /// so an eviction degrades a future memory hit to a disk hit — or to a
    /// recompute, never to a wrong object.
    pub evictions: usize,
    /// Wall-clock seconds spent in the step (including cache probing).
    pub seconds: f64,
}

/// Where compiler phase 1's time went: each step's seconds, summed over
/// the modules the phase compiled (its misses). Sums, not spans: with
/// `jobs > 1` they add up worker time and can exceed the phase's wall
/// clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase1Steps {
    /// Parsing the source.
    pub parse: f64,
    /// Semantic checks.
    pub check: f64,
    /// Lowering the AST to IR.
    pub lower: f64,
    /// The level-2 optimizer (zero when optimization is off).
    pub optimize: f64,
    /// Deriving the summary record.
    pub summarize: f64,
}

impl Phase1Steps {
    /// The steps as `(name, seconds)`, in pipeline order.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("parse", self.parse),
            ("check", self.check),
            ("lower", self.lower),
            ("optimize", self.optimize),
            ("summarize", self.summarize),
        ]
    }

    pub(crate) fn add(&mut self, other: &Phase1Steps) {
        self.parse += other.parse;
        self.check += other.check;
        self.lower += other.lower;
        self.optimize += other.optimize;
        self.summarize += other.summarize;
    }
}

/// Per-phase wall-clock and cache accounting for one build: the one record
/// of the cache's hits, misses and evictions.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// Compiler first phase (parse → check → lower → optimize → summarize).
    pub phase1: PhaseStats,
    /// Phase 1's time by step, summed over the modules it compiled.
    pub phase1_steps: Phase1Steps,
    /// Program analyzer: one lookup per build, a hit when the module
    /// summaries and the resolved analyzer options both repeat.
    pub analyze: PhaseStats,
    /// Compiler second phase (register allocation + emission).
    pub phase2: PhaseStats,
    /// The `.vx` tier, which only [`crate::compile_artifact`] probes: a
    /// hit serves the build's linked text, and a miss links. Its
    /// evictions are counted by every build, like phase 2's; its
    /// `disk_hits` and `seconds` stay zero (the tier is memory only, and a
    /// probe is timed in `phase2`).
    pub vx: PhaseStats,
    /// Link seconds: the link always runs, except where the `.vx` tier
    /// served the build's text.
    pub link_seconds: f64,
    /// Seconds in the cache's on-disk tier: loading frames, inside the
    /// phase and analyzer rows that probe it, and the end-of-build flush of
    /// its writes, after the link and in no other row. Zero without a disk
    /// tier, so always zero for [`crate::compile`].
    pub cache_seconds: f64,
    /// End-to-end seconds for the build.
    pub total_seconds: f64,
    /// Names of modules whose second phase actually re-ran, in source
    /// order — the observable of the paper's "only recompile where the
    /// database changed" claim.
    pub recompiled: Vec<String>,
}

/// What phase 1 records about one module besides its IR — the decoded head
/// of a phase-1 frame.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct Phase1Head {
    /// Fingerprint of (module name, source text, optimize flag).
    pub(crate) key: u64,
    /// FNV-64 of the optimized IR's binary encoding (what phase 2
    /// consumes).
    pub(crate) ir_fp: u64,
    /// Direct callees named anywhere in the IR — the procedures whose
    /// database slice codegen will consult at call sites.
    pub(crate) callees: Vec<String>,
    /// The summary record: the module name and one record per procedure
    /// it defines, which is all the analyzer and the phase-2 keys read.
    pub(crate) summary: ModuleSummary,
    /// FNV-64 of `summary`'s binary encoding: this module's share of the
    /// analysis key.
    pub(crate) summary_fp: u64,
}

/// Everything phase 1 produces for one module: the head, and the IR that
/// only a phase-2 miss reads.
#[derive(Debug)]
pub(crate) struct Phase1Entry {
    pub(crate) head: Phase1Head,
    /// The frame the entry was decoded from when it came off disk (empty
    /// when phase 1 ran in this process), shared with the memory tier
    /// that holds it, and where in it the IR's binary encoding lies.
    frame: Arc<Vec<u8>>,
    tail: Range<usize>,
    /// The IR, decoded on first use; `None` when the encoding is malformed.
    ir: OnceLock<Option<IrModule>>,
}

impl Phase1Entry {
    /// Decodes a phase-1 frame's head; its IR tail stays encoded, in the
    /// frame the entry keeps, until [`ir`](Self::ir) asks for it. `None`
    /// unless the frame checks out and holds `key`'s head.
    fn decode(frame: Arc<Vec<u8>>, key: u64) -> Option<Phase1Entry> {
        let (head, tail_len) = framed::decode_head::<Phase1Head>(&frame, KIND_PHASE1)
            .filter(|(head, _)| head.key == key)
            .map(|(head, tail)| (head, tail.len()))?;
        // The tail ends where the checksum's 8 bytes begin.
        let tail = frame.len() - 8 - tail_len..frame.len() - 8;
        Some(Phase1Entry { head, frame, tail, ir: OnceLock::new() })
    }

    /// The module's optimized IR, decoded from the frame's tail on first
    /// use. `None` when the tail does not decode: the checksum passed, so
    /// the frame was written that way, and the caller recomputes phase 1.
    pub(crate) fn ir(&self) -> Option<&IrModule> {
        self.ir
            .get_or_init(|| {
                let mut cursor = &self.frame[self.tail.clone()];
                let ir = IrModule::bin_deserialize(&mut cursor).ok()?;
                cursor.is_empty().then_some(ir)
            })
            .as_ref()
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Phase2Entry {
    pub(crate) ir_fp: u64,
    pub(crate) db_fp: u64,
    pub(crate) object: ObjectModule,
}

/// The object of a phase-2 frame: `None` unless the frame checks out and
/// holds the entry of `(ir_fp, db_fp)`.
fn decode_phase2(frame: &[u8], (ir_fp, db_fp): (u64, u64)) -> Option<ObjectModule> {
    framed::decode_frame(frame, KIND_PHASE2)
        .filter(|e: &Phase2Entry| e.ir_fp == ir_fp && e.db_fp == db_fp)
        .map(|e| e.object)
}

/// The program analyzer's result under one analysis key (see
/// `stages::analysis_key`). The analyzer's web reports are not kept: no
/// build product carries them.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct AnalysisEntry {
    pub(crate) key: u64,
    pub(crate) database: ProgramDatabase,
    pub(crate) stats: AnalyzerStats,
}

/// The analysis of an analysis frame: `None` unless the frame checks out
/// and holds `key`'s entry.
fn decode_analysis(frame: &[u8], key: u64) -> Option<AnalysisEntry> {
    framed::decode_frame(frame, KIND_ANALYSIS).filter(|e: &AnalysisEntry| e.key == key)
}

/// A phase-2 lookup's hit.
#[derive(Debug)]
pub(crate) enum Phase2Hit {
    /// Memory holds the object decoded, where
    /// [`CompilationCache::phase2_object`] reads it.
    Memory,
    /// The disk tier served the object, decoded for this build alone;
    /// memory keeps the frame.
    Disk(ObjectModule),
}

/// A linked program as [`crate::compile_artifact`] hands it out.
#[derive(Debug, Clone)]
pub(crate) struct Linked {
    /// The `.vx` artifact text.
    pub(crate) vx: String,
    /// The body fingerprint its header carries.
    pub(crate) fingerprint: u64,
    /// The executable's instruction count (`link.insts`).
    pub(crate) insts: usize,
}

/// A `.vx` tier entry: the phase-2 keys `(ir_fp, db_fp)` of the linked
/// objects, in source order, and the text once a second link of them
/// admitted it (`None` is the first link's marker).
#[derive(Debug)]
struct VxEntry {
    keys: Vec<(u64, u64)>,
    linked: Option<Linked>,
}

/// The pack's file name in a cache directory: every frame the disk tier
/// ever stored, back to back. The layout's version is in the name, so a
/// later layout ignores these files.
pub(crate) const PACK_FILE: &str = "frames-v1.pack";
/// The index's file name: one [`KIND_INDEX`] frame per flush.
pub(crate) const INDEX_FILE: &str = "frames-v1.idx";

/// A frame's kind and key: the phase-1 or analysis key with a zero second
/// word, or a phase-2 entry's `(ir_fp, db_fp)`.
type Slot = (u8, (u64, u64));

/// One index record: where the frame of one slot lies in the pack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct IndexRecord {
    pub(crate) kind: u8,
    pub(crate) key: (u64, u64),
    /// Byte offset of the frame in the pack.
    pub(crate) offset: u64,
    /// The frame's length in bytes.
    pub(crate) len: u64,
}

/// The two files of a cache directory, each open for reading and
/// appending (for reading only where the directory is not writable).
#[derive(Debug)]
struct Files {
    pack: File,
    index: File,
}

impl Files {
    fn open(root: &Path) -> Option<Files> {
        let open = |name: &str| {
            let path = root.join(name);
            OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&path)
                .or_else(|_| File::open(&path))
                .ok()
        };
        Some(Files { pack: open(PACK_FILE)?, index: open(INDEX_FILE)? })
    }
}

/// What this process has read of the index file.
#[derive(Debug, Default)]
struct Index {
    /// Each slot's `(offset, len)` in the pack; a later record for a slot
    /// replaces an earlier one.
    extents: HashMap<Slot, (u64, u64)>,
    /// Bytes of the index file read so far: the end of its last whole frame.
    read: u64,
    /// The pack's length after the last read of the index. A record is
    /// written after its frame, so every record read lies inside it.
    pack_len: u64,
}

impl Index {
    /// Reads the index file's bytes past [`read`](Index::read), if it grew,
    /// and adds their records. A frame that fails its checksum is skipped
    /// and counted corrupt; a torn or unreadable tail stops the read, so
    /// the next one starts there again. Returns the index file's length.
    fn refresh(&mut self, files: &Files, tele: Option<&Telemetry>) -> std::io::Result<u64> {
        let len = files.index.metadata()?.len();
        if len < self.read {
            // Cut below what was read (not by a writer of this tier, which
            // truncates only torn tails): read it again from the start.
            *self = Index::default();
        }
        if len == self.read {
            return Ok(len);
        }
        let mut bytes = vec![0; (len - self.read) as usize];
        files.index.read_exact_at(&mut bytes, self.read)?;
        let mut pos = 0;
        while let Some(frame) = framed::frame_len(&bytes[pos..], KIND_INDEX)
            .and_then(|n| bytes.get(pos..pos.checked_add(n)?))
        {
            match framed::decode_frame::<Vec<IndexRecord>>(frame, KIND_INDEX) {
                Some(records) => {
                    for r in records {
                        self.extents.insert((r.kind, r.key), (r.offset, r.len));
                    }
                }
                None => {
                    if let Some(t) = tele {
                        t.add("cache.disk.corrupt", 1);
                    }
                }
            }
            pos += frame.len();
        }
        self.read += pos as u64;
        self.pack_len = files.pack.metadata()?.len();
        Ok(len)
    }

    /// A flush's writes, under the pack's lock: cuts the index file's torn
    /// tail, appends `frames` to the pack, then an index frame of their
    /// `records` (whose offsets count from the start of `frames`), and adds
    /// the records.
    fn append(
        &mut self,
        files: &Files,
        frames: &[u8],
        records: &mut [IndexRecord],
        tele: Option<&Telemetry>,
    ) -> std::io::Result<()> {
        if self.refresh(files, tele)? > self.read {
            files.index.set_len(self.read)?;
        }
        let base = files.pack.metadata()?.len();
        (&files.pack).write_all(frames)?;
        for r in records.iter_mut() {
            r.offset += base;
        }
        let frame = framed::encode_frame(KIND_INDEX, &*records);
        (&files.index).write_all(&frame)?;
        self.read += frame.len() as u64;
        self.pack_len = base + frames.len() as u64;
        for r in records.iter() {
            self.extents.insert((r.kind, r.key), (r.offset, r.len));
        }
        Ok(())
    }
}

/// The persistent tier: cache entries as length-prefixed binary frames
/// ([`crate::framed`]) in two files of a cache directory. The pack,
/// [`PACK_FILE`], holds the frames back to back; the index,
/// [`INDEX_FILE`], holds one [`KIND_INDEX`] frame per flush, recording
/// each of that flush's frames' kind, key, offset and length. Neither file
/// is ever rewritten, only appended to (and the index's torn tail cut).
///
/// A cache reads the index on its first lookup, and again, from where it
/// stopped, when a lookup finds no record and the file has grown, so
/// frames other processes appended meanwhile are hits. A hit is one
/// positioned read of the frame's recorded length. The frame's checksum
/// and the embedded fingerprints cross-checked against the requested key
/// decide whether it is served: a damaged pack, a damaged or forged index
/// record, or a truncated file degrades to a cache miss, never to a wrong
/// object.
///
/// Stores are *batched*: entries are encoded immediately into one buffer
/// and written out together by [`DiskCache::flush`] (the driver flushes at
/// the end of each build, and `Drop` flushes whatever remains). A flush
/// takes an exclusive lock on the pack, cuts any torn index tail a crashed
/// writer left, appends the frames in one write, then their index frame
/// in another, and unlocks. A reader that finds a record therefore finds
/// its frame. Same-build reuse is unaffected — the in-memory tier serves
/// entries the current process computed.
///
/// Nothing is ever removed: the tier keeps every frame it stored, and the
/// index costs about 40 bytes per frame, on disk and in memory.
#[derive(Debug)]
pub(crate) struct DiskCache {
    /// `None` when the directory's files cannot be opened: every lookup
    /// misses and every flush drops its frames.
    files: Option<Files>,
    index: Index,
    /// Frames awaiting the flush, back to back, and their records, whose
    /// offsets count from the buffer's start.
    pending: Vec<u8>,
    pending_records: Vec<IndexRecord>,
    /// Telemetry sink for tier traffic (reads/writes with byte counts);
    /// attached per build by [`CompilationCache::set_telemetry`].
    tele: Option<Telemetry>,
    /// Seconds spent loading frames and flushing since the build began.
    seconds: f64,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory and its two files.
    ///
    /// # Errors
    ///
    /// Any I/O error creating `root`. Files that cannot be opened leave a
    /// tier whose lookups miss.
    pub(crate) fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskCache {
            files: Files::open(&root),
            index: Index::default(),
            pending: Vec::new(),
            pending_records: Vec::new(),
            tele: None,
            seconds: 0.0,
        })
    }

    /// The frame of `slot` as the index records it, re-reading the index
    /// first when it has no record. `None` when no record exists; `Some`
    /// of `None` when the record's bytes cannot be read.
    fn read(&mut self, slot: Slot) -> Option<Option<Vec<u8>>> {
        let files = self.files.as_ref()?;
        let index = &mut self.index;
        if !index.extents.contains_key(&slot) {
            let _ = index.refresh(files, self.tele.as_ref());
        }
        let &(offset, len) = index.extents.get(&slot)?;
        if offset.checked_add(len).is_none_or(|end| end > index.pack_len) {
            return Some(None);
        }
        let mut frame = vec![0; len as usize];
        Some(files.pack.read_exact_at(&mut frame, offset).ok().map(|()| frame))
    }

    /// Reads the frame of `slot` and decodes it with `decode`, adding the
    /// load's seconds to the build's. Counts the read traffic in bytes,
    /// plus a corrupt-frame counter when a recorded frame could not be
    /// read, or failed to decode or fingerprint-check (it degrades to a
    /// miss).
    fn load<T>(&mut self, slot: Slot, decode: impl FnOnce(Vec<u8>) -> Option<T>) -> Option<T> {
        let start = Instant::now();
        let decoded = self.read(slot).and_then(|frame| {
            let tele = self.tele.as_ref();
            if let (Some(t), Some(frame)) = (tele, &frame) {
                t.add("cache.disk.reads", 1);
                t.add("cache.disk.read_bytes", frame.len() as u64);
            }
            let decoded = frame.and_then(decode);
            if let (Some(t), None) = (tele, &decoded) {
                t.add("cache.disk.corrupt", 1);
            }
            decoded
        });
        self.seconds += start.elapsed().as_secs_f64();
        decoded
    }

    /// Loads a phase-1 frame: the frame, and the entry decoded from its
    /// head, which shares it (see [`Phase1Entry::decode`]).
    pub(crate) fn load_phase1(&mut self, key: u64) -> Option<(Arc<Vec<u8>>, Phase1Entry)> {
        self.load((KIND_PHASE1, (key, 0)), |frame| {
            let frame = Arc::new(frame);
            Some((Arc::clone(&frame), Phase1Entry::decode(frame, key)?))
        })
    }

    /// Buffers a phase-1 frame: the head, then the IR's encoding as the
    /// tail.
    pub(crate) fn store_phase1(&mut self, head: &Phase1Head, ir: &IrModule) {
        self.store(KIND_PHASE1, (head.key, 0), &(head, ir));
    }

    /// Loads a phase-2 frame: the frame, and the object decoded from it.
    pub(crate) fn load_phase2(&mut self, key: (u64, u64)) -> Option<(Vec<u8>, ObjectModule)> {
        self.load((KIND_PHASE2, key), |frame| {
            let object = decode_phase2(&frame, key)?;
            Some((frame, object))
        })
    }

    pub(crate) fn store_phase2(&mut self, entry: &Phase2Entry) {
        self.store(KIND_PHASE2, (entry.ir_fp, entry.db_fp), entry);
    }

    /// Loads an analysis frame: the frame, and the analysis decoded from
    /// it.
    pub(crate) fn load_analysis(&mut self, key: u64) -> Option<(Vec<u8>, AnalysisEntry)> {
        self.load((KIND_ANALYSIS, (key, 0)), |frame| {
            let entry = decode_analysis(&frame, key)?;
            Some((frame, entry))
        })
    }

    pub(crate) fn store_analysis(&mut self, entry: &AnalysisEntry) {
        self.store(KIND_ANALYSIS, (entry.key, 0), entry);
    }

    /// Encodes one frame into the pending buffer with its index record, and
    /// counts it as a disk-tier store (the write happens at
    /// [`flush`](DiskCache::flush)).
    fn store<T: BinSerialize>(&mut self, kind: u8, key: (u64, u64), value: &T) {
        let offset = self.pending.len() as u64;
        let len = framed::append_frame(kind, value, &mut self.pending) as u64;
        self.pending_records.push(IndexRecord { kind, key, offset, len });
        if let Some(t) = &self.tele {
            t.add("cache.disk.writes", 1);
            t.add("cache.disk.write_bytes", len);
        }
    }

    /// Appends the buffered frames and their index frame, adding the
    /// seconds to the build's. Best effort: a failed write leaves the disk
    /// tier cold for those keys, not wrong.
    fn flush(&mut self) {
        if self.pending_records.is_empty() {
            return;
        }
        let span = ipra_telemetry::span(self.tele.as_ref(), "cache", "cache:flush");
        if let Some(files) = &self.files {
            if files.pack.lock().is_ok() {
                let records = &mut self.pending_records;
                let _ = self.index.append(files, &self.pending, records, self.tele.as_ref());
                let _ = files.pack.unlock();
            }
        }
        // A cold build's frames are megabytes; a long-lived cache does not
        // keep their buffer.
        self.pending = Vec::new();
        self.pending_records.clear();
        self.seconds += span.finish();
    }
}

impl Drop for DiskCache {
    fn drop(&mut self) {
        self.flush();
    }
}

/// How many recent builds keep an entry in memory: at the end of each
/// [`crate::compile_incremental`] or [`crate::compile_artifact`] build, an
/// entry that none of the cache's last `RETAINED_BUILDS` builds (that one
/// included) looked up or stored leaves the memory tier, the `.vx` tier's
/// included. The disk tier keeps it.
pub const RETAINED_BUILDS: usize = 16;

/// One in-memory tier: values by content key, each with the tick of its
/// last use, and a recency index from tick to key. Ticks are unique per
/// operation, so the index orders every entry and the least recently used
/// one is its first.
#[derive(Debug)]
struct Tier<K, V> {
    entries: HashMap<K, (V, u64)>,
    recency: BTreeMap<u64, K>,
}

impl<K, V> Default for Tier<K, V> {
    fn default() -> Tier<K, V> {
        Tier { entries: HashMap::new(), recency: BTreeMap::new() }
    }
}

impl<K: Copy + Eq + Hash, V> Tier<K, V> {
    /// The entry under `key`, marked used at `tick`.
    fn get(&mut self, key: K, tick: u64) -> Option<&mut V> {
        let (value, used) = self.entries.get_mut(&key)?;
        self.recency.remove(used);
        *used = tick;
        self.recency.insert(tick, key);
        Some(value)
    }

    /// Stores (or replaces) the entry under `key`, marked used at `tick`.
    fn insert(&mut self, key: K, value: V, tick: u64) {
        if let Some((_, used)) = self.entries.insert(key, (value, tick)) {
            self.recency.remove(&used);
        }
        self.recency.insert(tick, key);
    }

    /// Drops every entry last used before `tick`; returns how many.
    fn retire_before(&mut self, tick: u64) -> usize {
        let mut dropped = 0;
        while let Some(oldest) = self.recency.first_entry() {
            if *oldest.key() >= tick {
                break;
            }
            self.entries.remove(&oldest.remove());
            dropped += 1;
        }
        dropped
    }
}

/// What the memory tier keeps under a key: the decoded value, or, after a
/// first disk hit, only the frame the disk tier read, whose decoded value
/// went to that build.
#[derive(Debug)]
enum Kept<V, F = Vec<u8>> {
    Decoded(V),
    Frame(F),
}

impl<V, F> Kept<V, F> {
    /// The decoded value, once `decode` has turned a held frame into it
    /// (and memory keeps it from then on). `None` when the frame does not
    /// decode, which it did when it came off disk.
    fn decoded(&mut self, decode: impl FnOnce(&F) -> Option<V>) -> Option<&V> {
        if let Kept::Frame(frame) = self {
            let value = decode(frame)?;
            *self = Kept::Decoded(value);
        }
        match self {
            Kept::Decoded(value) => Some(value),
            Kept::Frame(_) => None,
        }
    }
}

/// The incremental recompilation cache: the in-memory tier plus an
/// optional on-disk tier behind it, opened by
/// [`with_disk`](CompilationCache::with_disk).
#[derive(Debug, Default)]
pub struct CompilationCache {
    /// Phase-1 entries by phase-1 key.
    phase1: Tier<u64, Kept<Arc<Phase1Entry>, Arc<Vec<u8>>>>,
    /// Phase-2 objects by `(ir_fp, db_fp)`.
    phase2: Tier<(u64, u64), Kept<ObjectModule>>,
    /// Linked `.vx` text by link key (`stages::link_key`). Memory only.
    vx: Tier<u64, VxEntry>,
    /// The most recent program analysis, under its key. One slot, outside
    /// the retention rule: the warm and edit rebuilds it serves repeat the
    /// previous build's key.
    analysis: Option<(u64, Kept<Arc<AnalysisEntry>>)>,
    disk: Option<DiskCache>,
    tele: Option<Telemetry>,
    /// Monotonic operation clock driving recency; bumped on every lookup
    /// and store, so recency is a pure function of the operation
    /// sequence — which entries retire is deterministic, never hash-map
    /// order.
    tick: u64,
    /// The first tick of each of the last [`RETAINED_BUILDS`] builds,
    /// oldest first.
    build_starts: VecDeque<u64>,
}

impl CompilationCache {
    /// An empty, memory-only cache.
    pub fn new() -> CompilationCache {
        CompilationCache::default()
    }

    /// An empty in-memory cache backed by the on-disk tier at `dir`
    /// (created if absent). Entries found on disk count as hits; entries
    /// computed by a build are written through.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the cache directory.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<CompilationCache> {
        Ok(CompilationCache { disk: Some(DiskCache::open(dir)?), ..CompilationCache::default() })
    }

    /// Attaches (or detaches, with `None`) a telemetry collector. Disk-tier
    /// traffic is counted into it, and the pipeline steps
    /// ([`crate::stages`], [`crate::separate`]) read it back via
    /// [`telemetry`](CompilationCache::telemetry) so they share the build's
    /// collector without widening every signature.
    pub(crate) fn set_telemetry(&mut self, tele: Option<Telemetry>) {
        if let Some(d) = &mut self.disk {
            d.tele = tele.clone();
        }
        self.tele = tele;
    }

    /// The attached telemetry collector, if any.
    pub(crate) fn telemetry(&self) -> Option<&Telemetry> {
        self.tele.as_ref()
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Marks the start of a build, for the retention rule and the disk
    /// tier's seconds.
    pub(crate) fn begin_build(&mut self) {
        if self.build_starts.len() == RETAINED_BUILDS {
            self.build_starts.pop_front();
        }
        self.build_starts.push_back(self.tick + 1);
        if let Some(d) = &mut self.disk {
            d.seconds = 0.0;
        }
    }

    /// Ends a build. First the retention rule, the memory tier's only
    /// eviction: it drops from memory every entry that none of the last
    /// [`RETAINED_BUILDS`] builds looked up or stored, and the current
    /// build's entries stay, as does the disk tier. Then the disk tier
    /// writes the build's entries in one burst. Records the phase-1,
    /// phase-2 and `.vx` drops as `report`'s [`PhaseStats::evictions`], and
    /// the disk tier's seconds since [`begin_build`](Self::begin_build) as
    /// its [`BuildReport::cache_seconds`].
    pub(crate) fn end_build(&mut self, report: &mut BuildReport) {
        if self.build_starts.len() == RETAINED_BUILDS {
            let oldest = self.build_starts[0];
            report.phase1.evictions = self.phase1.retire_before(oldest);
            report.phase2.evictions = self.phase2.retire_before(oldest);
            report.vx.evictions = self.vx.retire_before(oldest);
        }
        if let Some(d) = &mut self.disk {
            d.flush();
            report.cache_seconds = std::mem::take(&mut d.seconds);
        }
    }

    /// Phase-1 lookup by phase-1 key: memory first, then the disk tier.
    /// The flag reports whether the entry came from disk.
    ///
    /// A disk hit hands the build the entry it decoded, which the build
    /// alone holds, and memory keeps the frame; the next lookup of the key
    /// decodes that frame into memory. Entries in memory are shared, not
    /// copied: a hit is a refcount bump, so the hot path of a warm build
    /// never deep-clones an `IrModule`, and a disk-served one never decodes
    /// the IR of a module phase 2 does not recompile.
    pub(crate) fn lookup_phase1(&mut self, key: u64) -> Option<(Arc<Phase1Entry>, bool)> {
        let tick = self.next_tick();
        if let Some(kept) = self.phase1.get(key, tick) {
            let decode = |frame: &Arc<_>| Phase1Entry::decode(Arc::clone(frame), key).map(Arc::new);
            return kept.decoded(decode).map(|e| (Arc::clone(e), false));
        }
        let (frame, entry) = self.disk.as_mut()?.load_phase1(key)?;
        self.phase1.insert(key, Kept::Frame(frame), tick);
        Some((Arc::new(entry), true))
    }

    /// Stores a freshly computed phase-1 entry in memory and, when
    /// attached, writes it through to disk. Returns the shared handle so
    /// the caller keeps using the entry without cloning it.
    pub(crate) fn store_phase1(&mut self, head: Phase1Head, ir: IrModule) -> Arc<Phase1Entry> {
        if let Some(d) = &mut self.disk {
            d.store_phase1(&head, &ir);
        }
        let key = head.key;
        let ir = OnceLock::from(Some(ir));
        let entry = Arc::new(Phase1Entry { head, frame: Arc::default(), tail: 0..0, ir });
        let tick = self.next_tick();
        self.phase1.insert(key, Kept::Decoded(Arc::clone(&entry)), tick);
        entry
    }

    /// Replaces a phase-1 entry whose IR tail passed the checksum but did
    /// not decode with one recomputed from source: the frame counts as
    /// corrupt, and the flush appends the new frame, whose index record
    /// replaces the old one's.
    pub(crate) fn repair_phase1(&mut self, head: Phase1Head, ir: IrModule) {
        if let Some(t) = &self.tele {
            t.add("cache.disk.corrupt", 1);
        }
        self.store_phase1(head, ir);
    }

    /// Phase-2 lookup by `(ir_fp, db_fp)`: memory first, then the disk
    /// tier. A memory hit leaves the object decoded in memory for the rest
    /// of the build, where [`phase2_object`](Self::phase2_object) reads it:
    /// a build served by the `.vx` tier never copies it. A disk hit hands
    /// the build the object it decoded, and memory keeps the frame, which
    /// the next lookup of the key decodes into memory.
    pub(crate) fn lookup_phase2(&mut self, ir_fp: u64, db_fp: u64) -> Option<Phase2Hit> {
        let tick = self.next_tick();
        let key = (ir_fp, db_fp);
        if let Some(kept) = self.phase2.get(key, tick) {
            return kept.decoded(|frame| decode_phase2(frame, key)).map(|_| Phase2Hit::Memory);
        }
        let (frame, object) = self.disk.as_mut()?.load_phase2(key)?;
        self.phase2.insert(key, Kept::Frame(frame), tick);
        Some(Phase2Hit::Disk(object))
    }

    /// The phase-2 object under `(ir_fp, db_fp)`, if memory holds it
    /// decoded. No entry leaves memory before its build ends, so one that
    /// this build found in memory or stored is here.
    pub(crate) fn phase2_object(&self, ir_fp: u64, db_fp: u64) -> Option<&ObjectModule> {
        match self.phase2.entries.get(&(ir_fp, db_fp))? {
            (Kept::Decoded(object), _) => Some(object),
            (Kept::Frame(_), _) => None,
        }
    }

    /// Stores a freshly compiled object in memory and, when attached,
    /// writes it through to disk.
    pub(crate) fn store_phase2(&mut self, entry: Phase2Entry) {
        if let Some(d) = &mut self.disk {
            d.store_phase2(&entry);
        }
        let tick = self.next_tick();
        self.phase2.insert((entry.ir_fp, entry.db_fp), Kept::Decoded(entry.object), tick);
    }

    /// `.vx` lookup by link key: the text linked from the objects under
    /// `keys`, when the tier holds it under `key` for exactly that key
    /// list. A marker, or an entry for another key list, is a miss.
    pub(crate) fn lookup_vx(&mut self, key: u64, keys: &[(u64, u64)]) -> Option<Linked> {
        let tick = self.next_tick();
        match self.vx.get(key, tick)? {
            VxEntry { keys: stored, linked: Some(linked) } if stored[..] == *keys => {
                Some(linked.clone())
            }
            _ => None,
        }
    }

    /// Offers the text a build linked from the objects under `keys`. The
    /// first link of a key list leaves a marker; a second, finding the
    /// marker, stores the text.
    pub(crate) fn store_vx(&mut self, key: u64, keys: Vec<(u64, u64)>, linked: &Linked) {
        let tick = self.next_tick();
        let seen = self.vx.entries.get(&key).is_some_and(|(e, _)| e.keys == keys);
        self.vx.insert(key, VxEntry { keys, linked: seen.then(|| linked.clone()) }, tick);
    }

    /// Analysis lookup: the memory slot first, then the disk tier. The
    /// flag reports whether the entry came from disk. A disk hit hands the
    /// build the analysis it decoded and leaves the frame in the slot, which
    /// the next lookup of the key decodes into the slot.
    pub(crate) fn lookup_analysis(&mut self, key: u64) -> Option<(Arc<AnalysisEntry>, bool)> {
        if let Some((_, kept)) = self.analysis.as_mut().filter(|(held, _)| *held == key) {
            let decode = |frame: &Vec<u8>| decode_analysis(frame, key).map(Arc::new);
            return kept.decoded(decode).map(|e| (Arc::clone(e), false));
        }
        let (frame, entry) = self.disk.as_mut()?.load_analysis(key)?;
        self.analysis = Some((key, Kept::Frame(frame)));
        Some((Arc::new(entry), true))
    }

    /// Stores a freshly computed analysis in the memory slot and, when
    /// attached, writes it through to disk.
    pub(crate) fn store_analysis(&mut self, entry: AnalysisEntry) -> Arc<AnalysisEntry> {
        if let Some(d) = &mut self.disk {
            d.store_analysis(&entry);
        }
        let entry = Arc::new(entry);
        self.analysis = Some((entry.key, Kept::Decoded(Arc::clone(&entry))));
        entry
    }

    /// Flushes the disk tier's buffered writes, if one is attached. Called
    /// by the driver at the end of each build; dropping the cache flushes
    /// too, so entries are never lost — flushing early just bounds how long
    /// they sit in memory.
    pub(crate) fn flush(&mut self) {
        if let Some(d) = &mut self.disk {
            d.flush();
        }
    }
}

/// Reading and forging a cache directory's index, for tests that damage
/// it.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// The record in force for each key of the index under `dir`.
    pub(crate) fn records(dir: &Path) -> Vec<IndexRecord> {
        let files = Files::open(dir).expect("the cache directory's files open");
        let mut index = Index::default();
        index.refresh(&files, None).expect("the index reads");
        let records = index.extents.into_iter();
        records.map(|((kind, key), (offset, len))| IndexRecord { kind, key, offset, len }).collect()
    }

    /// Appends one index frame of `records` to the index under `dir`.
    pub(crate) fn append_records(dir: &Path, records: &[IndexRecord]) {
        let mut index = OpenOptions::new().append(true).open(dir.join(INDEX_FILE)).unwrap();
        index.write_all(&framed::encode_frame(KIND_INDEX, records)).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn head(name: &str, key: u64) -> Phase1Head {
        Phase1Head {
            key,
            ir_fp: key ^ 0xABCD,
            callees: Vec::new(),
            summary: ModuleSummary {
                module: name.to_string(),
                procs: Vec::new(),
                globals: Vec::new(),
            },
            summary_fp: key ^ 0x1234,
        }
    }

    fn ir(name: &str) -> IrModule {
        IrModule { name: name.to_string(), globals: Vec::new(), functions: Vec::new() }
    }

    fn store1(c: &mut CompilationCache, name: &str, key: u64) {
        c.store_phase1(head(name, key), ir(name));
    }

    fn p2(ir_fp: u64, db_fp: u64) -> Phase2Entry {
        Phase2Entry { ir_fp, db_fp, object: ObjectModule::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ipra-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Ends a build; returns the retention rule's phase-1 and phase-2
    /// drops.
    fn end(c: &mut CompilationCache) -> (usize, usize) {
        let mut report = BuildReport::default();
        c.end_build(&mut report);
        (report.phase1.evictions, report.phase2.evictions)
    }

    /// One build that stores phase-1 key `stored` and looks up `used`;
    /// returns the retention rule's drops.
    fn one_build(c: &mut CompilationCache, stored: u64, used: &[u64]) -> (usize, usize) {
        c.begin_build();
        store1(c, "x", stored);
        for &k in used {
            assert!(c.lookup_phase1(k).is_some(), "key {k} is still in memory");
        }
        end(c)
    }

    #[test]
    fn retention_drops_what_the_last_builds_did_not_use() {
        let mut c = CompilationCache::new();
        c.begin_build();
        store1(&mut c, "a", 1);
        c.store_phase2(p2(1, 1));
        assert_eq!(end(&mut c), (0, 0));
        // Builds 2..=16 store keys 2..=16; key 1 was used by build 1, still
        // one of the last 16.
        for b in 2..=16 {
            assert_eq!(one_build(&mut c, b, &[]), (0, 0), "build {b}");
        }
        // A lookup refreshes key 2 in build 17, which ends build 1's window.
        assert_eq!(one_build(&mut c, 17, &[2]), (1, 1), "key 1 leaves both tiers");
        assert!(c.lookup_phase1(1).is_none() && c.lookup_phase2(1, 1).is_none());
        assert_eq!(one_build(&mut c, 18, &[]), (0, 0), "key 2 was used by build 17");
        assert_eq!(one_build(&mut c, 19, &[]), (1, 0), "key 3 (build 3) leaves");
        assert_eq!(c.phase1.entries.len(), 17, "keys 2 and 4..=19");
    }

    fn linked(text: &str) -> Linked {
        Linked { vx: text.to_string(), fingerprint: 7, insts: 3 }
    }

    /// The text the `.vx` tier serves for `keys` under link key 9.
    fn served(c: &mut CompilationCache, keys: &[(u64, u64)]) -> Option<String> {
        c.lookup_vx(9, keys).map(|l| l.vx)
    }

    #[test]
    fn the_vx_tier_stores_text_from_the_second_link_of_a_key_list() {
        let mut c = CompilationCache::new();
        let keys = vec![(1, 2), (3, 4)];
        assert_eq!(served(&mut c, &keys), None);
        c.store_vx(9, keys.clone(), &linked("a"));
        assert!(c.vx.entries[&9].0.linked.is_none(), "the first link leaves a marker");
        assert_eq!(served(&mut c, &keys), None, "a marker serves nothing");
        c.store_vx(9, keys.clone(), &linked("a"));
        assert_eq!(served(&mut c, &keys).as_deref(), Some("a"));
    }

    #[test]
    fn retention_drops_vx_entries_and_the_next_link_starts_over() {
        let mut c = CompilationCache::new();
        let keys = vec![(1, 2)];
        for _ in 0..2 {
            c.begin_build();
            c.store_vx(9, keys.clone(), &linked("a"));
            assert_eq!(end(&mut c), (0, 0));
        }
        assert_eq!(served(&mut c, &keys).as_deref(), Some("a"));
        // Builds 3..=17 do not use the entry; build 2 is still one of the
        // last 16 when build 17 ends, and no longer when build 18 does.
        for b in 3..=17 {
            one_build(&mut c, b, &[]);
        }
        assert!(c.vx.entries.contains_key(&9));
        c.begin_build();
        let mut report = BuildReport::default();
        c.end_build(&mut report);
        assert_eq!(report.vx.evictions, 1);
        assert_eq!(served(&mut c, &keys), None);
        c.store_vx(9, keys.clone(), &linked("a"));
        assert_eq!(served(&mut c, &keys), None, "the next link leaves a marker again");
    }

    #[test]
    fn a_vx_entry_for_another_key_list_is_never_served() {
        let mut c = CompilationCache::new();
        let (keys, forged) = (vec![(1, 2), (3, 4)], vec![(1, 2), (3, 5)]);
        // A text under `keys`' link key, stored for another key list.
        c.store_vx(9, forged.clone(), &linked("forged"));
        c.store_vx(9, forged.clone(), &linked("forged"));
        assert_eq!(served(&mut c, &forged).as_deref(), Some("forged"));
        assert_eq!(served(&mut c, &keys), None);
        assert_eq!(served(&mut c, &keys[..1]), None);
        // A link of `keys` replaces it with its own marker, then its text.
        c.store_vx(9, keys.clone(), &linked("real"));
        assert_eq!((served(&mut c, &keys), served(&mut c, &forged)), (None, None));
        c.store_vx(9, keys.clone(), &linked("real"));
        assert_eq!(served(&mut c, &keys).as_deref(), Some("real"));
    }

    /// A small real module's IR, so the frame's tail has some shape.
    fn real_ir() -> IrModule {
        let m = cmin_frontend::parse_module(
            "m",
            "int g; int f(int x) { g = g + x; return g * 2; } int main() { return f(3); }",
        )
        .unwrap();
        let info = cmin_frontend::analyze(&m).unwrap();
        cmin_ir::lower_module(&m, &info)
    }

    #[test]
    fn disk_hits_decode_the_ir_only_when_asked() {
        let dir = tmpdir("lazy-ir");
        let ir = real_ir();
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.store_phase1(head("m", 7), ir.clone());
        c.flush();
        let mut fresh = CompilationCache::with_disk(&dir).unwrap();
        let (e, from_disk) = fresh.lookup_phase1(7).expect("disk hit");
        assert!(from_disk);
        assert!(e.ir.get().is_none(), "a hit leaves the tail encoded");
        assert_eq!(e.ir(), Some(&ir));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_inside_the_ir_tail_reads_as_a_miss() {
        let dir = tmpdir("tail-damage");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.store_phase1(head("m", 9), real_ir());
        c.flush();
        // The pack holds the one frame.
        let path = dir.join(PACK_FILE);
        let frame = std::fs::read(&path).unwrap();
        let mut head_bytes = Vec::new();
        serde::BinSerialize::bin_serialize(&head("m", 9), &mut head_bytes);
        // magic, version, kind and length come first; the checksum last.
        let (tail_start, tail_end) = (10 + head_bytes.len(), frame.len() - 8);
        assert!(tail_end - tail_start > 100, "the tail holds the IR");
        let tele = Telemetry::new();
        let probe = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let mut fresh = CompilationCache::with_disk(&dir).unwrap();
            fresh.set_telemetry(Some(tele.clone()));
            fresh.lookup_phase1(9).is_none()
        };
        let mut probes = 0;
        for i in (tail_start..tail_end).step_by(7) {
            let mut flipped = frame.clone();
            flipped[i] ^= 0x20;
            assert!(probe(&flipped), "flip at {i} served a hit");
            assert!(probe(&frame[..i]), "truncation at {i} served a hit");
            probes += 2;
        }
        assert_eq!(tele.counter("cache.disk.corrupt"), probes);
        assert!(!probe(&frame), "the intact frame still hits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_disk_hit_keeps_its_frame_and_copies_no_tail() {
        let dir = tmpdir("kept-frame");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.store_phase1(head("m", 5), real_ir());
        c.flush();
        let pack = std::fs::read(dir.join(PACK_FILE)).unwrap();
        let (e, _) = CompilationCache::with_disk(&dir).unwrap().lookup_phase1(5).unwrap();
        assert_eq!(*e.frame, pack, "the entry holds the frame as read");
        assert_eq!(e.tail.end, pack.len() - 8, "the tail ends at the checksum");
        assert!(e.ir().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flush_writes_nothing_while_another_holds_the_packs_lock() {
        let dir = tmpdir("lock");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        store1(&mut c, "m", 3);
        let pack = dir.join(PACK_FILE);
        let holder = File::open(&pack).unwrap();
        holder.lock().unwrap();
        let (flushed, done) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                c.flush();
                flushed.send(()).unwrap();
            });
            let waited = done.recv_timeout(std::time::Duration::from_millis(200));
            assert!(waited.is_err(), "the flush finished under another's lock");
            assert_eq!(std::fs::metadata(&pack).unwrap().len(), 0);
            holder.unlock().unwrap();
            done.recv().unwrap();
        });
        assert!(std::fs::metadata(&pack).unwrap().len() > 0);
        assert_eq!(testing::records(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache directory holding phase-1 key 5 (with a real IR), the
    /// phase-2 entry `(5, 6)` and analysis key 7.
    fn populated(tag: &str) -> PathBuf {
        let dir = tmpdir(tag);
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.store_phase1(head("m", 5), real_ir());
        c.store_phase2(Phase2Entry {
            object: ObjectModule { name: "m".into(), ..ObjectModule::default() },
            ..p2(5, 6)
        });
        c.store_analysis(analysis(7));
        c.flush();
        dir
    }

    /// Whether memory holds only a frame under each of the three keys
    /// [`populated`] stores.
    fn held(c: &CompilationCache) -> [bool; 3] {
        [
            matches!(c.phase1.entries.get(&5), Some((Kept::Frame(_), _))),
            matches!(c.phase2.entries.get(&(5, 6)), Some((Kept::Frame(_), _))),
            matches!(c.analysis, Some((7, Kept::Frame(_)))),
        ]
    }

    #[test]
    fn a_first_disk_use_holds_the_frame_and_hands_the_value_to_the_build() {
        let dir = populated("first-use");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        let (entry, from_disk) = c.lookup_phase1(5).unwrap();
        assert!(from_disk);
        assert_eq!(Arc::strong_count(&entry), 1, "the build alone holds the entry");
        let Some(Phase2Hit::Disk(object)) = c.lookup_phase2(5, 6) else {
            panic!("a disk hit hands the build its object");
        };
        assert_eq!(object.name, "m");
        let (analysis, from_disk) = c.lookup_analysis(7).unwrap();
        assert!(from_disk);
        assert_eq!(Arc::strong_count(&analysis), 1, "the build alone holds the analysis");
        assert_eq!(held(&c), [true; 3]);
        assert!(c.phase2_object(5, 6).is_none(), "memory holds no decoded object");
        // The held phase-1 frame is the one the entry decoded its head from.
        let Kept::Frame(frame) = &c.phase1.entries[&5].0 else { unreachable!() };
        assert!(Arc::ptr_eq(frame, &entry.frame));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_use_decodes_the_held_frame_and_counts_a_memory_hit() {
        let dir = populated("second-use");
        let tele = Telemetry::new();
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.set_telemetry(Some(tele.clone()));
        let (first, _) = c.lookup_phase1(5).unwrap();
        let Some(Phase2Hit::Disk(object)) = c.lookup_phase2(5, 6) else { panic!("disk hit") };
        let (analysis, _) = c.lookup_analysis(7).unwrap();
        let (again, from_disk) = c.lookup_phase1(5).unwrap();
        assert!(!from_disk);
        let Some((Kept::Decoded(kept), _)) = c.phase1.entries.get(&5) else { panic!("decoded") };
        assert!(Arc::ptr_eq(kept, &again), "memory keeps the decoded entry");
        assert_eq!((again.head.key, again.head.ir_fp), (first.head.key, first.head.ir_fp));
        assert_eq!(again.ir(), Some(&real_ir()));
        assert!(matches!(c.lookup_phase2(5, 6), Some(Phase2Hit::Memory)));
        assert_eq!(c.phase2_object(5, 6), Some(&object));
        let (again, from_disk) = c.lookup_analysis(7).unwrap();
        assert!(!from_disk);
        assert_eq!((&again.database, &again.stats), (&analysis.database, &analysis.stats));
        assert_eq!(held(&c), [false; 3]);
        // Only the first uses read the disk tier.
        assert_eq!(tele.counter("cache.disk.reads"), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_drops_held_frames_and_counts_them() {
        let dir = populated("held-retention");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.begin_build();
        assert!(c.lookup_phase1(5).is_some_and(|(_, disk)| disk));
        assert!(matches!(c.lookup_phase2(5, 6), Some(Phase2Hit::Disk(_))));
        assert_eq!(end(&mut c), (0, 0));
        assert_eq!(held(&c)[..2], [true, true]);
        // Builds 2..=16 use other keys; build 17 ends build 1's window.
        for b in 2..=16 {
            assert_eq!(one_build(&mut c, 100 + b, &[]), (0, 0), "build {b}");
        }
        assert_eq!(one_build(&mut c, 117, &[]), (1, 1), "both held frames leave memory");
        assert!(!c.phase1.entries.contains_key(&5) && !c.phase2.entries.contains_key(&(5, 6)));
        // The disk tier still serves them.
        assert!(c.lookup_phase1(5).is_some_and(|(_, disk)| disk));
        assert!(matches!(c.lookup_phase2(5, 6), Some(Phase2Hit::Disk(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_phase1_replaces_a_held_frame() {
        let dir = populated("held-repair");
        let tele = Telemetry::new();
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        c.set_telemetry(Some(tele.clone()));
        assert!(c.lookup_phase1(5).is_some_and(|(_, disk)| disk));
        assert!(held(&c)[0]);
        c.repair_phase1(head("m", 5), ir("redone"));
        assert_eq!(tele.counter("cache.disk.corrupt"), 1);
        let (e, from_disk) = c.lookup_phase1(5).unwrap();
        assert!(!from_disk);
        assert_eq!(e.ir().map(|ir| ir.name.as_str()), Some("redone"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn analysis(key: u64) -> AnalysisEntry {
        let mut database = ProgramDatabase::new();
        database.insert(ipra_core::ProcDirectives::standard("main"));
        let stats = AnalyzerStats { nodes: 1, avg_cluster_size: 1.5, ..AnalyzerStats::default() };
        AnalysisEntry { key, database, stats }
    }

    #[test]
    fn the_analysis_tier_keeps_one_slot_and_persists() {
        let dir = tmpdir("analysis");
        let mut c = CompilationCache::with_disk(&dir).unwrap();
        assert!(c.lookup_analysis(1).is_none());
        c.store_analysis(analysis(1));
        c.store_analysis(analysis(2));
        let (e, from_disk) = c.lookup_analysis(2).expect("the slot");
        assert!(!from_disk && e.key == 2);
        c.flush();
        // Key 1 left the slot but not the disk tier, and promotes back in.
        let (e, from_disk) = c.lookup_analysis(1).expect("the disk tier");
        assert!(from_disk);
        assert_eq!((&e.database, &e.stats), (&analysis(1).database, &analysis(1).stats));
        assert!(!c.lookup_analysis(1).unwrap().1, "promoted into the slot");
        // A record that points key 3 at key 2's frame does not serve key 3.
        let records = testing::records(&dir);
        let two = records.iter().find(|r| (r.kind, r.key) == (KIND_ANALYSIS, (2, 0))).unwrap();
        testing::append_records(&dir, &[IndexRecord { key: (3, 0), ..two.clone() }]);
        let tele = Telemetry::new();
        let mut fresh = CompilationCache::with_disk(&dir).unwrap();
        fresh.set_telemetry(Some(tele.clone()));
        assert!(fresh.lookup_analysis(3).is_none());
        assert_eq!(tele.counter("cache.disk.corrupt"), 1, "the frame is key 2's");
        assert!(fresh.lookup_analysis(2).is_some_and(|(e, _)| e.key == 2));
        // A record reaching past the pack's end is read as a miss, not
        // allocated for.
        testing::append_records(&dir, &[IndexRecord { key: (4, 0), len: 1 << 60, ..two.clone() }]);
        assert!(CompilationCache::with_disk(&dir).unwrap().lookup_analysis(4).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
