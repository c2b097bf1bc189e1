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
//!   that retention rule is the tier's only bound;
//! * an optional **on-disk** tier ([`DiskCache`], enabled through
//!   [`CompilationCache::with_disk`] / `cminc --cache-dir`) holding the
//!   same entries content-addressed by the same keys, so the fingerprints
//!   persist across *process* invocations: a one-module edit in a fresh
//!   `cminc` run recompiles only modules whose directive slices moved, and
//!   skips the analyzer when no summary changed.
//!
//! Reuse across builds — including builds at *different*
//! [`PaperConfig`](ipra_core::analyzer::PaperConfig)s — is sound because a
//! matching slice fingerprint certifies codegen would see identical
//! directives, and the analyzer reads nothing but the summaries and its
//! options.
//!
//! The cache keeps no record of its own traffic: the steps that probe it
//! count hits, disk hits and misses into the build's [`BuildReport`], and
//! `CompilationCache::end_build` returns the retention rule's drops for the
//! same report. Only the disk tier counts into telemetry, and only
//! what the report cannot see: file traffic and corrupt frames
//! (`cache.disk.*`).

use cmin_ir::IrModule;
use ipra_core::analyzer::AnalyzerStats;
use ipra_core::fingerprint::Fnv64;
use ipra_core::ProgramDatabase;
use ipra_summary::ModuleSummary;
use ipra_telemetry::Telemetry;
use serde::{BinDeserialize, Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use vpr::program::ObjectModule;

/// Cache accounting for one step of one build: a per-module phase, or the
/// program analyzer (one lookup per build).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Modules (or analyses) served from the cache (memory or disk).
    pub hits: usize,
    /// Of those hits, how many were loaded from the on-disk tier (always
    /// zero when the cache has no disk directory).
    pub disk_hits: usize,
    /// Modules (or analyses) recomputed.
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
    /// Link seconds (always runs).
    pub link_seconds: f64,
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
    /// The IR's binary encoding when the entry came off disk (empty when
    /// phase 1 ran in this process).
    encoded_ir: Vec<u8>,
    /// The IR, decoded on first use; `None` when the encoding is malformed.
    ir: OnceLock<Option<IrModule>>,
}

impl Phase1Entry {
    /// The module's optimized IR, decoded from the frame's tail on first
    /// use. `None` when the tail does not decode: the checksum passed, so
    /// the frame was written that way, and the caller recomputes phase 1.
    pub(crate) fn ir(&self) -> Option<&IrModule> {
        self.ir
            .get_or_init(|| {
                let mut cursor = self.encoded_ir.as_slice();
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

/// The program analyzer's result under one analysis key (see
/// `stages::analysis_key`). The analyzer's web reports are not kept: no
/// build product carries them.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct AnalysisEntry {
    pub(crate) key: u64,
    pub(crate) database: ProgramDatabase,
    pub(crate) stats: AnalyzerStats,
}

/// The persistent tier: cache entries as length-prefixed binary frames
/// ([`crate::framed`]) content-addressed by their fingerprint keys under
/// `p1/`, `p2/` and `an/` (program analyses) of a cache directory.
///
/// Because file names *are* the keys, concurrent writers can only race on
/// identical content, and a load checks the frame's checksum and
/// cross-checks the embedded fingerprints against the requested key — a
/// corrupt or truncated file degrades to a cache miss, never to a wrong
/// object.
///
/// Stores are *batched*: entries are encoded immediately but buffered in
/// memory and written out together by [`DiskCache::flush`] (the driver
/// flushes at the end of each build, and `Drop` flushes whatever remains),
/// so a build issues one burst of writes instead of interleaving I/O with
/// compilation. Same-build reuse is unaffected — the in-memory tier serves
/// entries the current process computed.
#[derive(Debug)]
pub(crate) struct DiskCache {
    root: PathBuf,
    pending: Vec<(PathBuf, Vec<u8>)>,
    /// Telemetry sink for tier traffic (reads/writes with byte counts);
    /// attached per build by [`CompilationCache::set_telemetry`].
    tele: Option<Telemetry>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Any I/O error creating `root` or its `p1`, `p2` and `an`
    /// subdirectories.
    pub(crate) fn open(root: impl Into<PathBuf>) -> std::io::Result<DiskCache> {
        let root = root.into();
        for tier in ["p1", "p2", "an"] {
            std::fs::create_dir_all(root.join(tier))?;
        }
        Ok(DiskCache { root, pending: Vec::new(), tele: None })
    }

    fn phase1_path(&self, key: u64) -> PathBuf {
        self.root.join("p1").join(format!("{key:016x}.bin"))
    }

    fn phase2_path(&self, ir_fp: u64, db_fp: u64) -> PathBuf {
        let mut h = Fnv64::new();
        h.write_u64(ir_fp);
        h.write_u64(db_fp);
        self.root.join("p2").join(format!("{:016x}.bin", h.finish()))
    }

    fn analysis_path(&self, key: u64) -> PathBuf {
        self.root.join("an").join(format!("{key:016x}.bin"))
    }

    /// Records the outcome of one disk-tier load attempt: read traffic in
    /// bytes, plus a corrupt-frame counter when a file read fine but failed
    /// to decode or fingerprint-check (it degrades to a miss).
    fn count_load<T>(&self, bytes: &[u8], decoded: &Option<T>) {
        if let Some(t) = &self.tele {
            t.add("cache.disk.reads", 1);
            t.add("cache.disk.read_bytes", bytes.len() as u64);
            if decoded.is_none() {
                t.add("cache.disk.corrupt", 1);
            }
        }
    }

    /// Loads a phase-1 frame's head; its IR tail stays encoded until
    /// [`Phase1Entry::ir`] asks for it.
    pub(crate) fn load_phase1(&self, key: u64) -> Option<Phase1Entry> {
        let bytes = std::fs::read(self.phase1_path(key)).ok()?;
        let e = crate::framed::decode_head::<Phase1Head>(&bytes, crate::framed::KIND_PHASE1)
            .filter(|(head, _)| head.key == key)
            .map(|(head, tail)| Phase1Entry {
                head,
                encoded_ir: tail.to_vec(),
                ir: OnceLock::new(),
            });
        self.count_load(&bytes, &e);
        e
    }

    /// Buffers a phase-1 frame: the head, then the IR's encoding as the
    /// tail.
    pub(crate) fn store_phase1(&mut self, head: &Phase1Head, ir: &IrModule) {
        let frame = crate::framed::encode_frame(crate::framed::KIND_PHASE1, &(head, ir));
        self.count_store(&frame);
        self.pending.push((self.phase1_path(head.key), frame));
    }

    pub(crate) fn load_phase2(&self, ir_fp: u64, db_fp: u64) -> Option<Phase2Entry> {
        let bytes = std::fs::read(self.phase2_path(ir_fp, db_fp)).ok()?;
        let e: Option<Phase2Entry> =
            crate::framed::decode_frame(&bytes, crate::framed::KIND_PHASE2)
                .filter(|e: &Phase2Entry| e.ir_fp == ir_fp && e.db_fp == db_fp);
        self.count_load(&bytes, &e);
        e
    }

    pub(crate) fn store_phase2(&mut self, entry: &Phase2Entry) {
        let frame = crate::framed::encode_frame(crate::framed::KIND_PHASE2, entry);
        self.count_store(&frame);
        self.pending.push((self.phase2_path(entry.ir_fp, entry.db_fp), frame));
    }

    pub(crate) fn load_analysis(&self, key: u64) -> Option<AnalysisEntry> {
        let bytes = std::fs::read(self.analysis_path(key)).ok()?;
        let e: Option<AnalysisEntry> =
            crate::framed::decode_frame(&bytes, crate::framed::KIND_ANALYSIS)
                .filter(|e: &AnalysisEntry| e.key == key);
        self.count_load(&bytes, &e);
        e
    }

    pub(crate) fn store_analysis(&mut self, entry: &AnalysisEntry) {
        let frame = crate::framed::encode_frame(crate::framed::KIND_ANALYSIS, entry);
        self.count_store(&frame);
        self.pending.push((self.analysis_path(entry.key), frame));
    }

    /// Records one buffered disk-tier store (counted at encode time; the
    /// actual write happens at [`flush`](DiskCache::flush)).
    fn count_store(&self, frame: &[u8]) {
        if let Some(t) = &self.tele {
            t.add("cache.disk.writes", 1);
            t.add("cache.disk.write_bytes", frame.len() as u64);
        }
    }

    /// Writes all buffered entries to disk. Best-effort per entry: a failed
    /// write leaves the disk tier cold for that key, not wrong.
    fn flush(&mut self) {
        let _s = ipra_telemetry::span(self.tele.as_ref(), "cache", "cache:flush");
        for (path, bytes) in self.pending.drain(..) {
            let _ = std::fs::write(path, bytes);
        }
    }
}

impl Drop for DiskCache {
    fn drop(&mut self) {
        self.flush();
    }
}

/// How many recent builds keep an entry in memory: at the end of each
/// [`crate::compile_incremental`] call, an entry that none of the cache's
/// last `RETAINED_BUILDS` builds (that one included) looked up or stored
/// leaves the memory tier. The disk tier keeps it.
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
    fn get(&mut self, key: K, tick: u64) -> Option<&V> {
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

/// The incremental recompilation cache: the in-memory tier plus an
/// optional on-disk tier behind it, opened by
/// [`with_disk`](CompilationCache::with_disk).
#[derive(Debug, Default)]
pub struct CompilationCache {
    /// Phase-1 entries by phase-1 key.
    phase1: Tier<u64, Arc<Phase1Entry>>,
    /// Phase-2 objects by `(ir_fp, db_fp)`.
    phase2: Tier<(u64, u64), ObjectModule>,
    /// The most recent program analysis. One slot, outside the retention
    /// rule: the warm and edit rebuilds it serves repeat the previous
    /// build's key.
    analysis: Option<Arc<AnalysisEntry>>,
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

    /// Marks the start of a build, for the retention rule.
    pub(crate) fn begin_build(&mut self) {
        if self.build_starts.len() == RETAINED_BUILDS {
            self.build_starts.pop_front();
        }
        self.build_starts.push_back(self.tick + 1);
    }

    /// The retention rule, applied as a build ends — the memory tier's
    /// only eviction: drops from memory every entry that none of the last
    /// [`RETAINED_BUILDS`] builds looked up or stored. The current build's
    /// entries stay, and so does the disk tier. Returns the phase-1 and
    /// phase-2 drops, the build's [`PhaseStats::evictions`].
    pub(crate) fn end_build(&mut self) -> (usize, usize) {
        if self.build_starts.len() < RETAINED_BUILDS {
            return (0, 0);
        }
        let oldest = self.build_starts[0];
        (self.phase1.retire_before(oldest), self.phase2.retire_before(oldest))
    }

    /// Phase-1 lookup by phase-1 key: memory first, then the disk tier
    /// (promoting to memory). The flag reports whether the entry came from
    /// disk.
    ///
    /// Entries are shared, not copied: a hit is a refcount bump, so the
    /// hot path of a warm build never deep-clones an `IrModule`, and a
    /// disk-warm one never decodes the IR of a module phase 2 does not
    /// recompile.
    pub(crate) fn lookup_phase1(&mut self, key: u64) -> Option<(Arc<Phase1Entry>, bool)> {
        let tick = self.next_tick();
        if let Some(e) = self.phase1.get(key, tick) {
            return Some((Arc::clone(e), false));
        }
        let e = Arc::new(self.disk.as_ref()?.load_phase1(key)?);
        self.phase1.insert(key, Arc::clone(&e), tick);
        Some((e, true))
    }

    /// Stores a freshly computed phase-1 entry in memory and, when
    /// attached, writes it through to disk. Returns the shared handle so
    /// the caller keeps using the entry without cloning it.
    pub(crate) fn store_phase1(&mut self, head: Phase1Head, ir: IrModule) -> Arc<Phase1Entry> {
        if let Some(d) = &mut self.disk {
            d.store_phase1(&head, &ir);
        }
        let key = head.key;
        let entry =
            Arc::new(Phase1Entry { head, encoded_ir: Vec::new(), ir: OnceLock::from(Some(ir)) });
        let tick = self.next_tick();
        self.phase1.insert(key, Arc::clone(&entry), tick);
        entry
    }

    /// Replaces a phase-1 entry whose IR tail passed the checksum but did
    /// not decode with one recomputed from source: the frame counts as
    /// corrupt, and the flush overwrites the file.
    pub(crate) fn repair_phase1(&mut self, head: Phase1Head, ir: IrModule) {
        if let Some(t) = &self.tele {
            t.add("cache.disk.corrupt", 1);
        }
        self.store_phase1(head, ir);
    }

    /// Phase-2 lookup by `(ir_fp, db_fp)`: memory first, then the disk tier
    /// (promoting to memory). The flag reports whether the object came from
    /// disk.
    pub(crate) fn lookup_phase2(&mut self, ir_fp: u64, db_fp: u64) -> Option<(ObjectModule, bool)> {
        let tick = self.next_tick();
        if let Some(object) = self.phase2.get((ir_fp, db_fp), tick) {
            return Some((object.clone(), false));
        }
        let e = self.disk.as_ref()?.load_phase2(ir_fp, db_fp)?;
        let object = e.object.clone();
        self.phase2.insert((ir_fp, db_fp), e.object, tick);
        Some((object, true))
    }

    /// Stores a freshly compiled object in memory and, when attached,
    /// writes it through to disk.
    pub(crate) fn store_phase2(&mut self, entry: Phase2Entry) {
        if let Some(d) = &mut self.disk {
            d.store_phase2(&entry);
        }
        let tick = self.next_tick();
        self.phase2.insert((entry.ir_fp, entry.db_fp), entry.object, tick);
    }

    /// Analysis lookup: the memory slot first, then the disk tier
    /// (promoting into the slot). The flag reports whether the entry came
    /// from disk.
    pub(crate) fn lookup_analysis(&mut self, key: u64) -> Option<(Arc<AnalysisEntry>, bool)> {
        if let Some(e) = self.analysis.as_ref().filter(|e| e.key == key) {
            return Some((Arc::clone(e), false));
        }
        let e = Arc::new(self.disk.as_ref()?.load_analysis(key)?);
        self.analysis = Some(Arc::clone(&e));
        Some((e, true))
    }

    /// Stores a freshly computed analysis in the memory slot and, when
    /// attached, writes it through to disk.
    pub(crate) fn store_analysis(&mut self, entry: AnalysisEntry) -> Arc<AnalysisEntry> {
        if let Some(d) = &mut self.disk {
            d.store_analysis(&entry);
        }
        let entry = Arc::new(entry);
        self.analysis = Some(Arc::clone(&entry));
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

    /// One build that stores phase-1 key `stored` and looks up `used`;
    /// returns the retention rule's drops.
    fn one_build(c: &mut CompilationCache, stored: u64, used: &[u64]) -> (usize, usize) {
        c.begin_build();
        store1(c, "x", stored);
        for &k in used {
            assert!(c.lookup_phase1(k).is_some(), "key {k} is still in memory");
        }
        c.end_build()
    }

    #[test]
    fn retention_drops_what_the_last_builds_did_not_use() {
        let mut c = CompilationCache::new();
        c.begin_build();
        store1(&mut c, "a", 1);
        c.store_phase2(p2(1, 1));
        assert_eq!(c.end_build(), (0, 0));
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
        let path = c.disk.as_ref().unwrap().phase1_path(9);
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
        // A frame under the wrong name does not serve its key.
        let an = dir.join("an");
        std::fs::rename(an.join(format!("{:016x}.bin", 2)), an.join(format!("{:016x}.bin", 3)))
            .unwrap();
        assert!(CompilationCache::with_disk(&dir).unwrap().lookup_analysis(3).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
