//! The program database (paper §4.3).
//!
//! The analyzer's output: one entry per procedure, holding the promoted
//! globals (with their dedicated registers and web-entry flags) and the
//! four register usage sets. The compiler second phase queries this
//! database by procedure name — in any order, which is the point of the
//! two-pass design: "since the directives are stored in a single program
//! database, the compiler second phase can be run on each source module
//! independently".

use crate::fingerprint::Fnv64;
use crate::regsets::RegUsage;
use serde::{BinSerialize, Deserialize, Serialize};
use std::collections::BTreeMap;
use vpr::regs::Reg;

/// One promoted global in one procedure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Promotion {
    /// The global's link name.
    pub sym: String,
    /// The callee-saves register dedicated to it in this procedure.
    pub reg: Reg,
    /// Is this procedure a web entry node (load the global at entry)?
    pub is_entry: bool,
    /// Must web entries store the global back at exit? `false` when no web
    /// member writes it (§5's store suppression).
    pub store_at_exit: bool,
}

/// All directives for one procedure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcDirectives {
    /// Procedure link name.
    pub name: String,
    /// Promoted globals visible in this procedure.
    pub promotions: Vec<Promotion>,
    /// The FREE/CALLER/CALLEE/MSPILL register sets.
    pub usage: RegUsage,
    /// Is this procedure a cluster root (spills its MSPILL set
    /// unconditionally)?
    pub is_cluster_root: bool,
    /// Claim-pool registers this procedure may use as caller-saves scratch
    /// (§7.6.2 caller-saves preallocation; the full pool when the extension
    /// is off).
    #[serde(default = "full_claim")]
    pub claimed_caller: vpr::regs::RegSet,
    /// Claim-pool registers guaranteed untouched by any call to this
    /// procedure, transitively (empty when the extension is off).
    #[serde(default)]
    pub safe_caller_across: vpr::regs::RegSet,
}

fn full_claim() -> vpr::regs::RegSet {
    crate::caller_prealloc::claim_pool_set()
}

impl ProcDirectives {
    /// Directives equivalent to the standard linkage convention (what a
    /// procedure gets when interprocedural allocation is off or the
    /// database has no entry for it). VPR convention.
    pub fn standard(name: impl Into<String>) -> ProcDirectives {
        ProcDirectives::standard_for(name, vpr::target::TargetId::Vpr)
    }

    /// The standard-convention directives of `target`.
    pub fn standard_for(name: impl Into<String>, target: vpr::target::TargetId) -> ProcDirectives {
        let desc = target.desc();
        ProcDirectives {
            name: name.into(),
            promotions: Vec::new(),
            usage: RegUsage::standard_for(desc),
            is_cluster_root: false,
            claimed_caller: desc.claim_pool_set(),
            safe_caller_across: vpr::regs::RegSet::new(),
        }
    }
}

/// The whole-program register allocation database.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramDatabase {
    entries: BTreeMap<String, ProcDirectives>,
}

impl ProgramDatabase {
    /// An empty database (every query falls back to the standard
    /// convention).
    pub fn new() -> ProgramDatabase {
        ProgramDatabase::default()
    }

    /// Inserts or replaces a procedure's directives.
    pub fn insert(&mut self, d: ProcDirectives) {
        self.entries.insert(d.name.clone(), d);
    }

    /// The directives for `name`, if the analyzer produced any.
    pub fn get(&self, name: &str) -> Option<&ProcDirectives> {
        self.entries.get(name)
    }

    /// The directives for `name`, falling back to the standard convention
    /// (VPR).
    pub fn lookup(&self, name: &str) -> ProcDirectives {
        self.lookup_for(name, vpr::target::TargetId::Vpr)
    }

    /// The directives for `name`, falling back to `target`'s standard
    /// convention for procedures the analyzer never saw.
    pub fn lookup_for(&self, name: &str, target: vpr::target::TargetId) -> ProcDirectives {
        self.entries
            .get(name)
            .cloned()
            .unwrap_or_else(|| ProcDirectives::standard_for(name, target))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &ProcDirectives> {
        self.entries.values()
    }

    /// Stable fingerprint of one procedure's directives, as the compiler
    /// second phase would see them: absent entries hash as the standard
    /// linkage convention, so adding an explicit `standard()` entry does
    /// not change the fingerprint-visible contract.
    pub fn proc_fingerprint(&self, name: &str) -> u64 {
        let mut h = Fnv64::new();
        self.hash_proc(&mut h, name, &mut Vec::new());
        h.finish()
    }

    /// Stable fingerprint of the *module-relevant slice* of the database:
    /// everything the compiler second phase consults while compiling one
    /// module. That is, per [`cmin_codegen`]'s query pattern:
    ///
    /// * the **full directives** of every procedure the module defines
    ///   (`defined`), and
    /// * the **`safe_caller_across` sets** of every procedure the module
    ///   calls directly (`callees`) — the only cross-procedure fact codegen
    ///   reads at call sites.
    ///
    /// Two databases that agree on this slice direct byte-identical codegen
    /// for the module, so an incremental driver can skip its second phase.
    /// Names are sorted and deduplicated internally; callers may pass them
    /// in any order.
    pub fn module_slice_fingerprint<'a>(
        &self,
        defined: impl IntoIterator<Item = &'a str>,
        callees: impl IntoIterator<Item = &'a str>,
    ) -> u64 {
        let mut defined: Vec<&str> = defined.into_iter().collect();
        defined.sort_unstable();
        defined.dedup();
        let mut callees: Vec<&str> = callees.into_iter().collect();
        callees.sort_unstable();
        callees.dedup();

        let mut h = Fnv64::new();
        let mut buf = Vec::new();
        h.write_u64(defined.len() as u64);
        for name in defined {
            h.write_str(name);
            self.hash_proc(&mut h, name, &mut buf);
        }
        h.write_u64(callees.len() as u64);
        for name in callees {
            h.write_str(name);
            // Codegen reads exactly `db.get(name)`'s safe set, defaulting to
            // empty for procedures the analyzer never saw.
            let safe = self.get(name).map(|d| d.safe_caller_across).unwrap_or_default();
            hash_encoding(&mut h, &safe, &mut buf);
        }
        h.finish()
    }

    /// Feeds `name`'s directives to `h` — the standard convention's when
    /// the analyzer produced none — without cloning a present entry.
    fn hash_proc(&self, h: &mut Fnv64, name: &str, buf: &mut Vec<u8>) {
        match self.entries.get(name) {
            Some(d) => hash_encoding(h, d, buf),
            None => hash_encoding(h, &ProcDirectives::standard(name), buf),
        }
    }

    /// Serializes the database (the paper's on-disk program database).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("database serialization cannot fail")
    }

    /// Reads a database back.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error for malformed input.
    pub fn from_json(s: &str) -> Result<ProgramDatabase, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// Feeds `value`'s length-prefixed positional binary encoding to a hasher
/// (`buf` is scratch space reused across calls). The encoding is
/// deterministic: promotions are analyzer-ordered `Vec`s and register sets
/// encode as their bit words.
fn hash_encoding(h: &mut Fnv64, value: &impl BinSerialize, buf: &mut Vec<u8>) {
    buf.clear();
    value.bin_serialize(buf);
    h.write_u64(buf.len() as u64);
    h.write(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpr::regs::RegSet;

    #[test]
    fn lookup_falls_back_to_standard() {
        let db = ProgramDatabase::new();
        let d = db.lookup("anything");
        assert_eq!(d.usage.callee, RegSet::callee_saves());
        assert_eq!(d.usage.caller, RegSet::caller_saves());
        assert!(d.usage.free.is_empty() && d.usage.mspill.is_empty());
        assert!(d.promotions.is_empty());
        assert!(!d.is_cluster_root);
        assert!(db.get("anything").is_none());
    }

    #[test]
    fn insert_and_query() {
        let mut db = ProgramDatabase::new();
        let mut d = ProcDirectives::standard("f");
        d.promotions.push(Promotion {
            sym: "g".into(),
            reg: Reg::new(3),
            is_entry: true,
            store_at_exit: true,
        });
        d.is_cluster_root = true;
        db.insert(d.clone());
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("f"), Some(&d));
        assert_eq!(db.lookup("f"), d);
    }

    #[test]
    fn json_round_trip() {
        let mut db = ProgramDatabase::new();
        let mut d = ProcDirectives::standard("f");
        d.usage.free.insert(Reg::new(5));
        d.usage.mspill.insert(Reg::new(6));
        db.insert(d);
        db.insert(ProcDirectives::standard("g"));
        let back = ProgramDatabase::from_json(&db.to_json()).unwrap();
        assert_eq!(db, back);
        assert!(ProgramDatabase::from_json("nope").is_err());
    }

    #[test]
    fn proc_fingerprint_tracks_directive_changes() {
        let mut db = ProgramDatabase::new();
        let base = db.proc_fingerprint("f");
        // An explicit standard entry is indistinguishable from no entry.
        db.insert(ProcDirectives::standard("f"));
        assert_eq!(db.proc_fingerprint("f"), base);
        // Any directive change moves the fingerprint.
        let mut d = ProcDirectives::standard("f");
        d.usage.free.insert(Reg::new(5));
        db.insert(d);
        assert_ne!(db.proc_fingerprint("f"), base);
    }

    #[test]
    fn slice_fingerprint_sees_only_the_relevant_slice() {
        let mut db = ProgramDatabase::new();
        let mut f = ProcDirectives::standard("f");
        f.is_cluster_root = true;
        db.insert(f);
        db.insert(ProcDirectives::standard("g"));
        let before = db.module_slice_fingerprint(["f"], ["g"]);

        // A change to an unrelated procedure leaves the slice unchanged.
        let mut far = ProcDirectives::standard("far");
        far.usage.mspill.insert(Reg::new(4));
        db.insert(far);
        assert_eq!(db.module_slice_fingerprint(["f"], ["g"]), before);

        // A change to a defined procedure's directives moves it.
        let mut f2 = db.lookup("f");
        f2.promotions.push(Promotion {
            sym: "glob".into(),
            reg: Reg::new(3),
            is_entry: true,
            store_at_exit: false,
        });
        db.insert(f2);
        let after_def = db.module_slice_fingerprint(["f"], ["g"]);
        assert_ne!(after_def, before);

        // A callee change is only visible through its safe set.
        let mut g = db.lookup("g");
        g.is_cluster_root = true; // codegen of callers never reads this
        db.insert(g);
        assert_eq!(db.module_slice_fingerprint(["f"], ["g"]), after_def);
        let mut g2 = db.lookup("g");
        g2.safe_caller_across.insert(Reg::new(20));
        db.insert(g2);
        assert_ne!(db.module_slice_fingerprint(["f"], ["g"]), after_def);
    }

    /// The incremental driver persists databases as JSON between builds and
    /// keys its cache on these fingerprints — so a round-trip through the
    /// on-disk form must reproduce them bit-for-bit, and independently
    /// constructed equal databases must agree regardless of insert order.
    #[test]
    fn fingerprints_are_stable_across_serialization_and_construction() {
        let mut db = ProgramDatabase::new();
        let mut f = ProcDirectives::standard("f");
        f.usage.free.insert(Reg::new(5));
        f.promotions.push(Promotion {
            sym: "g".into(),
            reg: Reg::new(3),
            is_entry: true,
            store_at_exit: true,
        });
        db.insert(f.clone());
        db.insert(ProcDirectives::standard("g"));

        let mut db2 = ProgramDatabase::new();
        db2.insert(ProcDirectives::standard("g"));
        db2.insert(f);
        let db3 = ProgramDatabase::from_json(&db.to_json()).unwrap();

        for other in [&db2, &db3] {
            assert_eq!(db.proc_fingerprint("f"), other.proc_fingerprint("f"));
            assert_eq!(db.proc_fingerprint("g"), other.proc_fingerprint("g"));
            assert_eq!(
                db.module_slice_fingerprint(["f"], ["g"]),
                other.module_slice_fingerprint(["f"], ["g"])
            );
        }
    }

    #[test]
    fn slice_fingerprint_is_order_insensitive() {
        let mut db = ProgramDatabase::new();
        db.insert(ProcDirectives::standard("a"));
        db.insert(ProcDirectives::standard("b"));
        assert_eq!(
            db.module_slice_fingerprint(["a", "b"], ["c", "d", "c"]),
            db.module_slice_fingerprint(["b", "a", "a"], ["d", "c"])
        );
        // Defined and callee roles are not interchangeable.
        assert_ne!(
            db.module_slice_fingerprint(["a"], ["b"]),
            db.module_slice_fingerprint(["b"], ["a"])
        );
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut db = ProgramDatabase::new();
        db.insert(ProcDirectives::standard("zeta"));
        db.insert(ProcDirectives::standard("alpha"));
        let names: Vec<&str> = db.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
