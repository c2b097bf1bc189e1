//! The differential oracle: one generated program, every way we know how
//! to falsify the compiler.
//!
//! A program passes [`check`] only if
//!
//! 1. the reference interpreter (which shares no code with the lowering,
//!    optimizer, analyzer, code generator, linker or simulator) accepts it
//!    and terminates without a trap;
//! 2. under **all seven paper configurations** — with one shared
//!    incremental cache across them, so cross-configuration cache
//!    soundness is on trial too — the program compiles, passes the
//!    `ipra-verify` register-discipline check, and its simulated output
//!    and exit code match the interpreter's;
//! 3. exact per-procedure attribution is internally consistent with the
//!    run statistics ([`vpr::Attribution::matches`]);
//! 4. optionally ([`CheckOptions::incremental`]) an edit → rebuild →
//!    revert sequence through one cache produces executables bit-identical
//!    to cold builds of the same sources;
//! 5. optionally ([`CheckOptions::trace_purity`]) compiling with decision
//!    tracing on yields a bit-identical executable (tracing must be pure
//!    observation);
//! 6. optionally ([`CheckOptions::separate`]) staging the build through
//!    on-disk artifacts (`.csum` → `.cdir` → `.vo` → `.vx`) yields an
//!    executable bit-identical to the in-memory `compile()` — the
//!    serialization layer must be lossless and the artifact pipeline must
//!    not perturb a single analyzer or codegen decision;
//! 7. optionally ([`CheckOptions::cross_engine`]) the *other* simulator
//!    engine (fast pre-decoded vs reference interpreter,
//!    [`vpr::Engine`]) produces an identical `Result<RunResult, SimError>`
//!    under every configuration — output, exit, stats, attribution, and
//!    trap kind/pc/symbolization must all agree bit-for-bit;
//! 8. optionally ([`CheckOptions::cross_target`]) the whole program is
//!    *also* compiled for the RV32 machine description under every
//!    configuration — through the same incremental cache, so per-target
//!    fingerprint separation is on trial too — and must pass
//!    `ipra-verify` under the RV32 convention and produce the same
//!    observable semantics (output stream and exit code) as both the
//!    interpreter and the VPR build. Register conventions differ per
//!    target; observable behavior must not.

use ipra_core::PaperConfig;
use ipra_driver::{
    compile, compile_configured, run_program_attributed, verify_program, CompilationCache,
    CompileOptions, SourceFile,
};
use std::fmt;
use std::path::PathBuf;

/// Execution budgets for the oracle's runs, far above anything a
/// generated program can legitimately execute (they are built from small
/// bounded loops and depth-clamped recursion) but small enough that a
/// *reducer-made* degenerate candidate — e.g. a `for` loop whose step
/// statement was dropped — fails fast as a trap (a different failure
/// class, so the reducer simply rejects the candidate) instead of
/// spinning through the engines' default multi-billion-step limits.
const ORACLE_INTERP_FUEL: u64 = 5_000_000;
const ORACLE_SIM_STEPS: u64 = 20_000_000;

/// What went wrong for one generated program. Every variant pinpoints the
/// failing stage; [`Failure::same_class`] is the reducer's "still fails
/// the same way" relation (kind + configuration, not exact payload).
#[derive(Debug, Clone)]
pub enum Failure {
    /// The frontend rejected a program the generator promised was
    /// well-formed.
    Frontend {
        /// The diagnostic.
        detail: String,
    },
    /// The reference interpreter trapped.
    InterpTrap {
        /// The trap.
        detail: String,
    },
    /// Compilation failed under one configuration.
    Compile {
        /// The failing configuration.
        config: PaperConfig,
        /// The driver error.
        detail: String,
    },
    /// The profile-feedback training run trapped.
    TrainingTrap {
        /// The failing configuration.
        config: PaperConfig,
        /// The trap.
        detail: String,
    },
    /// `ipra-verify` found a register-discipline violation.
    Verify {
        /// The failing configuration.
        config: PaperConfig,
        /// The rendered diagnostics.
        detail: String,
    },
    /// The simulator trapped on code the interpreter ran cleanly.
    SimTrap {
        /// The failing configuration.
        config: PaperConfig,
        /// The trap.
        detail: String,
    },
    /// Observable behavior diverged between interpreter and simulator.
    OutputDivergence {
        /// The failing configuration.
        config: PaperConfig,
        /// Interpreter output stream.
        oracle_out: Vec<i64>,
        /// Interpreter exit code.
        oracle_exit: i64,
        /// Simulator output stream.
        sim_out: Vec<i64>,
        /// Simulator exit code.
        sim_exit: i64,
    },
    /// Per-procedure attribution does not sum to the run totals.
    AttributionMismatch {
        /// The failing configuration.
        config: PaperConfig,
    },
    /// An incremental rebuild produced a different executable than a cold
    /// build of the same sources.
    IncrementalDivergence {
        /// The configuration under test.
        config: PaperConfig,
        /// Which leg of the edit/revert sequence diverged.
        detail: String,
    },
    /// Compiling with decision tracing on changed the emitted executable.
    TraceImpurity {
        /// The configuration under test.
        config: PaperConfig,
    },
    /// The artifact-staged separate-compilation build produced a different
    /// executable than the in-memory pipeline, or failed where the
    /// in-memory pipeline succeeded.
    SeparateDivergence {
        /// The configuration under test.
        config: PaperConfig,
        /// What diverged, including the preserved artifact directory.
        detail: String,
    },
    /// The two simulator engines disagreed on any observable of the same
    /// program — the fast engine's bit-identity contract is broken.
    EngineDivergence {
        /// The configuration under test.
        config: PaperConfig,
        /// The first observable that differed, with both engines' values.
        detail: String,
    },
    /// The `cmind` wire codec failed to round-trip a request/response
    /// built from the generated program, or accepted a corrupted frame.
    DaemonProtocol {
        /// What went wrong (which leg, which byte).
        detail: String,
    },
    /// The RV32 build of the same program failed, failed verification
    /// under the RV32 convention, or produced different observable
    /// semantics than the VPR build.
    CrossTargetDivergence {
        /// The configuration under test.
        config: PaperConfig,
        /// Which leg diverged, with both targets' observables.
        detail: String,
    },
}

impl Failure {
    /// Short kebab-case class name (used in corpus metadata and dedup).
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Frontend { .. } => "frontend-error",
            Failure::InterpTrap { .. } => "interp-trap",
            Failure::Compile { .. } => "compile-error",
            Failure::TrainingTrap { .. } => "training-trap",
            Failure::Verify { .. } => "verify-dirty",
            Failure::SimTrap { .. } => "sim-trap",
            Failure::OutputDivergence { .. } => "output-divergence",
            Failure::AttributionMismatch { .. } => "attribution-mismatch",
            Failure::IncrementalDivergence { .. } => "incremental-divergence",
            Failure::TraceImpurity { .. } => "trace-impurity",
            Failure::SeparateDivergence { .. } => "separate-divergence",
            Failure::EngineDivergence { .. } => "engine-divergence",
            Failure::DaemonProtocol { .. } => "daemon-protocol",
            Failure::CrossTargetDivergence { .. } => "cross-target-divergence",
        }
    }

    /// The configuration the failure occurred under, when it has one.
    pub fn config(&self) -> Option<PaperConfig> {
        match self {
            Failure::Frontend { .. }
            | Failure::InterpTrap { .. }
            | Failure::DaemonProtocol { .. } => None,
            Failure::Compile { config, .. }
            | Failure::TrainingTrap { config, .. }
            | Failure::Verify { config, .. }
            | Failure::SimTrap { config, .. }
            | Failure::OutputDivergence { config, .. }
            | Failure::AttributionMismatch { config }
            | Failure::IncrementalDivergence { config, .. }
            | Failure::TraceImpurity { config }
            | Failure::SeparateDivergence { config, .. }
            | Failure::EngineDivergence { config, .. }
            | Failure::CrossTargetDivergence { config, .. } => Some(*config),
        }
    }

    /// The reducer's invariant: a candidate still counts as reproducing
    /// this failure if it fails at the same stage under the same
    /// configuration (payload details may legitimately change as the
    /// program shrinks).
    pub fn same_class(&self, other: &Failure) -> bool {
        self.kind() == other.kind() && self.config() == other.config()
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Frontend { detail } => write!(f, "frontend error: {detail}"),
            Failure::InterpTrap { detail } => write!(f, "interpreter trap: {detail}"),
            Failure::Compile { config, detail } => write!(f, "[{config}] compile error: {detail}"),
            Failure::TrainingTrap { config, detail } => {
                write!(f, "[{config}] training run trapped: {detail}")
            }
            Failure::Verify { config, detail } => {
                write!(f, "[{config}] verification failed:\n{detail}")
            }
            Failure::SimTrap { config, detail } => write!(f, "[{config}] simulator trap: {detail}"),
            Failure::OutputDivergence { config, oracle_out, oracle_exit, sim_out, sim_exit } => {
                write!(
                    f,
                    "[{config}] diverged: oracle exit {oracle_exit} out {oracle_out:?} \
                     vs sim exit {sim_exit} out {sim_out:?}"
                )
            }
            Failure::AttributionMismatch { config } => {
                write!(f, "[{config}] per-procedure attribution does not sum to run totals")
            }
            Failure::IncrementalDivergence { config, detail } => {
                write!(f, "[{config}] incremental rebuild diverged from cold build: {detail}")
            }
            Failure::TraceImpurity { config } => {
                write!(f, "[{config}] tracing changed the emitted executable")
            }
            Failure::SeparateDivergence { config, detail } => {
                write!(f, "[{config}] artifact-staged build diverged from in-memory: {detail}")
            }
            Failure::EngineDivergence { config, detail } => {
                write!(f, "[{config}] simulator engines diverged: {detail}")
            }
            Failure::DaemonProtocol { detail } => {
                write!(f, "daemon wire codec violation: {detail}")
            }
            Failure::CrossTargetDivergence { config, detail } => {
                write!(f, "[{config}] rv32 build diverged from vpr: {detail}")
            }
        }
    }
}

/// Which optional oracle scenarios to run on top of the all-configuration
/// differential (both are build-level checks, independent of the random
/// program's behavior, so the fuzzer enables them on a rotating subset of
/// iterations to keep throughput).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckOptions {
    /// Run the edit → incremental rebuild → revert sequence and demand
    /// bit-identity with cold builds.
    pub incremental: bool,
    /// Compile once with decision tracing on and demand a bit-identical
    /// executable.
    pub trace_purity: bool,
    /// Stage the build through on-disk artifacts (`cminc c` → `analyze` →
    /// `link` equivalent) and demand an executable bit-identical to the
    /// in-memory pipeline.
    pub separate: bool,
    /// Which simulator engine runs the per-configuration differential leg
    /// (the fuzzer rotates this so the reference interpreter keeps getting
    /// fuzzed even though the fast engine is the default).
    pub engine: vpr::Engine,
    /// Additionally run every configuration's program under the *other*
    /// engine and demand an identical `Result<RunResult, SimError>`.
    pub cross_engine: bool,
    /// Round-trip a build request/response synthesized from the generated
    /// program through the `cmind` wire codec, then prove every
    /// single-byte corruption of the request frame is rejected with a
    /// typed error (never a panic, never a silent decode).
    pub daemon_protocol: bool,
    /// Additionally compile every configuration for the RV32 machine
    /// description (through the same cache) and demand a clean
    /// `ipra-verify` report plus observable semantics — output and exit —
    /// identical to the VPR build's [`vpr::RunResult`].
    pub cross_target: bool,
}

/// The configuration used for the build-level scenarios (incremental
/// rebuilds and trace purity). E exercises the richest machinery:
/// promotion webs, clusters, and spill-code motion.
const BUILD_SCENARIO_CONFIG: PaperConfig = PaperConfig::E;

/// Runs the full oracle over one program. `Ok(())` means every stage
/// agreed; the first discrepancy comes back as a typed [`Failure`].
pub fn check(sources: &[SourceFile], opts: &CheckOptions) -> Result<(), Failure> {
    let modules = match ipra_driver::frontend(sources) {
        Err(e) => return Err(Failure::Frontend { detail: e.to_string() }),
        Ok(m) => m,
    };
    let interp_opts =
        cmin_ir::interp::InterpOptions { fuel: ORACLE_INTERP_FUEL, ..Default::default() };
    let oracle = match cmin_ir::interp::interpret_with(&modules, &interp_opts) {
        Err(e) => return Err(Failure::InterpTrap { detail: e.to_string() }),
        Ok(r) => r,
    };

    // One cache across all eight configurations (the seven paper configs
    // plus alias-precision P): phase-1 entries must be reusable between
    // configs, and phase-2 entries must be correctly invalidated as the
    // database changes per config.
    let mut cache = CompilationCache::new();
    let copts = CompileOptions::default();
    for config in PaperConfig::ALL_WITH_ALIAS {
        let program = match compile_configured(sources, config, &[], &copts, &mut cache) {
            Err(e) => return Err(Failure::Compile { config, detail: e.to_string() }),
            Ok(Err(e)) => return Err(Failure::TrainingTrap { config, detail: e.to_string() }),
            Ok(Ok(p)) => p,
        };
        let report = verify_program(&program);
        if !report.is_clean() {
            return Err(Failure::Verify { config, detail: report.to_string() });
        }
        let sim_opts = vpr::SimOptions {
            attribute: true,
            max_steps: ORACLE_SIM_STEPS,
            engine: opts.engine,
            ..vpr::SimOptions::default()
        };
        let primary = vpr::run_with(&program.exe, &sim_opts);
        if opts.cross_engine {
            let other_opts = vpr::SimOptions { engine: opts.engine.other(), ..sim_opts.clone() };
            let other = vpr::run_with(&program.exe, &other_opts);
            if primary != other {
                return Err(Failure::EngineDivergence {
                    config,
                    detail: divergence_detail(opts.engine, &primary, &other),
                });
            }
        }
        let r = match primary {
            Err(e) => return Err(Failure::SimTrap { config, detail: e.to_string() }),
            Ok(r) => r,
        };
        if r.output != oracle.output || r.exit != oracle.exit {
            return Err(Failure::OutputDivergence {
                config,
                oracle_out: oracle.output.clone(),
                oracle_exit: oracle.exit,
                sim_out: r.output,
                sim_exit: r.exit,
            });
        }
        let attribution = r.attribution.as_ref().expect("attribution was requested");
        if !attribution.matches(&r.stats) {
            return Err(Failure::AttributionMismatch { config });
        }
        if opts.cross_target {
            check_cross_target(sources, config, &copts, &mut cache, &r)?;
        }
    }

    if opts.incremental {
        check_incremental(sources)?;
    }
    if opts.trace_purity {
        check_trace_purity(sources)?;
    }
    if opts.separate {
        check_separate(sources)?;
    }
    if opts.daemon_protocol {
        check_daemon(sources)?;
    }
    Ok(())
}

/// The cross-target leg: the same program, same configuration, compiled
/// for the RV32 machine description through the same shared cache (so the
/// per-target fingerprint separation of [`ipra_driver`]'s phase-2 keys is
/// exercised), verified under the RV32 register convention, and run —
/// output stream, exit code and attribution consistency must match the
/// VPR build's. Cycle and memory-reference counts legitimately differ
/// (the conventions partition the register file differently), so only
/// the observable semantics are compared.
fn check_cross_target(
    sources: &[SourceFile],
    config: PaperConfig,
    copts: &CompileOptions,
    cache: &mut CompilationCache,
    vpr_result: &vpr::RunResult,
) -> Result<(), Failure> {
    let fail = |detail: String| Failure::CrossTargetDivergence { config, detail };
    let rv_opts = CompileOptions { target: vpr::target::TargetId::Rv32, ..copts.clone() };
    let program = match compile_configured(sources, config, &[], &rv_opts, cache) {
        Err(e) => return Err(fail(format!("rv32 compile failed: {e}"))),
        Ok(Err(e)) => return Err(fail(format!("rv32 training run trapped: {e}"))),
        Ok(Ok(p)) => p,
    };
    let report = verify_program(&program);
    if !report.is_clean() {
        return Err(fail(format!("rv32 verification failed:\n{report}")));
    }
    let sim_opts = vpr::SimOptions {
        attribute: true,
        max_steps: ORACLE_SIM_STEPS,
        ..vpr::SimOptions::default()
    };
    let r = match vpr::run_with(&program.exe, &sim_opts) {
        Err(e) => return Err(fail(format!("rv32 simulator trap: {e}"))),
        Ok(r) => r,
    };
    if r.output != vpr_result.output || r.exit != vpr_result.exit {
        return Err(fail(format!(
            "vpr exit {} out {:?} vs rv32 exit {} out {:?}",
            vpr_result.exit, vpr_result.output, r.exit, r.output
        )));
    }
    let attribution = r.attribution.as_ref().expect("attribution was requested");
    if !attribution.matches(&r.stats) {
        return Err(fail("rv32 attribution does not sum to run totals".into()));
    }
    Ok(())
}

/// Names the first observable on which the two engines disagreed, with
/// both values — compact enough for a corpus entry, precise enough to
/// start debugging from.
fn divergence_detail(
    primary: vpr::Engine,
    a: &Result<vpr::RunResult, vpr::SimError>,
    b: &Result<vpr::RunResult, vpr::SimError>,
) -> String {
    let (pn, on) = (primary.name(), primary.other().name());
    match (a, b) {
        (Ok(ra), Ok(rb)) => {
            let field = if ra.output != rb.output {
                format!("output {:?} vs {:?}", ra.output, rb.output)
            } else if ra.exit != rb.exit {
                format!("exit {} vs {}", ra.exit, rb.exit)
            } else if ra.stats != rb.stats {
                format!("stats {:?} vs {:?}", ra.stats, rb.stats)
            } else {
                "attribution differs".to_string()
            };
            format!("{pn} vs {on}: {field}")
        }
        (Ok(_), Err(e)) => format!("{pn} ran clean but {on} trapped: {e}"),
        (Err(e), Ok(_)) => format!("{pn} trapped but {on} ran clean: {e}"),
        (Err(ea), Err(eb)) => format!("different traps: {pn} {ea} vs {on} {eb}"),
    }
}

/// The linked executable, serialized — the bit-identity currency for the
/// build-level scenarios.
fn exe_bytes(program: &ipra_driver::CompiledProgram) -> String {
    serde_json::to_string(&program.exe).expect("serialize")
}

/// Edit → incremental rebuild → revert through one cache; every leg must
/// be bit-identical to a cold build of the same sources. This is the
/// paper's §3 recompilation story as a falsifiable property.
fn check_incremental(sources: &[SourceFile]) -> Result<(), Failure> {
    let config = BUILD_SCENARIO_CONFIG;
    let opts = CompileOptions::paper(config);
    let fail = |detail: &str| Failure::IncrementalDivergence { config, detail: detail.into() };
    let compile_err =
        |e: ipra_driver::DriverError| Failure::Compile { config, detail: e.to_string() };

    let mut cache = CompilationCache::new();
    let cold0 =
        ipra_driver::compile_incremental(sources, &opts, &mut cache).map_err(compile_err)?;

    // Append an (unused, uncalled) procedure to module 0: its summary
    // changes, so the analyzer reruns and any module whose database slice
    // moved must be recompiled.
    let mut edited = sources.to_vec();
    edited[0].text.push_str("\nint zz_edit_probe(int p0) { return p0 + 1; }\n");
    let warm_edited =
        ipra_driver::compile_incremental(&edited, &opts, &mut cache).map_err(compile_err)?;
    let cold_edited = compile(&edited, &opts).map_err(compile_err)?;
    if exe_bytes(&warm_edited) != exe_bytes(&cold_edited) {
        return Err(fail("after edit, warm != cold"));
    }

    // Revert: the incremental rebuild must land exactly back on the
    // original cold build.
    let warm_reverted =
        ipra_driver::compile_incremental(sources, &opts, &mut cache).map_err(compile_err)?;
    if exe_bytes(&warm_reverted) != exe_bytes(&cold0) {
        return Err(fail("after revert, warm != original cold"));
    }
    Ok(())
}

/// Decision tracing must be pure observation: same sources, same config,
/// trace on vs off, bit-identical executables.
fn check_trace_purity(sources: &[SourceFile]) -> Result<(), Failure> {
    let config = BUILD_SCENARIO_CONFIG;
    let compile_err =
        |e: ipra_driver::DriverError| Failure::Compile { config, detail: e.to_string() };
    let plain = compile(sources, &CompileOptions::paper(config)).map_err(compile_err)?;
    let traced_opts = CompileOptions { trace: true, ..CompileOptions::paper(config) };
    let traced = compile(sources, &traced_opts).map_err(compile_err)?;
    if exe_bytes(&plain) != exe_bytes(&traced) {
        return Err(Failure::TraceImpurity { config });
    }
    Ok(())
}

/// Artifact-staged separate compilation must be invisible: building the
/// same sources through on-disk `.csum`/`.cdir`/`.vo`/`.vx` artifacts
/// (every stage re-reading its inputs from disk) must land on an
/// executable bit-identical to the in-memory pipeline's. The staging
/// directory is named by a content hash of the sources — deterministic
/// across `--jobs`, so concurrent workers on the same program stage
/// identical bytes — and is removed on success but preserved (and named
/// in the failure) on divergence, giving the debugging session the exact
/// artifacts that went wrong. The reducer re-runs this leg on every
/// shrink candidate, so the preserved directory always holds the
/// artifacts of the *minimal* reproducer.
fn check_separate(sources: &[SourceFile]) -> Result<(), Failure> {
    let config = BUILD_SCENARIO_CONFIG;
    let compile_err =
        |e: ipra_driver::DriverError| Failure::Compile { config, detail: e.to_string() };
    let in_memory = compile(sources, &CompileOptions::paper(config)).map_err(compile_err)?;

    let text = crate::corpus::join_sources(sources);
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        fp = (fp ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
    }
    let dir = std::env::temp_dir().join(format!("ipra-separate-{fp:016x}"));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cache = CompilationCache::new();
    let staged = match ipra_driver::separate::artifact_build_configured_for(
        sources,
        config,
        &[],
        &dir,
        &mut cache,
        vpr::target::TargetId::Vpr,
    ) {
        Err(e) => {
            return Err(Failure::SeparateDivergence {
                config,
                detail: format!("artifact build failed: {e} (artifacts kept in {})", dir.display()),
            })
        }
        Ok(Err(e)) => {
            return Err(Failure::SeparateDivergence {
                config,
                detail: format!(
                    "training run trapped in artifact build: {e} (artifacts kept in {})",
                    dir.display()
                ),
            })
        }
        Ok(Ok(b)) => b,
    };
    let staged_bytes = serde_json::to_string(&staged.exe).expect("serialize");
    if staged_bytes != exe_bytes(&in_memory) {
        return Err(Failure::SeparateDivergence {
            config,
            detail: format!(
                "staged .vx != in-memory executable (artifacts kept in {})",
                dir.display()
            ),
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// The daemon wire-protocol leg: synthesize a build request from the
/// generated program (config, flags and training input all derived from
/// the request fingerprint, so the leg is deterministic per seed but
/// walks the space across iterations), demand a lossless encode → decode
/// round-trip with a stable fingerprint, do the same for a response
/// carrying the program text, and then prove that flipping any sampled
/// single byte of the request frame yields a typed [`ProtocolError`] —
/// the corruption-rejection contract the shared-cache daemon leans on.
fn check_daemon(sources: &[SourceFile]) -> Result<(), Failure> {
    use ipra_daemon::protocol::{self, BuildRequest, BuildResponse, Request, Response};

    let fail = |detail: String| Failure::DaemonProtocol { detail };
    let base = BuildRequest {
        config: "L2".to_string(),
        optimize: true,
        sources: sources.to_vec(),
        training_input: Vec::new(),
    };
    let salt = base.fingerprint();
    let configs = ["L2", "A", "B", "C", "D", "E", "F", "P"];
    let request = BuildRequest {
        config: configs[(salt % configs.len() as u64) as usize].to_string(),
        optimize: salt & 8 == 0,
        training_input: vec![(salt >> 4) as i64 & 0xff],
        ..base
    };
    let fp = request.fingerprint();
    let req = Request::Build(request);
    let frame = protocol::encode_request(&req)
        .map_err(|e| fail(format!("request rejected by the encoder: {e}")))?;
    match protocol::decode_request(&frame) {
        Err(e) => return Err(fail(format!("freshly encoded request rejected: {e}"))),
        Ok(decoded) => {
            if decoded != req {
                return Err(fail("request round-trip changed the payload".to_string()));
            }
            if let Request::Build(rt) = &decoded {
                if rt.fingerprint() != fp {
                    return Err(fail(format!(
                        "fingerprint unstable across round-trip: {fp:#x} != {:#x}",
                        rt.fingerprint()
                    )));
                }
            }
        }
    }

    // A response carrying the generated program text as its payload: the
    // reply channel must round-trip arbitrary artifact bytes too.
    let resp = Response::Built(BuildResponse {
        vx: crate::corpus::join_sources(sources),
        fingerprint: fp,
        coalesced: salt & 16 == 0,
        recompiled: sources.iter().map(|s| s.name.clone()).collect(),
    });
    let resp_frame = protocol::encode_response(&resp)
        .map_err(|e| fail(format!("response rejected by the encoder: {e}")))?;
    match protocol::decode_response(&resp_frame) {
        Err(e) => return Err(fail(format!("freshly encoded response rejected: {e}"))),
        Ok(decoded) if decoded != resp => {
            return Err(fail("response round-trip changed the payload".to_string()))
        }
        Ok(_) => {}
    }

    // Single-byte corruption: every flipped byte lands in the header, the
    // payload, or the trailing checksum, and each region is guarded — so
    // a typed error is mandatory and a clean decode is an oracle failure.
    // Sample positions pseudo-randomly (splitmix-style walk from the
    // fingerprint) plus the frame's edges.
    let mut probe = salt | 1;
    let mut positions = vec![0, frame.len() / 2, frame.len() - 1];
    for _ in 0..8 {
        probe = crate::mix(probe, 0x6461656d6f6e);
        positions.push((probe % frame.len() as u64) as usize);
    }
    for pos in positions {
        let mut bad = frame.clone();
        bad[pos] ^= 0x5a;
        if let Ok(decoded) = protocol::decode_request(&bad) {
            return Err(fail(format!(
                "corrupted byte {pos} of {} decoded cleanly as {decoded:?}",
                frame.len()
            )));
        }
    }
    Ok(())
}

/// On a divergence, rebuild the failing configuration with decision
/// tracing on, run both the L2 baseline and the failing binary with exact
/// per-procedure attribution, and dump everything a debugging session
/// needs (sources, database, analyzer trace, both attributions) to a temp
/// directory whose path goes into the report. Shared by the soak test,
/// the fuzzer and the reducer — one implementation, one format.
pub fn dump_divergence(sources: &[SourceFile], config: PaperConfig, label: &str) -> PathBuf {
    let slug: String = label.chars().map(|c| if c.is_alphanumeric() { c } else { '-' }).collect();
    let dir = std::env::temp_dir().join(format!("ipra-divergence-{slug}-{config}"));
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join("sources.cmin"), crate::corpus::join_sources(sources));
    let opts = CompileOptions { trace: true, ..CompileOptions::default() };
    let mut cache = CompilationCache::new();
    for cfg in [config, PaperConfig::L2] {
        let Ok(Ok(program)) = compile_configured(sources, cfg, &[], &opts, &mut cache) else {
            continue;
        };
        if cfg == config {
            let _ = std::fs::write(dir.join("database.json"), program.database.to_json());
            if let Some(t) = &program.trace {
                let _ = std::fs::write(dir.join("trace.json"), t.to_json());
            }
        }
        if let Ok(r) = run_program_attributed(&program, &[]) {
            if let Some(a) = &r.attribution {
                let json = serde_json::to_string_pretty(a).unwrap_or_default();
                let _ = std::fs::write(dir.join(format!("attribution-{cfg}.json")), json);
            }
        }
    }
    dir
}
