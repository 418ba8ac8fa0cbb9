//! Differential-testing harness: fuzz cases vs the golden oracle.
//!
//! Each fuzz case (see `dynlink_workloads::fuzz`) is run once through
//! the golden architectural [`Oracle`] and once through the full
//! [`System`] under *every* `LinkAccel` mode and both trampoline
//! flavors — six system runs per oracle digest. The harness fails a
//! case on:
//!
//! * **architectural divergence** — any [`ArchDigest`] mismatch
//!   (registers, pc, halted flag, GOT/data memory) between a system
//!   run and the oracle;
//! * **counter-invariant violations** — e.g. a baseline machine that
//!   skips trampolines, `trampolines_skipped > abtb_hits`, a resolver
//!   invocation count different from the oracle's, fewer ABTB flushes
//!   than injected flush events, or a retired-instruction count that
//!   does not equal the baseline count minus the skipped trampoline
//!   instructions.
//!
//! [`Injection::DropInvalidate`] models the §3.4 bug this subsystem
//! exists to catch: event GOT rewrites performed as raw memory writes,
//! bypassing the store path (so the Bloom filter never observes them)
//! and omitting the explicit ABTB invalidate. The harness must detect
//! it, and [`run_difftest`] shrinks the first failing case to a minimal
//! reproducer.
//!
//! Cases are independent, so [`run_difftest`] shards them over the
//! [`ParallelRunner`]; seeds are derived per cell (`seed_start + index`)
//! and results are aggregated in submission order, making the report
//! byte-identical at every `--jobs` level.
//!
//! The `--prelink` axis (stable linking) adds a second round per case:
//! a warm-up oracle run with *no* schedule events captures a
//! [`ResolutionSnapshot`], which is serialized, decoded back (so every
//! case round-trips the `DLSN` format), restored at boot into a fresh
//! *prelink oracle* that then runs the full schedule, and restored at
//! boot into a prelink system run per accel mode that must match it.
//! The extra runs are compared pairwise and never folded into the
//! report digest, so historical state digests are unchanged. The
//! `prelink_validate = false` machine knob is the negative control:
//! the oracle always validates restores, so a system replaying stale
//! (tombstoned) entries verbatim diverges — the
//! `corpus/stale_prelink_restore.txt` witness pins exactly this.

use dynlink_core::{
    LinkAccel, MachineConfig, MultiProcessSystem, System, SystemBuilder, TenantClass,
};
use dynlink_linker::{LinkOptions, ResolutionSnapshot, RestoreOutcome, TrampolineFlavor};
use dynlink_oracle::{ArchDigest, MultiOracle, Oracle};
use dynlink_uarch::PerfCounters;
use dynlink_workloads::coverage::{CoverageMap, EventKind, EventWindow, PolicyCtx};
use dynlink_workloads::fuzz::{
    shrink_case, shrink_multi_case, FuzzCase, FuzzEvent, MultiFuzzCase, MultiFuzzEvent,
};

use crate::runner::{Cell, CellOutcome, ParallelRunner};

/// Instruction budget per (partial) run; fuzz programs are tiny, so
/// hitting this means a hang and is reported as a failure.
pub const RUN_BUDGET: u64 = 2_000_000;

/// Every accelerator mode a case is checked under.
pub const ACCELS: [LinkAccel; 3] = [LinkAccel::Off, LinkAccel::Abtb, LinkAccel::AbtbNoBloom];

/// Both trampoline flavors a case is checked under.
pub const FLAVORS: [TrampolineFlavor; 2] = [TrampolineFlavor::X86, TrampolineFlavor::Arm];

/// The paper's §3.3 context-switch policies for ABTB state: flush the
/// ABTB (and Bloom filter) at every switch, or salt its keys with the
/// ASID and retain entries across switches. Multi-process cases are
/// checked under both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPolicy {
    /// `flush_abtb_on_context_switch = true` (the default hardware).
    FlushOnSwitch,
    /// ASID-tagged retention: switches never flush; correctness rests
    /// on the salted ABTB keys plus the *unsalted* Bloom keys.
    AsidTagged,
}

/// Both §3.3 policies a multi-process case is checked under.
pub const POLICIES: [SwitchPolicy; 2] = [SwitchPolicy::FlushOnSwitch, SwitchPolicy::AsidTagged];

impl From<SwitchPolicy> for PolicyCtx {
    fn from(p: SwitchPolicy) -> PolicyCtx {
        match p {
            SwitchPolicy::FlushOnSwitch => PolicyCtx::FlushOnSwitch,
            SwitchPolicy::AsidTagged => PolicyCtx::AsidTagged,
        }
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fold64(mut hash: u64, value: u64) -> u64 {
    for b in value.to_le_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV fold of a string (corpus texts into the report digest).
pub(crate) fn fold_str(mut hash: u64, s: &str) -> u64 {
    for &b in s.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fault-injection mode for the system side of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Events are applied through the correct runtime entry points
    /// (`System::unbind_library` / `System::rebind_symbol`).
    None,
    /// The intentional stale-ABTB bug (test hook): unbind/rebind GOT
    /// rewrites are raw memory writes — no store-path notification for
    /// the Bloom filter, no explicit ABTB invalidate, no resolver-table
    /// update. The §3.4 failure mode the harness must detect.
    DropInvalidate,
}

/// Trampoline length in instructions for the instruction-count
/// identity `insts(Off) = insts(mode) + skips × len`.
fn trampoline_len(flavor: TrampolineFlavor) -> u64 {
    match flavor {
        TrampolineFlavor::X86 => 1,
        TrampolineFlavor::Arm => 3,
    }
}

struct OracleRun {
    digest: ArchDigest,
    resolver_invocations: u64,
}

struct SystemRun {
    digest: ArchDigest,
    counters: PerfCounters,
    /// One entry per applied schedule event: its kind and the counter
    /// window around it (cumulative counters at the event, delta from
    /// the event to the end of the run) — the coverage map's event
    /// facets are computed from these.
    events: Vec<(EventKind, EventWindow)>,
    /// Outcome of every prelink restore the run performed: the boot
    /// restore (when started in prelink mode) followed by every mid-run
    /// `prelink` schedule event.
    prelink: Vec<RestoreOutcome>,
    /// System-side fold of the finished run (see `tests::side_fold`).
    #[cfg(test)]
    side_fold: u64,
}

/// Converts `(kind, counters-at-event)` snapshots into event windows
/// once the run's final counters are known.
fn close_windows(
    snaps: Vec<(EventKind, PerfCounters)>,
    final_counters: &PerfCounters,
) -> Vec<(EventKind, EventWindow)> {
    snaps
        .into_iter()
        .map(|(kind, before)| {
            (
                kind,
                EventWindow {
                    after: final_counters.delta(&before),
                    before,
                },
            )
        })
        .collect()
}

fn link_options(case: &FuzzCase, flavor: TrampolineFlavor) -> LinkOptions {
    LinkOptions {
        mode: case.mode,
        flavor,
        hw_level: case.hw_level,
        demand_paging: case.demand,
        ..LinkOptions::default()
    }
}

/// Warm-up leg of the prelink axis: runs the case's program straight to
/// halt with *no* schedule events — the "warmed process" whose
/// resolution tables prelink freezes — and serializes its snapshot.
fn warm_snapshot_bytes(case: &FuzzCase, flavor: TrampolineFlavor) -> Result<Vec<u8>, String> {
    let specs = case.modules();
    let mut oracle = Oracle::new(&specs, link_options(case, flavor), "main")
        .map_err(|e| format!("warm oracle load: {e}"))?;
    oracle
        .run(RUN_BUDGET)
        .map_err(|e| format!("warm oracle run: {e}"))?;
    if !oracle.halted() {
        return Err("warm oracle exhausted its instruction budget".to_owned());
    }
    Ok(oracle.capture_snapshot().encode())
}

fn run_oracle(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    boot: Option<&ResolutionSnapshot>,
) -> Result<OracleRun, String> {
    let specs = case.modules();
    let mut oracle = Oracle::new(&specs, link_options(case, flavor), "main")
        .map_err(|e| format!("oracle load: {e}"))?;
    if let Some(snapshot) = boot {
        // The oracle always validates restores; a fingerprint mismatch
        // falls back to lazy binding, which is itself well-defined.
        oracle
            .restore_snapshot(snapshot)
            .map_err(|e| format!("oracle boot restore: {e}"))?;
    }
    for ev in &case.schedule {
        oracle
            .run_until_marks(ev.at_mark, RUN_BUDGET)
            .map_err(|e| format!("oracle run: {e}"))?;
        if !case.applicable(&ev.event) {
            continue;
        }
        match ev.event {
            // Architecturally invisible by definition; the oracle has
            // nothing to flush. Page eviction is likewise pure
            // microarchitecture: the system faults the page back in.
            FuzzEvent::ContextSwitch
            | FuzzEvent::AbtbInvalidate
            | FuzzEvent::EvictColdPage { .. } => {}
            FuzzEvent::Unbind { lib } => {
                oracle
                    .apply_unbind(&format!("lib{lib}"))
                    .map_err(|e| format!("oracle unbind: {e}"))?;
            }
            FuzzEvent::Rebind { lib } => {
                oracle
                    .apply_rebind(&format!("f{lib}"), "shadow")
                    .map_err(|e| format!("oracle rebind: {e}"))?;
            }
            FuzzEvent::DlcloseModule { lib } => {
                oracle
                    .apply_dlclose(&format!("lib{lib}"))
                    .map_err(|e| format!("oracle dlclose: {e}"))?;
            }
            FuzzEvent::ReopenModule { lib } => {
                oracle
                    .apply_reopen(&format!("lib{lib}"))
                    .map_err(|e| format!("oracle reopen: {e}"))?;
            }
            FuzzEvent::PrelinkRestore => {
                oracle
                    .apply_prelink_restore()
                    .map_err(|e| format!("oracle prelink restore: {e}"))?;
            }
        }
    }
    oracle
        .run(RUN_BUDGET)
        .map_err(|e| format!("oracle run: {e}"))?;
    if !oracle.halted() {
        return Err("oracle exhausted its instruction budget".to_owned());
    }
    Ok(OracleRun {
        digest: oracle.digest(),
        resolver_invocations: oracle.resolver_invocations(),
    })
}

/// Applies one schedule event to the system; a `prelink` event reports
/// its [`RestoreOutcome`] back for the coverage map, everything else
/// returns `None`.
fn apply_system_event(
    sys: &mut System,
    event: FuzzEvent,
    injection: Injection,
) -> Result<Option<RestoreOutcome>, String> {
    match event {
        FuzzEvent::ContextSwitch => {
            sys.context_switch();
            Ok(None)
        }
        FuzzEvent::AbtbInvalidate => {
            sys.machine_mut().invalidate_abtb();
            Ok(None)
        }
        FuzzEvent::Unbind { lib } => {
            let name = format!("lib{lib}");
            match injection {
                Injection::None => sys
                    .unbind_library(&name)
                    .map(|_| None)
                    .map_err(|e| format!("unbind: {e}")),
                Injection::DropInvalidate => {
                    let writes = sys.image().unbind_writes_for(&name);
                    for (slot, stub) in writes {
                        sys.machine_mut()
                            .space_mut()
                            .write_u64(slot, stub.as_u64())
                            .map_err(|e| format!("raw unbind write: {e}"))?;
                    }
                    Ok(None)
                }
            }
        }
        FuzzEvent::Rebind { lib } => {
            let symbol = format!("f{lib}");
            match injection {
                Injection::None => sys
                    .rebind_symbol(&symbol, "shadow")
                    .map(|_| None)
                    .map_err(|e| format!("rebind: {e}")),
                Injection::DropInvalidate => {
                    let target = sys
                        .image()
                        .module("shadow")
                        .and_then(|m| m.export(&symbol))
                        .ok_or_else(|| format!("shadow does not export {symbol}"))?;
                    let slots: Vec<_> = sys
                        .image()
                        .modules()
                        .iter()
                        .flat_map(|m| m.plt_slots.iter())
                        .filter(|s| s.symbol == symbol)
                        .map(|s| s.got_slot)
                        .collect();
                    for slot in slots {
                        sys.machine_mut()
                            .space_mut()
                            .write_u64(slot, target.as_u64())
                            .map_err(|e| format!("raw rebind write: {e}"))?;
                    }
                    Ok(None)
                }
            }
        }
        // The demand-event class has its own bug model: the
        // `demand_invalidate` machine knob (see
        // [`check_case_with_demand_invalidation`]), not `Injection` —
        // so these always go through the real runtime entry points.
        FuzzEvent::EvictColdPage { lib, page } => sys
            .evict_lib_page(&format!("lib{lib}"), page)
            .map(|_| None)
            .map_err(|e| format!("evict: {e}")),
        FuzzEvent::DlcloseModule { lib } => sys
            .dlclose(&format!("lib{lib}"))
            .map(|_| None)
            .map_err(|e| format!("dlclose: {e}")),
        FuzzEvent::ReopenModule { lib } => sys
            .dlreopen(&format!("lib{lib}"))
            .map(|_| None)
            .map_err(|e| format!("reopen: {e}")),
        // Prelink's bug model is the `prelink_validate` machine knob
        // (see [`check_case_with_prelink_validation`]), not `Injection`.
        FuzzEvent::PrelinkRestore => sys
            .prelink_restore_self()
            .map(Some)
            .map_err(|e| format!("prelink restore: {e}")),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_system(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    injection: Injection,
    demand_invalidate: bool,
    prelink_validate: bool,
    superblock: bool,
    superblock_validate: bool,
    boot: Option<&ResolutionSnapshot>,
) -> Result<SystemRun, String> {
    let mut builder = SystemBuilder::new()
        .modules(case.modules())
        .link_mode(case.mode)
        .trampoline_flavor(flavor)
        .hw_level(case.hw_level)
        .demand_paging(case.demand)
        .machine_config(MachineConfig {
            demand_invalidate,
            prelink_validate,
            superblock,
            superblock_validate,
            ..MachineConfig::baseline()
        })
        .accel(accel);
    if let Some(snapshot) = boot {
        builder = builder.prelink_snapshot(snapshot.clone());
    }
    let mut sys = builder.build().map_err(|e| format!("system build: {e}"))?;
    let mut prelink: Vec<RestoreOutcome> = sys.prelink_outcome().into_iter().collect();
    let mut snaps: Vec<(EventKind, PerfCounters)> = Vec::new();
    for ev in &case.schedule {
        sys.run_until_marks(ev.at_mark as usize, RUN_BUDGET)
            .map_err(|e| format!("system run: {e}"))?;
        if !case.applicable(&ev.event) {
            continue;
        }
        snaps.push((EventKind::from(&ev.event), sys.counters()));
        if let Some(outcome) = apply_system_event(&mut sys, ev.event, injection)? {
            prelink.push(outcome);
        }
    }
    sys.run(RUN_BUDGET)
        .map_err(|e| format!("system run: {e}"))?;
    if !sys.machine().halted() {
        return Err("system exhausted its instruction budget".to_owned());
    }
    let digest = ArchDigest::capture(
        |r| sys.reg(r),
        sys.machine().pc(),
        sys.machine().halted(),
        sys.machine().space(),
        sys.image(),
    );
    let counters = sys.counters();
    #[cfg(test)]
    let side_fold = tests::side_fold(
        std::slice::from_ref(&counters),
        sys.machine().cycle_breakdown(),
        &sys.take_resolution_telemetry(),
    );
    Ok(SystemRun {
        digest,
        events: close_windows(snaps, &counters),
        counters,
        prelink,
        #[cfg(test)]
        side_fold,
    })
}

/// Counter cross-checks for one system run against the oracle and the
/// baseline (`Off`) run of the same flavor.
fn check_counters(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    counters: &PerfCounters,
    baseline: Option<&PerfCounters>,
    oracle: &OracleRun,
) -> Vec<String> {
    let mut failures = Vec::new();
    let c = counters;
    if !accel.has_abtb()
        && (c.trampolines_skipped != 0
            || c.abtb_hits != 0
            || c.abtb_flushes != 0
            || c.abtb_inserts != 0
            || c.btb_function_trains != 0)
    {
        failures.push(format!(
            "baseline machine touched the ABTB: skipped={} hits={} flushes={} inserts={} fn-trains={}",
            c.trampolines_skipped, c.abtb_hits, c.abtb_flushes, c.abtb_inserts, c.btb_function_trains
        ));
    }
    if !accel.has_bloom() && c.bloom_store_hits != 0 {
        failures.push(format!(
            "machine without a Bloom filter reported {} Bloom store hit(s)",
            c.bloom_store_hits
        ));
    }
    if c.trampolines_skipped > c.abtb_hits {
        failures.push(format!(
            "trampolines_skipped {} exceeds abtb_hits {}",
            c.trampolines_skipped, c.abtb_hits
        ));
    }
    if c.abtb_hits > c.branches {
        failures.push(format!(
            "abtb_hits {} exceeds retired branches {}",
            c.abtb_hits, c.branches
        ));
    }
    if c.resolver_invocations != oracle.resolver_invocations {
        failures.push(format!(
            "resolver ran {} time(s), oracle ran it {}",
            c.resolver_invocations, oracle.resolver_invocations
        ));
    }
    if let Some(base) = baseline {
        let expected = c
            .instructions
            .saturating_add(c.trampolines_skipped.saturating_mul(trampoline_len(flavor)));
        if base.instructions != expected {
            failures.push(format!(
                "instruction identity broken: baseline {} != {} + {} skips x {}",
                base.instructions,
                c.instructions,
                c.trampolines_skipped,
                trampoline_len(flavor)
            ));
        }
    }
    if accel.has_abtb() {
        let injected_flushes = case
            .schedule
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    FuzzEvent::ContextSwitch | FuzzEvent::AbtbInvalidate
                )
            })
            .count() as u64;
        if c.abtb_flushes < injected_flushes {
            failures.push(format!(
                "only {} ABTB flush(es) for {} injected flush event(s)",
                c.abtb_flushes, injected_flushes
            ));
        }
    }
    failures
}

/// Outcome of checking one fuzz case across every mode and flavor.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case's seed.
    pub seed: u64,
    /// FNV fold of the oracle digests (both flavors) — the value that
    /// must be byte-identical at every `--jobs` level.
    pub digest_fold: u64,
    /// Human-readable failure descriptions; empty means the case passed.
    pub failures: Vec<String>,
}

/// Runs one case through the oracle and through the system under every
/// `LinkAccel` mode and both trampoline flavors, collecting divergences
/// and counter-invariant violations.
pub fn check_case(case: &FuzzCase, injection: Injection) -> CaseReport {
    check_case_coverage(case, injection).0
}

/// [`check_case`] with the machine's demand-GC invalidation knob
/// switched explicitly. `invalidate = false` is the negative control
/// for the demand-paging event class: `dlclose` still re-arms GOT
/// slots and unmaps the module's code pages, but skips the explicit
/// ABTB/BTB/predecode invalidation — so a trained machine keeps
/// skipping into the unmapped (or later recycled) page and diverges
/// from the oracle. The checked-in
/// `corpus/stale_skip_unmapped_page.txt` witness pins exactly this.
pub fn check_case_with_demand_invalidation(
    case: &FuzzCase,
    injection: Injection,
    invalidate: bool,
) -> CaseReport {
    check_case_coverage_full(case, injection, invalidate, true, false, true, true).0
}

/// [`check_case`] with the superblock translation engine switched
/// explicitly: the scriptable A/B axis (`difftest --no-superblock`
/// runs the pure interpreter). Translation is architecturally
/// invisible, so both settings must produce identical reports — the
/// corpus replay and CI engine-equality shard pin exactly this.
pub fn check_case_with_superblock(
    case: &FuzzCase,
    injection: Injection,
    superblock: bool,
) -> CaseReport {
    check_case_coverage_full(case, injection, true, true, false, superblock, true).0
}

/// [`check_case`] with the machine's superblock tag-revalidation knob
/// switched explicitly. `validate = false` is the negative control: the
/// translation cache keeps dispatching blocks whose invalidation tags
/// (code version, PLT epoch, eviction generation) have moved on — a
/// model of a JIT whose shootdowns are skipped. A runtime code patch or
/// module GC then leaves a stale translation executing dead
/// instructions and the system diverges from the oracle, mirroring the
/// `demand_invalidate`/`prelink_validate` discipline.
pub fn check_case_with_superblock_validation(
    case: &FuzzCase,
    injection: Injection,
    validate: bool,
) -> CaseReport {
    check_case_coverage_full(case, injection, true, true, false, true, validate).0
}

/// [`check_case`] with the machine's prelink-validation knob switched
/// explicitly. `validate = false` is the negative control for the
/// stable-linking subsystem: restores replay snapshot entries verbatim
/// — no fingerprint gate, no per-entry staleness check — so an entry
/// tombstoned by an earlier `dlclose` is re-armed into GC-unmapped
/// code, while the oracle (which always validates) skips it. The
/// checked-in `corpus/stale_prelink_restore.txt` witness pins exactly
/// this.
pub fn check_case_with_prelink_validation(
    case: &FuzzCase,
    injection: Injection,
    validate: bool,
) -> CaseReport {
    check_case_coverage_full(case, injection, true, validate, false, true, true).0
}

/// [`check_case`] plus the behavioral [`CoverageMap`] the case's system
/// runs exercised: every run's counter delta and every applied event
/// window is recorded on the [`PolicyCtx::SingleProcess`] plane. The
/// map is a pure function of the case (the same runs already paid for),
/// so coverage-guided scheduling costs no extra simulation.
pub fn check_case_coverage(case: &FuzzCase, injection: Injection) -> (CaseReport, CoverageMap) {
    check_case_coverage_full(case, injection, true, true, false, true, true)
}

/// [`check_case_coverage`] with the `--prelink` axis enabled: on top of
/// the lazy matrix, a warm-up snapshot is captured, serialized,
/// round-tripped and restored at boot into a prelink oracle plus a
/// prelink system run per accel mode (see the module docs). The extra
/// digests are compared pairwise, never folded into
/// [`CaseReport::digest_fold`].
pub fn check_case_coverage_prelink(
    case: &FuzzCase,
    injection: Injection,
) -> (CaseReport, CoverageMap) {
    check_case_coverage_full(case, injection, true, true, true, true, true)
}

fn check_case_coverage_full(
    case: &FuzzCase,
    injection: Injection,
    demand_invalidate: bool,
    prelink_validate: bool,
    prelink: bool,
    superblock: bool,
    superblock_validate: bool,
) -> (CaseReport, CoverageMap) {
    let mut failures = Vec::new();
    let mut digest_fold = FNV_OFFSET;
    let mut coverage = CoverageMap::new();
    for &flavor in &FLAVORS {
        let oracle = match run_oracle(case, flavor, None) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("[{flavor:?}/oracle] {e}"));
                continue;
            }
        };
        digest_fold = fold64(digest_fold, oracle.digest.fold());
        let mut baseline: Option<PerfCounters> = None;
        for &accel in &ACCELS {
            match run_system(
                case,
                flavor,
                accel,
                injection,
                demand_invalidate,
                prelink_validate,
                superblock,
                superblock_validate,
                None,
            ) {
                Err(e) => failures.push(format!("[{flavor:?}/{accel:?}] {e}")),
                Ok(run) => {
                    coverage.record_run(accel, PolicyCtx::SingleProcess, &run.counters);
                    for (kind, window) in &run.events {
                        coverage.record_event(accel, PolicyCtx::SingleProcess, *kind, window);
                    }
                    for outcome in &run.prelink {
                        coverage.record_prelink(accel, PolicyCtx::SingleProcess, outcome);
                    }
                    if run.digest != oracle.digest {
                        failures.push(format!(
                            "[{flavor:?}/{accel:?}] architectural divergence: {}",
                            oracle.digest.describe_diff(&run.digest)
                        ));
                    }
                    for msg in check_counters(
                        case,
                        flavor,
                        accel,
                        &run.counters,
                        baseline.as_ref(),
                        &oracle,
                    ) {
                        failures.push(format!("[{flavor:?}/{accel:?}] {msg}"));
                    }
                    if accel == LinkAccel::Off {
                        baseline = Some(run.counters);
                    }
                }
            }
        }
        if prelink {
            match prelink_arm(
                case,
                flavor,
                injection,
                demand_invalidate,
                prelink_validate,
                superblock,
                superblock_validate,
                &mut coverage,
            ) {
                Ok(msgs) => failures.extend(msgs),
                Err(e) => failures.push(format!("[{flavor:?}/prelink] {e}")),
            }
        }
    }
    (
        CaseReport {
            seed: case.seed,
            digest_fold,
            failures,
        },
        coverage,
    )
}

/// The prelink round for one `(case, flavor)`: warm-up capture,
/// `DLSN` round-trip, prelink-oracle golden run, and one prelink system
/// run per accel mode checked against it (digest plus the full counter
/// invariants). Returns the failure lines; a hard `Err` means the
/// golden side itself could not be produced.
#[allow(clippy::too_many_arguments)]
fn prelink_arm(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    injection: Injection,
    demand_invalidate: bool,
    prelink_validate: bool,
    superblock: bool,
    superblock_validate: bool,
    coverage: &mut CoverageMap,
) -> Result<Vec<String>, String> {
    let bytes = warm_snapshot_bytes(case, flavor)?;
    let snapshot =
        ResolutionSnapshot::decode(&bytes).map_err(|e| format!("snapshot round-trip: {e}"))?;
    let oracle = run_oracle(case, flavor, Some(&snapshot))?;
    let mut failures = Vec::new();
    let mut baseline: Option<PerfCounters> = None;
    for &accel in &ACCELS {
        match run_system(
            case,
            flavor,
            accel,
            injection,
            demand_invalidate,
            prelink_validate,
            superblock,
            superblock_validate,
            Some(&snapshot),
        ) {
            Err(e) => failures.push(format!("[{flavor:?}/{accel:?}/prelink] {e}")),
            Ok(run) => {
                for outcome in &run.prelink {
                    coverage.record_prelink(accel, PolicyCtx::SingleProcess, outcome);
                }
                if run.digest != oracle.digest {
                    failures.push(format!(
                        "[{flavor:?}/{accel:?}/prelink] architectural divergence: {}",
                        oracle.digest.describe_diff(&run.digest)
                    ));
                }
                for msg in check_counters(
                    case,
                    flavor,
                    accel,
                    &run.counters,
                    baseline.as_ref(),
                    &oracle,
                ) {
                    failures.push(format!("[{flavor:?}/{accel:?}/prelink] {msg}"));
                }
                if accel == LinkAccel::Off {
                    baseline = Some(run.counters);
                }
            }
        }
    }
    Ok(failures)
}

/// Aggregate result of a [`run_difftest`] sweep.
#[derive(Debug)]
pub struct DiffReport {
    /// The full report text (stdout of the `difftest` binary); built in
    /// submission order, so byte-identical at every `--jobs` level.
    pub output: String,
    /// Total failure lines across all cases.
    pub failures: usize,
    /// Number of cases checked.
    pub cases: u64,
    /// FNV fold of every case's digest fold.
    pub digest: u64,
    /// Behavioral-coverage count: distinct [`CoverageMap`] keys the
    /// whole sweep exercised (merged in submission order).
    pub coverage: usize,
}

/// Checks `cases` consecutive seeds starting at `seed_start`, sharded
/// over `jobs` workers. When `shrink` is set and at least one case
/// fails, the first failing case is delta-debugged to a minimal
/// reproducer which is appended to the report.
///
/// `demand` turns every generated case into a demand-paging case
/// *after* generation (via [`FuzzCase::enable_demand`], salted with the
/// case seed), so the demand-off report — and its state digest — stays
/// bit-identical to the historical sweep.
///
/// `prelink` enables the stable-linking axis: every case additionally
/// round-trips a warm-up snapshot through the `DLSN` format and checks
/// boot-restored system runs against a boot-restored oracle. The extra
/// runs never fold into the state digest, so the `--prelink` digest is
/// byte-identical to the lazy sweep's.
///
/// `superblock = false` forces every system leg onto the pure
/// interpreter (the oracle never translates either way). Translation is
/// architecturally invisible, so the digest must be byte-identical at
/// both settings — `difftest --no-superblock` scripts exactly this A/B.
#[allow(clippy::too_many_arguments)]
pub fn run_difftest(
    seed_start: u64,
    cases: u64,
    jobs: usize,
    injection: Injection,
    shrink: bool,
    demand: bool,
    prelink: bool,
    superblock: bool,
) -> DiffReport {
    let gen_case = move |seed: u64| {
        let mut case = FuzzCase::generate(seed);
        if demand {
            case.enable_demand(seed);
        }
        case
    };
    let check = move |case: &FuzzCase| {
        check_case_coverage_full(case, injection, true, true, prelink, superblock, true)
    };
    let cells: Vec<Cell<(CaseReport, CoverageMap)>> = (0..cases)
        .map(|i| {
            let seed = seed_start + i;
            Cell::new(format!("seed{seed}"), move |_ctx| check(&gen_case(seed)))
        })
        .collect();
    let report = ParallelRunner::new(jobs).run(seed_start ^ 0xd1ff_7e57, cells);

    let mut output = format!(
        "difftest: {cases} case(s), seeds {seed_start}..{}, {{Off,Abtb,AbtbNoBloom}} x {{X86,Arm}}{}{}{}\n",
        seed_start + cases,
        if demand {
            ", demand-fault events enabled"
        } else {
            ""
        },
        if prelink {
            ", prelink restore enabled"
        } else {
            ""
        },
        match injection {
            Injection::None => "",
            Injection::DropInvalidate => ", injecting stale-ABTB bug",
        }
    );
    let mut digest = FNV_OFFSET;
    let mut coverage = CoverageMap::new();
    let mut failures = 0usize;
    let mut first_failing: Option<u64> = None;
    for cell in report.cells {
        match cell.outcome {
            CellOutcome::Done((r, map)) => {
                digest = fold64(digest, r.digest_fold);
                coverage.merge(&map);
                if !r.failures.is_empty() && first_failing.is_none() {
                    first_failing = Some(r.seed);
                }
                for f in &r.failures {
                    output.push_str(&format!("FAIL seed {}: {f}\n", r.seed));
                    failures += 1;
                }
            }
            CellOutcome::Panicked(msg) => {
                output.push_str(&format!("FAIL {}: panicked: {msg}\n", cell.label));
                failures += 1;
            }
        }
    }

    if let Some(seed) = first_failing.filter(|_| shrink) {
        let case = gen_case(seed);
        let shrunk = shrink_case(&case, |c| !check(c).0.failures.is_empty());
        output.push_str(&format!("shrunk minimal reproducer for seed {seed}:\n"));
        output.push_str(&format!("  {shrunk}\n"));
        for f in check(&shrunk).0.failures {
            output.push_str(&format!("  {f}\n"));
        }
    }

    if prelink {
        output.push_str(&format!(
            "difftest: prelink coverage {} key(s)\n",
            coverage.count_prelink_facets()
        ));
    }
    output.push_str(&format!(
        "difftest: {failures} failure(s) across {cases} case(s); coverage {} key(s); state digest {digest:#018x}\n",
        coverage.count()
    ));
    DiffReport {
        output,
        failures,
        cases,
        digest,
        coverage: coverage.count(),
    }
}

// ---------------------------------------------------------------------------
// Multi-process difftest (paper §3.3)
// ---------------------------------------------------------------------------

struct MultiOracleRun {
    digests: Vec<ArchDigest>,
    resolver_invocations: u64,
}

struct MultiSystemRun {
    digests: Vec<ArchDigest>,
    counters: PerfCounters,
    /// Per-core counter snapshots; `counters` is their sum. One entry on
    /// a 1-core machine, so the per-core invariants degenerate to the
    /// aggregate ones there.
    per_core: Vec<PerfCounters>,
    /// Displacements: switches that landed a process on a core which
    /// last ran a different process (equal to plain switches on 1 core).
    thread_switches: u64,
    thread_switches_per_core: Vec<u64>,
    /// Applied schedule events with their counter windows (see
    /// [`SystemRun::events`]); inapplicable no-op events are skipped.
    events: Vec<(EventKind, EventWindow)>,
    /// Prelink restore outcomes: per-process boot restores (when
    /// started in prelink mode) followed by mid-run `prelink` events.
    prelink: Vec<RestoreOutcome>,
    /// System-side fold of the finished run (see `tests::side_fold`).
    #[cfg(test)]
    side_fold: u64,
}

fn multi_machine_config(
    accel: LinkAccel,
    policy: SwitchPolicy,
    coherence_bus: bool,
    demand_invalidate: bool,
    prelink_validate: bool,
    superblock: bool,
) -> MachineConfig {
    MachineConfig {
        accel,
        flush_abtb_on_context_switch: matches!(policy, SwitchPolicy::FlushOnSwitch),
        coherence_bus,
        demand_invalidate,
        prelink_validate,
        superblock,
        ..MachineConfig::default()
    }
}

/// Builds a fresh multi-process oracle for `case`. Demand paging is
/// architecturally invisible, so (as before the prelink axis) the
/// per-process link options are used as-is.
fn build_multi_oracle(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
) -> Result<MultiOracle, String> {
    let mut oracles = Vec::with_capacity(case.procs.len());
    for (p, proc) in case.procs.iter().enumerate() {
        let specs = proc.modules();
        oracles.push(
            Oracle::new(&specs, link_options(proc, flavor), "main")
                .map_err(|e| format!("oracle load (process {p}): {e}"))?,
        );
    }
    Ok(MultiOracle::new(oracles, case.shared_got_pair))
}

/// Multi-process warm-up leg: runs every process straight to halt with
/// no schedule events and serializes each one's snapshot.
fn warm_multi_snapshot_bytes(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
) -> Result<Vec<Vec<u8>>, String> {
    let mut mo = build_multi_oracle(case, flavor)?;
    for p in 0..mo.n_procs() {
        mo.switch_to(p);
        mo.run_active(RUN_BUDGET)
            .map_err(|e| format!("warm oracle run (process {p}): {e}"))?;
        if !mo.oracle(p).halted() {
            return Err(format!(
                "warm oracle process {p} exhausted its instruction budget"
            ));
        }
    }
    Ok((0..mo.n_procs())
        .map(|p| mo.capture_snapshot_of(p).encode())
        .collect())
}

fn run_multi_oracle(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
    boot: Option<&[ResolutionSnapshot]>,
) -> Result<MultiOracleRun, String> {
    let mut mo = build_multi_oracle(case, flavor)?;
    if let Some(snapshots) = boot {
        for (p, snapshot) in snapshots.iter().enumerate() {
            mo.restore_snapshot_for(p, snapshot)
                .map_err(|e| format!("oracle boot restore (process {p}): {e}"))?;
        }
    }
    for ev in &case.schedule {
        mo.run_active_until_marks(ev.at_mark, RUN_BUDGET)
            .map_err(|e| format!("oracle run (process {}): {e}", mo.active()))?;
        if !case.applicable(mo.active(), &ev.event) {
            continue;
        }
        match ev.event {
            MultiFuzzEvent::Switch { to } => {
                mo.switch_to(to);
            }
            // Architecturally invisible; the oracle has nothing to
            // flush — and nothing to fault out or back in.
            MultiFuzzEvent::AbtbInvalidate | MultiFuzzEvent::EvictColdPage { .. } => {}
            MultiFuzzEvent::Unbind { lib } => {
                mo.apply_unbind_active(&format!("lib{lib}"))
                    .map_err(|e| format!("oracle unbind (process {}): {e}", mo.active()))?;
            }
            MultiFuzzEvent::Rebind { lib } => {
                mo.apply_rebind_active(&format!("f{lib}"), "shadow")
                    .map_err(|e| format!("oracle rebind (process {}): {e}", mo.active()))?;
            }
            MultiFuzzEvent::DlcloseModule { lib } => {
                mo.apply_dlclose_active(&format!("lib{lib}"))
                    .map_err(|e| format!("oracle dlclose (process {}): {e}", mo.active()))?;
            }
            MultiFuzzEvent::ReopenModule { lib } => {
                mo.apply_reopen_active(&format!("lib{lib}"))
                    .map_err(|e| format!("oracle reopen (process {}): {e}", mo.active()))?;
            }
            MultiFuzzEvent::PrelinkRestore => {
                mo.apply_prelink_restore_active().map_err(|e| {
                    format!("oracle prelink restore (process {}): {e}", mo.active())
                })?;
            }
        }
    }
    for p in 0..mo.n_procs() {
        mo.switch_to(p);
        mo.run_active(RUN_BUDGET)
            .map_err(|e| format!("oracle run (process {p}): {e}"))?;
        if !mo.oracle(p).halted() {
            return Err(format!(
                "oracle process {p} exhausted its instruction budget"
            ));
        }
    }
    Ok(MultiOracleRun {
        digests: mo.digests(),
        resolver_invocations: mo.resolver_invocations(),
    })
}

/// Applies one schedule event to the multi-process system; a `prelink`
/// event reports its [`RestoreOutcome`] back for the coverage map.
fn apply_multi_system_event(
    mps: &mut MultiProcessSystem,
    event: MultiFuzzEvent,
    injection: Injection,
) -> Result<Option<RestoreOutcome>, String> {
    match event {
        MultiFuzzEvent::Switch { to } => {
            mps.switch_to(to);
            Ok(None)
        }
        MultiFuzzEvent::AbtbInvalidate => {
            mps.invalidate_abtb();
            Ok(None)
        }
        MultiFuzzEvent::Unbind { lib } => {
            let name = format!("lib{lib}");
            match injection {
                Injection::None => mps
                    .unbind_active(&name)
                    .map(|_| None)
                    .map_err(|e| format!("unbind: {e}")),
                Injection::DropInvalidate => {
                    let writes = mps.image(mps.active()).unbind_writes_for(&name);
                    for (slot, stub) in writes {
                        mps.machine_mut()
                            .space_mut()
                            .write_u64(slot, stub.as_u64())
                            .map_err(|e| format!("raw unbind write: {e}"))?;
                    }
                    Ok(None)
                }
            }
        }
        MultiFuzzEvent::Rebind { lib } => {
            let symbol = format!("f{lib}");
            match injection {
                Injection::None => mps
                    .rebind_active(&symbol, "shadow")
                    .map(|_| None)
                    .map_err(|e| format!("rebind: {e}")),
                Injection::DropInvalidate => {
                    let image = mps.image(mps.active());
                    let target = image
                        .module("shadow")
                        .and_then(|m| m.export(&symbol))
                        .ok_or_else(|| format!("shadow does not export {symbol}"))?;
                    let slots: Vec<_> = image
                        .modules()
                        .iter()
                        .flat_map(|m| m.plt_slots.iter())
                        .filter(|s| s.symbol == symbol)
                        .map(|s| s.got_slot)
                        .collect();
                    for slot in slots {
                        mps.machine_mut()
                            .space_mut()
                            .write_u64(slot, target.as_u64())
                            .map_err(|e| format!("raw rebind write: {e}"))?;
                    }
                    Ok(None)
                }
            }
        }
        // Demand events use the `demand_invalidate` knob as their bug
        // model, not `Injection` (see [`apply_system_event`]).
        MultiFuzzEvent::EvictColdPage { lib, page } => mps
            .evict_active_page(&format!("lib{lib}"), page)
            .map(|_| None)
            .map_err(|e| format!("evict: {e}")),
        MultiFuzzEvent::DlcloseModule { lib } => mps
            .dlclose_active(&format!("lib{lib}"))
            .map(|_| None)
            .map_err(|e| format!("dlclose: {e}")),
        MultiFuzzEvent::ReopenModule { lib } => mps
            .reopen_active(&format!("lib{lib}"))
            .map(|_| None)
            .map_err(|e| format!("reopen: {e}")),
        // Prelink's bug model is the `prelink_validate` knob, not
        // `Injection` (see [`apply_system_event`]).
        MultiFuzzEvent::PrelinkRestore => mps
            .prelink_restore_active()
            .map(Some)
            .map_err(|e| format!("prelink restore: {e}")),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_multi_system(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    policy: SwitchPolicy,
    injection: Injection,
    coherence_bus: bool,
    demand_invalidate: bool,
    prelink_validate: bool,
    superblock: bool,
    boot: Option<&[ResolutionSnapshot]>,
) -> Result<MultiSystemRun, String> {
    let procs = case
        .procs
        .iter()
        .map(|p| {
            // The demand flag lives on the multi case, not the per-proc
            // programs; honoured per process under lazy binding.
            let mut opts = link_options(p, flavor);
            opts.demand_paging = case.demand;
            (p.modules(), opts)
        })
        .collect();
    let boot_snapshots = match boot {
        Some(snapshots) => snapshots.iter().cloned().map(Some).collect(),
        None => Vec::new(),
    };
    let mps = MultiProcessSystem::new_with_cores_prelink(
        procs,
        multi_machine_config(
            accel,
            policy,
            coherence_bus,
            demand_invalidate,
            prelink_validate,
            superblock,
        ),
        case.shared_got_pair,
        case.cores.max(1),
        boot_snapshots,
    )
    .map_err(|e| format!("system build: {e}"))?;
    replay_multi_schedule(mps, case, injection)
}

/// The stack mapping every fleet tenant gets — the same 1 MiB the
/// per-process constructors map, so a forked tenant's address space
/// (and hence its [`ArchDigest`]) lines up with the oracle's.
const FLEET_STACK_BYTES: u64 = 1 << 20;

/// System leg of a fleet-smoke case: same replay and capture as
/// [`run_multi_system`], but the machine boots through
/// [`MultiProcessSystem::new_fleet`] — one [`TenantClass`] template
/// loaded once and forked into `procs.len()` tenants sharing a
/// `code_uid` — so the arena boot path itself is what gets difftested,
/// not just benchmarked. Requires every process of `case` to be
/// identical and unpaired ([`MultiFuzzCase::generate_fleet`] guarantees
/// both).
fn run_fleet_system(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    policy: SwitchPolicy,
    injection: Injection,
) -> Result<MultiSystemRun, String> {
    let template = &case.procs[0];
    if case.procs.iter().any(|p| p != template) {
        return Err("fleet case requires identical tenant programs".to_owned());
    }
    if case.shared_got_pair.is_some() {
        return Err("fleet case cannot carry a shared-GOT pair".to_owned());
    }
    let mut options = link_options(template, flavor);
    options.demand_paging = case.demand;
    let class = TenantClass {
        modules: template.modules(),
        options,
        tenants: case.procs.len(),
    };
    let mps = MultiProcessSystem::new_fleet(
        &[class],
        multi_machine_config(accel, policy, true, true, true, true),
        case.cores.max(1),
        FLEET_STACK_BYTES,
    )
    .map_err(|e| format!("fleet build: {e}"))?;
    replay_multi_schedule(mps, case, injection)
}

/// Replays `case`'s sequential schedule on a booted system, runs every
/// process to halt, and captures per-process digests plus counters —
/// the shared tail of [`run_multi_system`] and [`run_fleet_system`].
fn replay_multi_schedule(
    mut mps: MultiProcessSystem,
    case: &MultiFuzzCase,
    injection: Injection,
) -> Result<MultiSystemRun, String> {
    let mut prelink: Vec<RestoreOutcome> = (0..mps.n_procs())
        .filter_map(|p| mps.prelink_outcome_of(p))
        .collect();
    let mut snaps: Vec<(EventKind, PerfCounters)> = Vec::new();
    for ev in &case.schedule {
        mps.run_active_until_marks(ev.at_mark, RUN_BUDGET)
            .map_err(|e| format!("system run (process {}): {e}", mps.active()))?;
        if !case.applicable(mps.active(), &ev.event) {
            continue;
        }
        snaps.push((EventKind::from(&ev.event), mps.counters()));
        if let Some(outcome) = apply_multi_system_event(&mut mps, ev.event, injection)? {
            prelink.push(outcome);
        }
    }
    for p in 0..mps.n_procs() {
        mps.switch_to(p);
        mps.run_active(RUN_BUDGET)
            .map_err(|e| format!("system run (process {p}): {e}"))?;
        if !mps.halted(p) {
            return Err(format!(
                "system process {p} exhausted its instruction budget"
            ));
        }
    }
    let digests = (0..mps.n_procs())
        .map(|p| {
            ArchDigest::capture(
                |r| mps.reg_of(p, r),
                mps.pc_of(p),
                mps.halted(p),
                mps.space_of(p),
                mps.image(p),
            )
        })
        .collect();
    let counters = mps.counters();
    let per_core: Vec<PerfCounters> = (0..mps.core_count()).map(|c| mps.counters_for(c)).collect();
    let thread_switches_per_core = (0..mps.core_count())
        .map(|c| mps.thread_switches_of(c))
        .collect();
    #[cfg(test)]
    let side_fold = tests::side_fold(
        &[&[counters][..], &per_core].concat(),
        mps.machine().cycle_breakdown(),
        &mps.take_resolution_telemetry(),
    );
    Ok(MultiSystemRun {
        digests,
        events: close_windows(snaps, &counters),
        counters,
        per_core,
        thread_switches: mps.thread_switches(),
        thread_switches_per_core,
        prelink,
        #[cfg(test)]
        side_fold,
    })
}

/// Counter cross-checks for one multi-process system run. On top of the
/// single-process invariants, the §3.3 policy determines an *exact*
/// switch-flush count: under [`SwitchPolicy::FlushOnSwitch`] every
/// displacement flushes (switch-caused flushes == thread switches — on
/// one core every switch displaces, so this is the old switches
/// identity), under [`SwitchPolicy::AsidTagged`] no switch ever does
/// (== 0); in both the published total must equal switch-caused +
/// coherence-caused. Every purity and consistency invariant is then
/// re-checked *per core* against `Machine::counters_for`, so a rogue
/// core cannot hide inside a clean-looking aggregate.
fn check_multi_counters(
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    policy: SwitchPolicy,
    run: &MultiSystemRun,
    baseline: Option<&PerfCounters>,
    oracle: &MultiOracleRun,
) -> Vec<String> {
    let mut failures = Vec::new();
    let c = &run.counters;
    if !accel.has_abtb()
        && (c.trampolines_skipped != 0
            || c.abtb_hits != 0
            || c.abtb_flushes != 0
            || c.abtb_switch_flushes != 0
            || c.abtb_coherence_flushes != 0
            || c.abtb_inserts != 0
            || c.btb_function_trains != 0)
    {
        failures.push(format!(
            "baseline machine touched the ABTB: skipped={} hits={} flushes={}",
            c.trampolines_skipped, c.abtb_hits, c.abtb_flushes
        ));
    }
    if !accel.has_bloom() && c.bloom_store_hits != 0 {
        failures.push(format!(
            "machine without a Bloom filter reported {} Bloom store hit(s)",
            c.bloom_store_hits
        ));
    }
    if c.trampolines_skipped > c.abtb_hits {
        failures.push(format!(
            "trampolines_skipped {} exceeds abtb_hits {}",
            c.trampolines_skipped, c.abtb_hits
        ));
    }
    if c.abtb_hits > c.branches {
        failures.push(format!(
            "abtb_hits {} exceeds retired branches {}",
            c.abtb_hits, c.branches
        ));
    }
    if c.resolver_invocations != oracle.resolver_invocations {
        failures.push(format!(
            "resolver ran {} time(s), oracle ran it {}",
            c.resolver_invocations, oracle.resolver_invocations
        ));
    }
    if let Some(base) = baseline {
        let expected = c
            .instructions
            .saturating_add(c.trampolines_skipped.saturating_mul(trampoline_len(flavor)));
        if base.instructions != expected {
            failures.push(format!(
                "instruction identity broken: baseline {} != {} + {} skips x {}",
                base.instructions,
                c.instructions,
                c.trampolines_skipped,
                trampoline_len(flavor)
            ));
        }
    }
    if accel.has_abtb() {
        if c.abtb_flushes != c.abtb_switch_flushes + c.abtb_coherence_flushes {
            failures.push(format!(
                "flush counters inconsistent: total {} != switch {} + coherence {}",
                c.abtb_flushes, c.abtb_switch_flushes, c.abtb_coherence_flushes
            ));
        }
        match policy {
            SwitchPolicy::FlushOnSwitch => {
                if c.abtb_switch_flushes != run.thread_switches {
                    failures.push(format!(
                        "flush-on-switch: {} switch flush(es) for {} context switch(es)",
                        c.abtb_switch_flushes, run.thread_switches
                    ));
                }
            }
            SwitchPolicy::AsidTagged => {
                if c.abtb_switch_flushes != 0 {
                    failures.push(format!(
                        "ASID-tagged machine flushed on {} switch(es)",
                        c.abtb_switch_flushes
                    ));
                }
            }
        }
    }
    for (i, pc) in run.per_core.iter().enumerate() {
        if !accel.has_abtb()
            && (pc.trampolines_skipped != 0
                || pc.abtb_hits != 0
                || pc.abtb_flushes != 0
                || pc.abtb_switch_flushes != 0
                || pc.abtb_coherence_flushes != 0
                || pc.abtb_inserts != 0
                || pc.btb_function_trains != 0)
        {
            failures.push(format!(
                "core {i} of a baseline machine touched the ABTB: skipped={} hits={} flushes={}",
                pc.trampolines_skipped, pc.abtb_hits, pc.abtb_flushes
            ));
        }
        if !accel.has_bloom() && pc.bloom_store_hits != 0 {
            failures.push(format!(
                "core {i} without a Bloom filter reported {} Bloom store hit(s)",
                pc.bloom_store_hits
            ));
        }
        if pc.trampolines_skipped > pc.abtb_hits {
            failures.push(format!(
                "core {i}: trampolines_skipped {} exceeds abtb_hits {}",
                pc.trampolines_skipped, pc.abtb_hits
            ));
        }
        if pc.abtb_hits > pc.branches {
            failures.push(format!(
                "core {i}: abtb_hits {} exceeds retired branches {}",
                pc.abtb_hits, pc.branches
            ));
        }
        if accel.has_abtb() {
            if pc.abtb_flushes != pc.abtb_switch_flushes + pc.abtb_coherence_flushes {
                failures.push(format!(
                    "core {i} flush counters inconsistent: total {} != switch {} + coherence {}",
                    pc.abtb_flushes, pc.abtb_switch_flushes, pc.abtb_coherence_flushes
                ));
            }
            let want = match policy {
                SwitchPolicy::FlushOnSwitch => run.thread_switches_per_core[i],
                SwitchPolicy::AsidTagged => 0,
            };
            if pc.abtb_switch_flushes != want {
                failures.push(format!(
                    "core {i} under {policy:?}: {} switch flush(es) for {} displacement(s)",
                    pc.abtb_switch_flushes, run.thread_switches_per_core[i]
                ));
            }
        }
    }
    failures
}

/// Runs one multi-process case through the [`MultiOracle`] and through
/// [`MultiProcessSystem`] under every `LinkAccel` mode, both trampoline
/// flavors and both §3.3 switch policies — twelve system runs per case,
/// with per-process digest comparison. The system side honours
/// `case.cores`; the oracle is architectural, so core count never
/// changes the expected digests.
pub fn check_multi_case(case: &MultiFuzzCase, injection: Injection) -> CaseReport {
    check_multi_case_coverage(case, injection).0
}

/// [`check_multi_case`] with the coherence bus switched explicitly.
/// `coherence_bus = false` is the negative control: on a multi-core
/// case, a remote rebind then cannot reach a resident core's Bloom
/// filter, so the stale-skip divergence the §3.2 broadcast exists to
/// prevent becomes observable (the cross-core corpus regression relies
/// on exactly this).
pub fn check_multi_case_with_bus(
    case: &MultiFuzzCase,
    injection: Injection,
    coherence_bus: bool,
) -> CaseReport {
    check_multi_case_coverage_full(case, injection, coherence_bus, true, true, false, true).0
}

/// [`check_multi_case`] with the machine's demand-GC invalidation knob
/// switched explicitly — the multi-process twin of
/// [`check_case_with_demand_invalidation`], and the knob behind the
/// tenant-churn staleness witness: under [`SwitchPolicy::AsidTagged`]
/// a suspended tenant's ABTB entries survive other tenants' time
/// slices, so a `dlclose` whose shootdown is skipped
/// (`invalidate = false`) leaves a retained entry skipping straight
/// into the GC-unmapped range the next time that tenant calls through
/// the slot — while [`SwitchPolicy::FlushOnSwitch`] already destroyed
/// the entry on the way out, masking the bug. The checked-in
/// `corpus/tenant_churn_stale_skip.txt` witness pins exactly this
/// policy-dependent divergence.
pub fn check_multi_case_with_demand_invalidation(
    case: &MultiFuzzCase,
    injection: Injection,
    invalidate: bool,
) -> CaseReport {
    check_multi_case_coverage_full(case, injection, true, invalidate, true, false, true).0
}

/// [`check_multi_case`] with the superblock translation engine switched
/// explicitly — the multi-process twin of [`check_case_with_superblock`].
/// Cross-core shootdowns (patch broadcasts, module GC, demand eviction)
/// must leave the translated path bit-identical to the interpreter, so
/// both settings must match the same oracle digests.
pub fn check_multi_case_with_superblock(
    case: &MultiFuzzCase,
    injection: Injection,
    superblock: bool,
) -> CaseReport {
    check_multi_case_coverage_full(case, injection, true, true, true, false, superblock).0
}

/// [`check_multi_case`] with the machine's prelink-validation knob
/// switched explicitly (see [`check_case_with_prelink_validation`] for
/// the bug model the `validate = false` negative control exposes).
pub fn check_multi_case_with_prelink_validation(
    case: &MultiFuzzCase,
    injection: Injection,
    validate: bool,
) -> CaseReport {
    check_multi_case_coverage_full(case, injection, true, true, validate, false, true).0
}

/// [`check_multi_case`] plus the behavioral [`CoverageMap`] its runs
/// exercised: each system run records onto the §3.3 policy plane it
/// executed under, and multi-core runs additionally record the
/// core-count facets.
pub fn check_multi_case_coverage(
    case: &MultiFuzzCase,
    injection: Injection,
) -> (CaseReport, CoverageMap) {
    check_multi_case_coverage_full(case, injection, true, true, true, false, true)
}

/// [`check_multi_case_coverage`] with the `--prelink` axis enabled:
/// per-process warm-up snapshots are captured, round-tripped through
/// the `DLSN` format, restored at boot into a prelink multi-oracle and
/// into prelink system runs across the full accel × policy matrix. The
/// extra digests never fold into [`CaseReport::digest_fold`].
pub fn check_multi_case_coverage_prelink(
    case: &MultiFuzzCase,
    injection: Injection,
) -> (CaseReport, CoverageMap) {
    check_multi_case_coverage_full(case, injection, true, true, true, true, true)
}

fn check_multi_case_coverage_full(
    case: &MultiFuzzCase,
    injection: Injection,
    coherence_bus: bool,
    demand_invalidate: bool,
    prelink_validate: bool,
    prelink: bool,
    superblock: bool,
) -> (CaseReport, CoverageMap) {
    let mut failures = Vec::new();
    let mut digest_fold = FNV_OFFSET;
    let mut coverage = CoverageMap::new();
    for &flavor in &FLAVORS {
        let oracle = match run_multi_oracle(case, flavor, None) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("[{flavor:?}/oracle] {e}"));
                continue;
            }
        };
        for d in &oracle.digests {
            digest_fold = fold64(digest_fold, d.fold());
        }
        multi_matrix(
            case,
            flavor,
            injection,
            coherence_bus,
            demand_invalidate,
            prelink_validate,
            superblock,
            None,
            &oracle,
            &mut coverage,
            &mut failures,
        );
        if prelink {
            match multi_prelink_arm(
                case,
                flavor,
                injection,
                coherence_bus,
                demand_invalidate,
                prelink_validate,
                superblock,
                &mut coverage,
                &mut failures,
            ) {
                Ok(()) => {}
                Err(e) => failures.push(format!("[{flavor:?}/prelink] {e}")),
            }
        }
    }
    (
        CaseReport {
            seed: case.seed,
            digest_fold,
            failures,
        },
        coverage,
    )
}

/// Runs the accel × policy system matrix for one `(case, flavor)`
/// against `oracle`, appending failures and recording coverage. `boot`
/// selects the prelink round (suffixing labels with `/prelink`).
#[allow(clippy::too_many_arguments)]
fn multi_matrix(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
    injection: Injection,
    coherence_bus: bool,
    demand_invalidate: bool,
    prelink_validate: bool,
    superblock: bool,
    boot: Option<&[ResolutionSnapshot]>,
    oracle: &MultiOracleRun,
    coverage: &mut CoverageMap,
    failures: &mut Vec<String>,
) {
    let suffix = if boot.is_some() { "/prelink" } else { "" };
    for &policy in &POLICIES {
        let mut baseline: Option<PerfCounters> = None;
        for &accel in &ACCELS {
            match run_multi_system(
                case,
                flavor,
                accel,
                policy,
                injection,
                coherence_bus,
                demand_invalidate,
                prelink_validate,
                superblock,
                boot,
            ) {
                Err(e) => {
                    failures.push(format!("[{flavor:?}/{accel:?}/{policy:?}{suffix}] {e}"));
                }
                Ok(run) => {
                    // The prelink round only records its restore
                    // outcomes: run/event coverage would double-count
                    // the lazy matrix's keys.
                    if boot.is_none() {
                        coverage.record_run(accel, policy.into(), &run.counters);
                        coverage.record_multicore_run(
                            accel,
                            policy.into(),
                            case.cores,
                            &run.counters,
                        );
                        for (kind, window) in &run.events {
                            coverage.record_event(accel, policy.into(), *kind, window);
                        }
                    }
                    for outcome in &run.prelink {
                        coverage.record_prelink(accel, policy.into(), outcome);
                    }
                    for (p, (got, want)) in
                        run.digests.iter().zip(oracle.digests.iter()).enumerate()
                    {
                        if got != want {
                            failures.push(format!(
                                "[{flavor:?}/{accel:?}/{policy:?}{suffix}] process {p} architectural divergence: {}",
                                want.describe_diff(got)
                            ));
                        }
                    }
                    for msg in
                        check_multi_counters(flavor, accel, policy, &run, baseline.as_ref(), oracle)
                    {
                        failures.push(format!("[{flavor:?}/{accel:?}/{policy:?}{suffix}] {msg}"));
                    }
                    if accel == LinkAccel::Off {
                        baseline = Some(run.counters);
                    }
                }
            }
        }
    }
}

/// Multi-process prelink round: warm-up capture per process, `DLSN`
/// round-trip, prelink multi-oracle golden run, and the full system
/// matrix restored from the same bytes checked against it.
#[allow(clippy::too_many_arguments)]
fn multi_prelink_arm(
    case: &MultiFuzzCase,
    flavor: TrampolineFlavor,
    injection: Injection,
    coherence_bus: bool,
    demand_invalidate: bool,
    prelink_validate: bool,
    superblock: bool,
    coverage: &mut CoverageMap,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let all_bytes = warm_multi_snapshot_bytes(case, flavor)?;
    let snapshots = all_bytes
        .iter()
        .enumerate()
        .map(|(p, bytes)| {
            ResolutionSnapshot::decode(bytes)
                .map_err(|e| format!("snapshot round-trip (process {p}): {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let oracle = run_multi_oracle(case, flavor, Some(&snapshots))?;
    multi_matrix(
        case,
        flavor,
        injection,
        coherence_bus,
        demand_invalidate,
        prelink_validate,
        superblock,
        Some(&snapshots),
        &oracle,
        coverage,
        failures,
    );
    Ok(())
}

/// Multi-process analogue of [`run_difftest`]: checks `cases`
/// consecutive [`MultiFuzzCase`] seeds, sharded over `jobs` workers,
/// optionally shrinking the first failure with
/// [`shrink_multi_case`] (which reduces the schedule *and* the process
/// count). Output is byte-identical at every `--jobs` level.
///
/// `cores` overrides every generated case's core count *after*
/// generation, so the schedules — and therefore the oracle digests —
/// are identical at every `--cores` level; only the system side (and
/// the coverage footer) changes. At `cores <= 1` the report is
/// byte-identical to the historical single-core sweep.
/// `prelink` enables the stable-linking axis (see [`run_difftest`]);
/// the extra runs never fold into the state digest. `superblock = false`
/// runs every system leg on the pure interpreter — the A/B axis behind
/// `difftest --no-superblock`.
#[allow(clippy::too_many_arguments)]
pub fn run_multi_difftest(
    seed_start: u64,
    cases: u64,
    jobs: usize,
    injection: Injection,
    shrink: bool,
    cores: usize,
    demand: bool,
    prelink: bool,
    superblock: bool,
) -> DiffReport {
    let cores = cores.max(1);
    let gen_case = move |seed: u64| {
        let mut case = MultiFuzzCase::generate(seed);
        case.cores = cores;
        if demand {
            case.enable_demand(seed);
        }
        case
    };
    let check = move |case: &MultiFuzzCase| {
        check_multi_case_coverage_full(case, injection, true, true, true, prelink, superblock)
    };
    let cells: Vec<Cell<(CaseReport, CoverageMap)>> = (0..cases)
        .map(|i| {
            let seed = seed_start + i;
            Cell::new(format!("seed{seed}"), move |_ctx| check(&gen_case(seed)))
        })
        .collect();
    let report = ParallelRunner::new(jobs).run(seed_start ^ 0x6d75_6c74, cells);

    let mut output = format!(
        "multi difftest: {cases} case(s), seeds {seed_start}..{}, {{Off,Abtb,AbtbNoBloom}} x {{X86,Arm}} x {{FlushOnSwitch,AsidTagged}}{}{}{}{}\n",
        seed_start + cases,
        if cores > 1 {
            format!(" on {cores} cores")
        } else {
            String::new()
        },
        if demand {
            ", demand-fault events enabled"
        } else {
            ""
        },
        if prelink {
            ", prelink restore enabled"
        } else {
            ""
        },
        match injection {
            Injection::None => "",
            Injection::DropInvalidate => ", injecting stale-ABTB bug",
        }
    );
    let mut digest = FNV_OFFSET;
    let mut coverage = CoverageMap::new();
    let mut failures = 0usize;
    let mut first_failing: Option<u64> = None;
    for cell in report.cells {
        match cell.outcome {
            CellOutcome::Done((r, map)) => {
                digest = fold64(digest, r.digest_fold);
                coverage.merge(&map);
                if !r.failures.is_empty() && first_failing.is_none() {
                    first_failing = Some(r.seed);
                }
                for f in &r.failures {
                    output.push_str(&format!("FAIL seed {}: {f}\n", r.seed));
                    failures += 1;
                }
            }
            CellOutcome::Panicked(msg) => {
                output.push_str(&format!("FAIL {}: panicked: {msg}\n", cell.label));
                failures += 1;
            }
        }
    }

    if let Some(seed) = first_failing.filter(|_| shrink) {
        let case = gen_case(seed);
        let shrunk = shrink_multi_case(&case, |c| !check(c).0.failures.is_empty());
        output.push_str(&format!("shrunk minimal reproducer for seed {seed}:\n"));
        for line in shrunk.to_string().lines() {
            output.push_str(&format!("  {line}\n"));
        }
        for f in check(&shrunk).0.failures {
            output.push_str(&format!("  {f}\n"));
        }
    }

    if cores > 1 {
        output.push_str(&format!(
            "multi difftest: core coverage {} key(s)\n",
            coverage.count_core_facets()
        ));
    }
    if prelink {
        output.push_str(&format!(
            "multi difftest: prelink coverage {} key(s)\n",
            coverage.count_prelink_facets()
        ));
    }
    output.push_str(&format!(
        "multi difftest: {failures} failure(s) across {cases} case(s); coverage {} key(s); state digest {digest:#018x}\n",
        coverage.count()
    ));
    DiffReport {
        output,
        failures,
        cases,
        digest,
        coverage: coverage.count(),
    }
}

// ---------------------------------------------------------------------------
// Fleet-smoke difftest (arena boot path)
// ---------------------------------------------------------------------------

/// Checks one fleet-smoke case: per-process oracle digests on one side,
/// [`MultiProcessSystem::new_fleet`]-booted system runs across the full
/// accel × flavor × §3.3-policy matrix on the other, with every
/// multi-process counter invariant enforced. This folds the arena
/// representation into the per-process digest machinery: a forked
/// tenant sharing its class's `code_uid` and COW pages must be
/// architecturally indistinguishable from the same program booted
/// through the one-process-at-a-time constructor.
pub fn check_fleet_smoke_case(case: &MultiFuzzCase) -> CaseReport {
    let mut failures = Vec::new();
    let mut digest_fold = FNV_OFFSET;
    for &flavor in &FLAVORS {
        let oracle = match run_multi_oracle(case, flavor, None) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("[{flavor:?}/oracle] {e}"));
                continue;
            }
        };
        for d in &oracle.digests {
            digest_fold = fold64(digest_fold, d.fold());
        }
        for &policy in &POLICIES {
            let mut baseline: Option<PerfCounters> = None;
            for &accel in &ACCELS {
                match run_fleet_system(case, flavor, accel, policy, Injection::None) {
                    Err(e) => {
                        failures.push(format!("[{flavor:?}/{accel:?}/{policy:?}/fleet] {e}"));
                    }
                    Ok(run) => {
                        for (p, (got, want)) in
                            run.digests.iter().zip(oracle.digests.iter()).enumerate()
                        {
                            if got != want {
                                failures.push(format!(
                                    "[{flavor:?}/{accel:?}/{policy:?}/fleet] tenant {p} architectural divergence: {}",
                                    want.describe_diff(got)
                                ));
                            }
                        }
                        for msg in check_multi_counters(
                            flavor,
                            accel,
                            policy,
                            &run,
                            baseline.as_ref(),
                            &oracle,
                        ) {
                            failures.push(format!("[{flavor:?}/{accel:?}/{policy:?}/fleet] {msg}"));
                        }
                        if accel == LinkAccel::Off {
                            baseline = Some(run.counters);
                        }
                    }
                }
            }
        }
    }
    CaseReport {
        seed: case.seed,
        digest_fold,
        failures,
    }
}

/// The `difftest --fleet-smoke` sweep: `cases` consecutive
/// [`MultiFuzzCase::generate_fleet`] seeds — 8–16 *identical* tenants
/// forked from one class template each, under an ASID-churning
/// switch-storm schedule — sharded over `jobs` workers. Output is
/// byte-identical at every `--jobs` level.
pub fn run_fleet_smoke(seed_start: u64, cases: u64, jobs: usize) -> DiffReport {
    let cells: Vec<Cell<CaseReport>> = (0..cases)
        .map(|i| {
            let seed = seed_start + i;
            Cell::new(format!("seed{seed}"), move |_ctx| {
                check_fleet_smoke_case(&MultiFuzzCase::generate_fleet(seed))
            })
        })
        .collect();
    let report = ParallelRunner::new(jobs).run(seed_start ^ 0x666c_6565, cells);

    let mut output = format!(
        "fleet smoke: {cases} case(s), seeds {seed_start}..{}, 8-16 forked tenants per case, {{Off,Abtb,AbtbNoBloom}} x {{X86,Arm}} x {{FlushOnSwitch,AsidTagged}}\n",
        seed_start + cases,
    );
    let mut digest = FNV_OFFSET;
    let mut failures = 0usize;
    for cell in report.cells {
        match cell.outcome {
            CellOutcome::Done(r) => {
                digest = fold64(digest, r.digest_fold);
                for f in &r.failures {
                    output.push_str(&format!("FAIL seed {}: {f}\n", r.seed));
                    failures += 1;
                }
            }
            CellOutcome::Panicked(msg) => {
                output.push_str(&format!("FAIL {}: panicked: {msg}\n", cell.label));
                failures += 1;
            }
        }
    }
    output.push_str(&format!(
        "fleet smoke: {failures} failure(s) across {cases} case(s); state digest {digest:#018x}\n"
    ));
    DiffReport {
        output,
        failures,
        cases,
        digest,
        coverage: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_core::ResolutionRecord;
    use dynlink_workloads::repro::{parse_corpus_file, CorpusCase};

    /// FNV fold of everything the system side reports about a finished
    /// run beyond its architectural state: the full counter sets, the
    /// cycle breakdown and the drained resolution telemetry, in order.
    pub(super) fn side_fold(
        counters: &[PerfCounters],
        cycles: impl std::fmt::Debug,
        telemetry: &[ResolutionRecord],
    ) -> u64 {
        fold_str(FNV_OFFSET, &format!("{counters:?}{cycles:?}{telemetry:?}"))
    }

    /// The checked-in corpus witnesses, parsed (all clean with every
    /// mechanism on; they carry the `prelink` and churn events the
    /// generators never emit).
    fn corpus() -> Vec<CorpusCase> {
        [
            include_str!("../../../corpus/bloom_asid_salt_hazard.txt"),
            include_str!("../../../corpus/cross_core_stale_rebind.txt"),
            include_str!("../../../corpus/cross_switch_stale_rebind.txt"),
            include_str!("../../../corpus/drop_invalidate_rebind.txt"),
            include_str!("../../../corpus/stale_prelink_restore.txt"),
            include_str!("../../../corpus/stale_skip_unmapped_page.txt"),
            include_str!("../../../corpus/tenant_churn_stale_skip.txt"),
        ]
        .iter()
        .map(|text| parse_corpus_file(text).unwrap())
        .collect()
    }

    fn single_fold(mut hash: u64, case: &FuzzCase, boot: bool, engine: bool) -> u64 {
        for &flavor in &FLAVORS {
            let snapshot = boot.then(|| {
                ResolutionSnapshot::decode(&warm_snapshot_bytes(case, flavor).unwrap()).unwrap()
            });
            for &accel in &ACCELS {
                let run = run_system(
                    case,
                    flavor,
                    accel,
                    Injection::None,
                    true,
                    true,
                    engine,
                    true,
                    snapshot.as_ref(),
                )
                .unwrap();
                hash = fold64(hash, run.side_fold);
            }
        }
        hash
    }

    fn multi_fold(mut hash: u64, case: &MultiFuzzCase, boot: bool, engine: bool) -> u64 {
        for &flavor in &FLAVORS {
            let snapshots: Option<Vec<ResolutionSnapshot>> = boot.then(|| {
                warm_multi_snapshot_bytes(case, flavor)
                    .unwrap()
                    .iter()
                    .map(|b| ResolutionSnapshot::decode(b).unwrap())
                    .collect()
            });
            for &policy in &POLICIES {
                for &accel in &ACCELS {
                    let run = run_multi_system(
                        case,
                        flavor,
                        accel,
                        policy,
                        Injection::None,
                        true,
                        true,
                        true,
                        engine,
                        snapshots.as_deref(),
                    )
                    .unwrap();
                    hash = fold64(hash, run.side_fold);
                }
            }
        }
        hash
    }

    /// System-side golden folds. The oracle digests pinned elsewhere
    /// only see architectural state, so a change that stays
    /// architecturally correct (a different resolver count, ABTB flush
    /// count, cycle count or telemetry order) would pass every other
    /// check. These folds pin everything the system side reports for
    /// small slices of the single matrix (plain, demand and boot-prelink
    /// cases), the multi matrix (plain, demand, one 2-core case, one
    /// boot-prelink case), the corpus witnesses and fleet-smoke. The
    /// single and multi slices run with the superblock engine on and
    /// off, and both must land on the same pins: the engine is a
    /// simulator speedup, so not one counter, cycle or telemetry record
    /// may depend on it.
    #[test]
    fn system_side_golden_folds() {
        for engine in [true, false] {
            let mut single = FNV_OFFSET;
            for seed in 0..40 {
                let mut case = FuzzCase::generate(seed);
                single = single_fold(single, &case, seed < 8, engine);
                case.enable_demand(seed);
                single = single_fold(single, &case, false, engine);
            }
            let mut multi = FNV_OFFSET;
            for seed in 0..12 {
                let mut case = MultiFuzzCase::generate(seed);
                multi = multi_fold(multi, &case, seed < 2, engine);
                if seed < 3 {
                    let mut two_cores = case.clone();
                    two_cores.cores = 2;
                    multi = multi_fold(multi, &two_cores, false, engine);
                }
                case.enable_demand(seed);
                multi = multi_fold(multi, &case, false, engine);
            }
            for case in corpus() {
                match case {
                    CorpusCase::Single(case) => single = single_fold(single, &case, false, engine),
                    CorpusCase::Multi(case) => multi = multi_fold(multi, &case, false, engine),
                }
            }
            assert_eq!(
                [single, multi],
                [0xca3b_8fda_a8f9_f2b3, 0x024a_9ac1_3680_4bae],
                "system-side folds moved (engine {engine}): {single:#018x} {multi:#018x}"
            );
        }
        let mut fleet = FNV_OFFSET;
        for seed in 0..4 {
            let case = MultiFuzzCase::generate_fleet(seed);
            for &flavor in &FLAVORS {
                for &policy in &POLICIES {
                    for &accel in &ACCELS {
                        let run = run_fleet_system(&case, flavor, accel, policy, Injection::None)
                            .unwrap();
                        fleet = fold64(fleet, run.side_fold);
                    }
                }
            }
        }
        assert_eq!(
            fleet, 0x71ed_ea36_2249_c702,
            "fleet-smoke system-side fold moved: {fleet:#018x}"
        );
    }

    #[test]
    fn clean_cases_produce_no_failures() {
        for seed in 0..15 {
            let report = check_case(&FuzzCase::generate(seed), Injection::None);
            assert!(
                report.failures.is_empty(),
                "seed {seed}: {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn report_counts_match_failure_lines() {
        let r = run_difftest(0, 6, 2, Injection::None, false, false, false, true);
        assert_eq!(r.cases, 6);
        assert_eq!(r.failures, 0, "{}", r.output);
        assert!(r.output.contains("0 failure(s) across 6 case(s)"));
    }

    #[test]
    fn clean_multi_cases_produce_no_failures() {
        for seed in 0..6 {
            let report = check_multi_case(&MultiFuzzCase::generate(seed), Injection::None);
            assert!(
                report.failures.is_empty(),
                "seed {seed}: {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn multi_report_counts_match_failure_lines() {
        let r = run_multi_difftest(0, 4, 2, Injection::None, false, 1, false, false, true);
        assert_eq!(r.cases, 4);
        assert_eq!(r.failures, 0, "{}", r.output);
        assert!(r.output.contains("0 failure(s) across 4 case(s)"));
        assert!(r.output.contains("FlushOnSwitch,AsidTagged"));
        assert!(
            !r.output.contains("core coverage"),
            "single-core reports must stay byte-identical to the historical format"
        );
    }

    #[test]
    fn clean_multi_cases_stay_clean_on_more_cores() {
        for seed in 0..4 {
            for cores in [2, 4] {
                let mut case = MultiFuzzCase::generate(seed);
                case.cores = cores;
                let report = check_multi_case(&case, Injection::None);
                assert!(
                    report.failures.is_empty(),
                    "seed {seed} on {cores} cores: {:?}",
                    report.failures
                );
            }
        }
    }

    #[test]
    fn demand_cases_produce_no_failures() {
        for seed in 0..15 {
            let mut case = FuzzCase::generate(seed);
            case.enable_demand(seed);
            let report = check_case(&case, Injection::None);
            assert!(
                report.failures.is_empty(),
                "seed {seed}: {:?}\n{case}",
                report.failures
            );
        }
    }

    #[test]
    fn demand_multi_cases_produce_no_failures() {
        for seed in 0..6 {
            for cores in [1, 2] {
                let mut case = MultiFuzzCase::generate(seed);
                case.cores = cores;
                case.enable_demand(seed);
                let report = check_multi_case(&case, Injection::None);
                assert!(
                    report.failures.is_empty(),
                    "seed {seed} on {cores} core(s): {:?}\n{case}",
                    report.failures
                );
            }
        }
    }

    #[test]
    fn demand_sweeps_are_clean_and_deterministic() {
        // Both regimes must be clean. Their digests legitimately differ
        // (dlclose/reopen events change architecture: GOT re-arm), but
        // the demand report must be byte-identical at every job level —
        // and the demand-off sweep's digest is the historical one, so
        // the demand flag provably never leaks into generation.
        let eager = run_difftest(0, 20, 2, Injection::None, false, false, false, true);
        let demand = run_difftest(0, 20, 2, Injection::None, false, true, false, true);
        assert_eq!(eager.failures, 0, "{}", eager.output);
        assert_eq!(demand.failures, 0, "{}", demand.output);
        assert!(demand.output.contains("demand-fault events enabled"));
        let demand4 = run_difftest(0, 20, 4, Injection::None, false, true, false, true);
        assert_eq!(demand.output, demand4.output);
    }

    #[test]
    fn prelink_cases_produce_no_failures() {
        for seed in 0..8 {
            let (report, _) =
                check_case_coverage_prelink(&FuzzCase::generate(seed), Injection::None);
            assert!(
                report.failures.is_empty(),
                "seed {seed}: {:?}",
                report.failures
            );
        }
    }

    #[test]
    fn prelink_sweep_is_clean_and_digest_matches_lazy() {
        let lazy = run_difftest(0, 12, 2, Injection::None, false, false, false, true);
        let pre = run_difftest(0, 12, 2, Injection::None, false, false, true, true);
        assert_eq!(pre.failures, 0, "{}", pre.output);
        assert!(
            pre.output.contains("prelink restore enabled"),
            "{}",
            pre.output
        );
        let line = pre
            .output
            .lines()
            .find(|l| l.contains("prelink coverage"))
            .expect("prelink footer line");
        assert!(
            !line.contains("prelink coverage 0 key(s)"),
            "a prelink sweep must exercise at least one restore facet: {line}"
        );
        // Prelink runs are compared pairwise, never folded: the state
        // digest is byte-identical to the lazy sweep's.
        assert_eq!(pre.digest, lazy.digest);
        assert!(
            !lazy.output.contains("prelink coverage"),
            "plain sweeps must stay byte-identical to the historical format"
        );
        let pre4 = run_difftest(0, 12, 4, Injection::None, false, false, true, true);
        assert_eq!(pre.output, pre4.output);
    }

    #[test]
    fn multi_prelink_sweep_is_clean_and_digest_matches_lazy() {
        let lazy = run_multi_difftest(0, 4, 2, Injection::None, false, 2, false, false, true);
        let pre = run_multi_difftest(0, 4, 2, Injection::None, false, 2, false, true, true);
        assert_eq!(pre.failures, 0, "{}", pre.output);
        assert!(
            pre.output.contains("prelink restore enabled"),
            "{}",
            pre.output
        );
        let line = pre
            .output
            .lines()
            .find(|l| l.contains("prelink coverage"))
            .expect("prelink footer line");
        assert!(!line.contains("prelink coverage 0 key(s)"), "{line}");
        assert_eq!(pre.digest, lazy.digest);
    }

    #[test]
    fn prelink_validation_knob_on_matches_plain_check() {
        let case = FuzzCase::generate(3);
        let plain = check_case(&case, Injection::None);
        let knob_on = check_case_with_prelink_validation(&case, Injection::None, true);
        assert_eq!(plain.failures, knob_on.failures);
        assert_eq!(plain.digest_fold, knob_on.digest_fold);
    }

    #[test]
    fn superblock_knobs_on_match_plain_check() {
        let case = FuzzCase::generate(5);
        let plain = check_case(&case, Injection::None);
        let engine_on = check_case_with_superblock(&case, Injection::None, true);
        assert_eq!(plain.failures, engine_on.failures);
        assert_eq!(plain.digest_fold, engine_on.digest_fold);
        let validate_on = check_case_with_superblock_validation(&case, Injection::None, true);
        assert_eq!(plain.failures, validate_on.failures);
        assert_eq!(plain.digest_fold, validate_on.digest_fold);
        // The interpreter leg of the A/B: translation must be
        // architecturally invisible, digest included.
        let engine_off = check_case_with_superblock(&case, Injection::None, false);
        assert!(engine_off.failures.is_empty(), "{:?}", engine_off.failures);
        assert_eq!(plain.digest_fold, engine_off.digest_fold);
    }

    #[test]
    fn demand_invalidation_knob_on_matches_plain_check() {
        let mut case = FuzzCase::generate(1);
        case.enable_demand(1);
        let plain = check_case(&case, Injection::None);
        let knob_on = check_case_with_demand_invalidation(&case, Injection::None, true);
        assert_eq!(plain.failures, knob_on.failures);
        assert_eq!(plain.digest_fold, knob_on.digest_fold);
    }

    #[test]
    fn multicore_report_carries_core_coverage() {
        let r = run_multi_difftest(0, 3, 2, Injection::None, false, 2, false, false, true);
        assert_eq!(r.failures, 0, "{}", r.output);
        assert!(r.output.contains("on 2 cores"), "{}", r.output);
        let line = r
            .output
            .lines()
            .find(|l| l.contains("core coverage"))
            .expect("multicore footer line");
        assert!(
            !line.contains("core coverage 0 key(s)"),
            "a 2-core sweep must exercise at least one core-count facet: {line}"
        );
        // The oracle never sees the core count, so the digest matches
        // the single-core sweep over the same seeds.
        let single = run_multi_difftest(0, 3, 2, Injection::None, false, 1, false, false, true);
        assert_eq!(r.digest, single.digest);
    }
}
