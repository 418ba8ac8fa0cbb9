//! `difftest`: single-process fuzz cases checked against the oracle.
//!
//! [`check_case_timed`] makes the same public calls, in the same order,
//! as `dynlink_bench::difftest::check_case(case, Injection::None)`: per
//! trampoline flavor one oracle run, then one system run per `LinkAccel`
//! mode, each compared with the oracle's digest and put through the
//! same counter invariants, with the same coverage recorded. It returns
//! the same digest fold, failures and coverage (pinned by the crate's
//! equivalence test), and opens a span around each layer call.

use dynlink_bench::difftest::{ACCELS, FLAVORS, RUN_BUDGET};
use dynlink_core::{LinkAccel, LinkOptions, MachineConfig, PerfCounters, SystemBuilder};
use dynlink_core::{System, TrampolineFlavor};
use dynlink_oracle::{ArchDigest, Oracle};
use dynlink_workloads::coverage::{CoverageMap, EventKind, EventWindow, PolicyCtx};
use dynlink_workloads::fuzz::{FuzzCase, FuzzEvent};

use crate::spans::Tracer;
use crate::{causes, fold, Sim, FOLD_START};

/// What one case's check produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// FNV fold of the oracle digests of both flavors.
    pub digest_fold: u64,
    /// Divergences and invariant violations; empty means the case passed.
    pub failures: Vec<String>,
    /// Behavioral coverage of the system runs.
    pub coverage: CoverageMap,
    /// Simulated instructions of every oracle and system run.
    pub instructions: u64,
    /// Simulated-clock results: one request = the case's ABTB runs.
    pub sim: Sim,
}

struct OracleRun {
    digest: ArchDigest,
    resolver_invocations: u64,
    instructions: u64,
}

struct SystemRun {
    digest: ArchDigest,
    counters: PerfCounters,
    causes: [u64; 7],
    events: Vec<(EventKind, EventWindow)>,
}

fn trampoline_len(flavor: TrampolineFlavor) -> u64 {
    match flavor {
        TrampolineFlavor::X86 => 1,
        TrampolineFlavor::Arm => 3,
    }
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

fn run_oracle(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    tr: &mut Tracer,
) -> Result<OracleRun, String> {
    let s = tr.open("workloads.modules_us");
    let specs = case.modules();
    tr.close(s);
    let s = tr.open("linker.load_us");
    let oracle = Oracle::new(&specs, link_options(case, flavor), "main");
    tr.close(s);
    let mut oracle = oracle.map_err(|e| format!("oracle load: {e}"))?;
    let s = tr.open("oracle.run_us");
    let run = drive_oracle(case, &mut oracle);
    tr.close(s);
    run?;
    let s = tr.open("oracle.digest_us");
    let digest = oracle.digest();
    tr.close(s);
    let run = OracleRun {
        digest,
        resolver_invocations: oracle.resolver_invocations(),
        instructions: oracle.instructions(),
    };
    let s = tr.open("mem.free_us");
    drop(oracle);
    tr.close(s);
    Ok(run)
}

fn drive_oracle(case: &FuzzCase, oracle: &mut Oracle) -> Result<(), String> {
    for ev in &case.schedule {
        oracle
            .run_until_marks(ev.at_mark, RUN_BUDGET)
            .map_err(|e| format!("oracle run: {e}"))?;
        if !case.applicable(&ev.event) {
            continue;
        }
        match ev.event {
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
    Ok(())
}

fn apply_system_event(sys: &mut System, event: FuzzEvent) -> Result<(), String> {
    match event {
        FuzzEvent::ContextSwitch => {
            sys.context_switch();
            Ok(())
        }
        FuzzEvent::AbtbInvalidate => {
            sys.machine_mut().invalidate_abtb();
            Ok(())
        }
        FuzzEvent::Unbind { lib } => sys
            .unbind_library(&format!("lib{lib}"))
            .map(|_| ())
            .map_err(|e| format!("unbind: {e}")),
        FuzzEvent::Rebind { lib } => sys
            .rebind_symbol(&format!("f{lib}"), "shadow")
            .map(|_| ())
            .map_err(|e| format!("rebind: {e}")),
        FuzzEvent::EvictColdPage { lib, page } => sys
            .evict_lib_page(&format!("lib{lib}"), page)
            .map(|_| ())
            .map_err(|e| format!("evict: {e}")),
        FuzzEvent::DlcloseModule { lib } => sys
            .dlclose(&format!("lib{lib}"))
            .map(|_| ())
            .map_err(|e| format!("dlclose: {e}")),
        FuzzEvent::ReopenModule { lib } => sys
            .dlreopen(&format!("lib{lib}"))
            .map(|_| ())
            .map_err(|e| format!("reopen: {e}")),
        FuzzEvent::PrelinkRestore => sys
            .prelink_restore_self()
            .map(|_| ())
            .map_err(|e| format!("prelink restore: {e}")),
    }
}

fn run_system(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    tr: &mut Tracer,
) -> Result<SystemRun, String> {
    let s = tr.open("workloads.modules_us");
    let specs = case.modules();
    tr.close(s);
    let s = tr.open("linker.load_us");
    let built = SystemBuilder::new()
        .modules(specs)
        .link_mode(case.mode)
        .trampoline_flavor(flavor)
        .hw_level(case.hw_level)
        .demand_paging(case.demand)
        .machine_config(MachineConfig::baseline())
        .accel(accel)
        .build();
    tr.close(s);
    let mut sys = built.map_err(|e| format!("system build: {e}"))?;
    let mut snaps: Vec<(EventKind, PerfCounters)> = Vec::new();
    for ev in &case.schedule {
        let s = tr.open("cpu.run_us.system");
        let r = sys.run_until_marks(ev.at_mark as usize, RUN_BUDGET);
        tr.close(s);
        r.map_err(|e| format!("system run: {e}"))?;
        if !case.applicable(&ev.event) {
            continue;
        }
        snaps.push((EventKind::from(&ev.event), sys.counters()));
        let s = tr.open("core.event_us");
        let r = apply_system_event(&mut sys, ev.event);
        tr.close(s);
        r?;
    }
    let s = tr.open("cpu.run_us.system");
    let r = sys.run(RUN_BUDGET);
    tr.close(s);
    r.map_err(|e| format!("system run: {e}"))?;
    if !sys.machine().halted() {
        return Err("system exhausted its instruction budget".to_owned());
    }
    let s = tr.open("oracle.digest_us");
    let digest = ArchDigest::capture(
        |r| sys.reg(r),
        sys.machine().pc(),
        sys.machine().halted(),
        sys.machine().space(),
        sys.image(),
    );
    tr.close(s);
    let counters = sys.counters();
    // Every run call of the system is a `cpu.run_us.system` span.
    tr.add_insts("cpu.run_us.system", counters.instructions);
    let events = snaps
        .into_iter()
        .map(|(kind, before)| {
            (
                kind,
                EventWindow {
                    after: counters.delta(&before),
                    before,
                },
            )
        })
        .collect();
    let causes = causes(&sys.machine().cycle_breakdown());
    let s = tr.open("mem.free_us");
    drop(sys);
    tr.close(s);
    Ok(SystemRun {
        digest,
        counters,
        causes,
        events,
    })
}

fn check_counters(
    case: &FuzzCase,
    flavor: TrampolineFlavor,
    accel: LinkAccel,
    c: &PerfCounters,
    baseline: Option<&PerfCounters>,
    oracle: &OracleRun,
) -> Vec<String> {
    let mut failures = Vec::new();
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

/// Checks one case across both flavors and every accelerator mode.
pub fn check_case_timed(case: &FuzzCase, tr: &mut Tracer) -> CaseOutcome {
    let mut failures = Vec::new();
    let mut digest_fold = FOLD_START;
    let mut coverage = CoverageMap::new();
    let mut instructions = 0u64;
    let mut sim = Sim::default();
    let mut case_causes = [0u64; 7];
    for &flavor in &FLAVORS {
        let oracle = match run_oracle(case, flavor, tr) {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("[{flavor:?}/oracle] {e}"));
                continue;
            }
        };
        instructions += oracle.instructions;
        digest_fold = fold(digest_fold, oracle.digest.fold());
        let mut baseline: Option<PerfCounters> = None;
        for &accel in &ACCELS {
            let run = match run_system(case, flavor, accel, tr) {
                Ok(run) => run,
                Err(e) => {
                    failures.push(format!("[{flavor:?}/{accel:?}] {e}"));
                    continue;
                }
            };
            let s = tr.open("bench.check_us");
            instructions += run.counters.instructions;
            coverage.record_run(accel, PolicyCtx::SingleProcess, &run.counters);
            for (kind, window) in &run.events {
                coverage.record_event(accel, PolicyCtx::SingleProcess, *kind, window);
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
            match accel {
                LinkAccel::Off => {
                    sim.base_cycles += run.counters.cycles;
                    baseline = Some(run.counters);
                }
                LinkAccel::Abtb => {
                    sim.enh_cycles += run.counters.cycles;
                    sim.enh.accumulate(&run.counters);
                    for (sum, c) in case_causes.iter_mut().zip(run.causes) {
                        *sum += c;
                    }
                }
                _ => {}
            }
            tr.close(s);
        }
    }
    sim.latency.push(sim.enh_cycles);
    sim.queue.push(0);
    sim.causes.push(case_causes);
    sim.fingerprint = fold(fold(FOLD_START, digest_fold), failures.len() as u64);
    CaseOutcome {
        digest_fold,
        failures,
        coverage,
        instructions,
        sim,
    }
}
