//! OS-level multiprogramming over one simulated machine (paper §3.3).
//!
//! [`MultiProcessSystem`] loads several independent processes — each a
//! `Process` (image, live resolution table, prelink cache, GC remnants;
//! see `crate::process`) plus its own parked [`AddressSpace`] and
//! thread — onto a single [`Machine`], switching between them with
//! [`dynlink_cpu::Machine::swap_space_with`]. Module events delegate to
//! the active process's `Process`, exactly as `System`'s do; what is
//! multi-process only is the switch and residency bookkeeping, the
//! cross-process module refcounts, and the one resolution-telemetry
//! stream shared by every process. This is the system-under-test
//! counterpart of `dynlink_oracle::MultiOracle`: the machine carries all
//! the microarchitectural state (BTB, ABTB, Bloom filter, caches) across
//! switches per its configured §3.3 policy, while the oracle switches
//! trivially; any architectural divergence between the two is a bug in
//! the accelerated machine's switch handling.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dynlink_cpu::{CpuError, Machine, MachineBuilder, MachineConfig, ProcessContext};
use dynlink_isa::{Reg, VirtAddr};
use dynlink_linker::{
    LinkOptions, Loader, ModuleSpec, ProcessImage, ResolutionSnapshot, RestoreOutcome,
};
use dynlink_mem::layout::STACK_TOP;
use dynlink_mem::AddressSpace;
use dynlink_trace::{lock_recovering, ResolutionRecord, TelemetryWriter};
use dynlink_uarch::PerfCounters;

use crate::arena::ProcessArena;
use crate::process::{wire_resolver, Process, STACK_BYTES};
use crate::SystemError;

/// Several loaded processes time-sharing one simulated [`Machine`].
///
/// Process 0 starts active. `contexts[i]` always parks process `i`'s
/// state while it is suspended; the slot of the *active* process holds
/// the throwaway boot context instead.
pub struct MultiProcessSystem {
    machine: Machine,
    procs: Vec<Process>,
    contexts: Vec<ProcessContext>,
    /// Which process the lazy resolver serves (see
    /// [`crate::process::wire_resolver`]); repointed at every switch.
    resolver_target: Arc<AtomicUsize>,
    /// Resolution telemetry, shared across processes in event order.
    telemetry: Arc<Mutex<TelemetryWriter>>,
    shared_got_pair: Option<(usize, usize)>,
    active: usize,
    switches: u64,
    /// Which process's microarchitectural context last ran on each
    /// core. A switch that lands a process back on a core where it
    /// stayed resident is a *warm resume*: no structures are flushed
    /// (that is what makes cross-core staleness reachable); landing on
    /// a core that last ran a different process is a *displacement*
    /// and flushes per the core's §3.3 policy.
    resident: Vec<Option<usize>>,
    /// Displacements (per-core flush events), total and per core.
    /// Equal to `switches` on a 1-core machine, where every switch
    /// displaces.
    thread_switches: u64,
    thread_switches_per_core: Vec<u64>,
    /// Marks retired by each process so far; `Machine`'s mark buffer is
    /// drained into the active slot after every run segment so schedule
    /// targets are relative to the process they name.
    marks_per_proc: Vec<u64>,
    /// Module name → number of processes holding it open. The code
    /// pages model OS-shared physical frames: each `dlclose` tears down
    /// the closing process's own mapping, but the module counts as
    /// garbage-collected (and `modules_gcd` ticks) only when the last
    /// reference drops.
    module_refs: HashMap<String, usize>,
}

impl MultiProcessSystem {
    /// Loads each `(modules, options)` pair into its own address space
    /// (ASIDs `1..=n`, all sharing one virtual layout recipe so spaces
    /// deliberately alias) and boots process 0 onto a machine built
    /// from `cfg`. `shared_got_pair` marks two processes as mapping one
    /// physical GOT page; their GOT bytes are mirrored from the
    /// departing process to its partner at every switch.
    ///
    /// Performance counters are reset after boot, so the boot swap does
    /// not count toward switch-flush totals.
    ///
    /// # Errors
    ///
    /// Propagates loader and memory-mapping failures; rejects an empty
    /// process list or bad pair indices via [`SystemError::NoModules`].
    pub fn new(
        procs: Vec<(Vec<ModuleSpec>, LinkOptions)>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
    ) -> Result<Self, SystemError> {
        Self::new_with_cores(procs, cfg, shared_got_pair, 1)
    }

    /// [`MultiProcessSystem::new`] over a machine with `cores` cores.
    /// Process `p` is pinned to core `p % cores`; a switch that resumes
    /// a process on a core where it stayed resident is warm (nothing is
    /// flushed), so with the coherence bus disabled a remote rebind can
    /// leave a resident core's ABTB stale — the cross-core divergence
    /// the difftest `--cores` axis hunts.
    ///
    /// # Errors
    ///
    /// As [`MultiProcessSystem::new`]; additionally rejects `cores ==
    /// 0` via [`SystemError::NoModules`].
    pub fn new_with_cores(
        procs: Vec<(Vec<ModuleSpec>, LinkOptions)>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
        cores: usize,
    ) -> Result<Self, SystemError> {
        Self::new_with_cores_prelink(procs, cfg, shared_got_pair, cores, Vec::new())
    }

    /// [`MultiProcessSystem::new_with_cores`] in the `Prelink` start
    /// mode: `prelink[p]`, when present, is a serialized resolution
    /// snapshot restored into process `p` right after boot (fingerprint
    /// and validation rules as in `System::restore_snapshot`; fallback
    /// to lazy on mismatch). Query
    /// [`MultiProcessSystem::prelink_outcome_of`] for what each restore
    /// did.
    ///
    /// # Errors
    ///
    /// As [`MultiProcessSystem::new_with_cores`]; additionally
    /// propagates memory faults from restoring a snapshot with
    /// validation off.
    pub fn new_with_cores_prelink(
        procs: Vec<(Vec<ModuleSpec>, LinkOptions)>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
        cores: usize,
        prelink: Vec<Option<ResolutionSnapshot>>,
    ) -> Result<Self, SystemError> {
        if procs.is_empty() || cores == 0 {
            return Err(SystemError::NoModules);
        }
        if let Some((a, b)) = shared_got_pair {
            if a >= procs.len() || b >= procs.len() || a == b {
                return Err(SystemError::NoModules);
            }
        }
        let mut contexts = Vec::with_capacity(procs.len());
        let mut processes = Vec::with_capacity(procs.len());
        for (i, (specs, opts)) in procs.iter().enumerate() {
            let mut space = AddressSpace::new(i as u64 + 1);
            let image = Loader::new(*opts).load(specs, "main", &mut space)?;
            contexts.push(ProcessContext::new(
                space,
                image.entry(),
                STACK_TOP,
                STACK_BYTES,
            )?);
            processes.push(Process::new(Arc::new(image), *opts));
        }
        Self::assemble(contexts, processes, cfg, shared_got_pair, cores, prelink)
    }

    /// Spawns a *fleet* of tenant processes from class templates and
    /// boots it like [`MultiProcessSystem::new_with_cores`].
    ///
    /// Each [`crate::arena::TenantClass`] is loaded **once** into a
    /// template address space; its tenants are
    /// [`AddressSpace::fork_shared_code`] forks of that template, so
    /// thousands of tenants share one set of COW pages, one
    /// [`ProcessImage`], and — until a tenant's code state diverges —
    /// one fetch-side predecode/superblock identity. Tenants are
    /// numbered class-major (`class 0`'s tenants first) with ASIDs
    /// `1..=n`, exactly the deliberate ASID-aliasing layout of the
    /// per-process constructors; `stack_bytes` is configurable because
    /// a thousand default 1 MiB stacks would dwarf the text they run.
    ///
    /// # Errors
    ///
    /// As [`MultiProcessSystem::new_with_cores`]; additionally rejects
    /// an empty class list or a class with zero tenants.
    pub fn new_fleet(
        classes: &[crate::arena::TenantClass],
        cfg: MachineConfig,
        cores: usize,
        stack_bytes: u64,
    ) -> Result<Self, SystemError> {
        if cores == 0 {
            return Err(SystemError::NoModules);
        }
        let (contexts, procs) = ProcessArena::build(classes, stack_bytes)?;
        Self::assemble(contexts, procs, cfg, None, cores, Vec::new())
    }

    /// Boots a machine over fully loaded processes (`contexts[i]` holds
    /// process `i`'s space and thread): wires the resolver, hands
    /// process 0's space/thread to the machine, and applies any
    /// boot-time prelink restores.
    fn assemble(
        mut contexts: Vec<ProcessContext>,
        procs: Vec<Process>,
        cfg: MachineConfig,
        shared_got_pair: Option<(usize, usize)>,
        cores: usize,
        prelink: Vec<Option<ResolutionSnapshot>>,
    ) -> Result<Self, SystemError> {
        let n = procs.len();
        let mut module_refs: HashMap<String, usize> = HashMap::new();
        for p in &procs {
            for m in p.image.modules() {
                *module_refs.entry(m.name.clone()).or_insert(0) += 1;
            }
        }
        let mut machine = MachineBuilder::new(cfg)
            .cores(cores)
            .build(AddressSpace::new(0));
        let telemetry = Arc::new(Mutex::new(TelemetryWriter::new()));
        let resolver_target = wire_resolver(&mut machine, &procs, &telemetry);

        // Boot: hand process 0's address space to the machine (its
        // context slot now parks the placeholder space), load its
        // thread state onto core 0, and neutralise the boot switch's
        // counter effects.
        machine.swap_space_with(contexts[0].space_mut());
        machine.load_thread(0, &contexts[0]);
        machine.set_active_core(0);
        machine.core_context_switch(0);
        machine.set_plt_ranges(procs[0].image.plt_ranges());
        machine.reset_counters();
        machine.take_marks();
        let mut resident = vec![None; cores];
        resident[0] = Some(0);

        let mut mps = MultiProcessSystem {
            machine,
            procs,
            contexts,
            resolver_target,
            telemetry,
            shared_got_pair,
            active: 0,
            switches: 0,
            resident,
            thread_switches: 0,
            thread_switches_per_core: vec![0; cores],
            marks_per_proc: vec![0; n],
            module_refs,
        };
        for (p, snap) in prelink.iter().enumerate().take(n) {
            if let Some(snap) = snap {
                let outcome = mps.restore_snapshot_for(p, snap)?;
                mps.procs[p].prelink_outcome = Some(outcome);
            }
        }
        Ok(mps)
    }

    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.contexts.len()
    }

    /// Index of the active process.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Context switches performed so far (excluding boot).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Number of cores on the underlying machine.
    pub fn core_count(&self) -> usize {
        self.machine.core_count()
    }

    /// Displacements so far: switches that landed a process on a core
    /// which last ran a *different* process, flushing per the core's
    /// policy. Equal to [`MultiProcessSystem::switches`] on one core.
    pub fn thread_switches(&self) -> u64 {
        self.thread_switches
    }

    /// Displacements of core `core`.
    pub fn thread_switches_of(&self, core: usize) -> u64 {
        self.thread_switches_per_core[core]
    }

    /// Process `p`'s image.
    pub fn image(&self, p: usize) -> &ProcessImage {
        &self.procs[p].image
    }

    /// The underlying machine (which holds the *active* process).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (fault injection, raw writes).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Marks retired by process `p` so far.
    pub fn marks_of(&self, p: usize) -> u64 {
        self.marks_per_proc[p]
    }

    /// Whether process `p` has halted. The active process's flag lives
    /// on the machine; suspended processes carry their own.
    pub fn halted(&self, p: usize) -> bool {
        if p == self.active {
            self.machine.halted()
        } else {
            self.contexts[p].halted()
        }
    }

    /// Snapshot of the machine-wide performance counters (the sum over
    /// cores).
    pub fn counters(&self) -> PerfCounters {
        self.machine.counters()
    }

    /// Snapshot of core `core`'s performance counters.
    pub fn counters_for(&self, core: usize) -> PerfCounters {
        self.machine.counters_for(core)
    }

    fn drain_marks(&mut self) {
        self.marks_per_proc[self.active] += self.machine.take_marks().len() as u64;
    }

    /// See `MultiOracle::mirror_shared_got_from_active`: copies the
    /// pair's GOT bytes from the active process (on the machine) into
    /// its suspended partner, modelling one shared physical GOT page.
    /// A raw copy — the store that changed the bytes already went
    /// through the machine's coherence machinery when it retired.
    fn mirror_shared_got_from_active(&mut self) {
        let Some((a, b)) = self.shared_got_pair else {
            return;
        };
        let partner = match self.active {
            p if p == a => b,
            p if p == b => a,
            _ => return,
        };
        let mut blocks: Vec<(VirtAddr, Vec<u8>)> = Vec::new();
        for m in self.procs[self.active].image.modules() {
            if m.got_len == 0 {
                continue;
            }
            let mut buf = vec![0u8; m.got_len as usize];
            if self
                .machine
                .space()
                .read_bytes(m.got_base, &mut buf)
                .is_ok()
            {
                blocks.push((m.got_base, buf));
            }
        }
        for (base, buf) in blocks {
            let _ = self.contexts[partner].space_mut().write_bytes(base, &buf);
        }
    }

    /// Switches execution to process `p` (on its pinned core `p %
    /// cores`). Out-of-range targets and switches to the already-active
    /// process are no-ops returning `false` — the same rule as the
    /// oracle, so shrunk schedules stay comparable. Mirrors the shared
    /// GOT out of the departing process first, then parks the departing
    /// thread and its space, loads the incoming thread onto its core,
    /// and repoints trampoline classification and the resolver dispatch
    /// at the incoming process. Structures are flushed (per the core's
    /// §3.3 policy) only when the incoming thread *displaces* a
    /// different resident thread; a warm resume flushes nothing.
    pub fn switch_to(&mut self, p: usize) -> bool {
        if p == self.active || p >= self.contexts.len() {
            return false;
        }
        self.drain_marks();
        self.mirror_shared_got_from_active();
        let old = self.active;
        let ncores = self.machine.core_count();
        let (old_core, new_core) = (old % ncores, p % ncores);
        // Park the departing thread's architectural state and hand its
        // address space back to its own context slot (which was parking
        // the placeholder space).
        self.machine.park_thread(old_core, &mut self.contexts[old]);
        self.machine.swap_space_with(self.contexts[old].space_mut());
        // Pull the incoming thread's space onto the machine (its slot
        // now parks the placeholder) and its state onto its core.
        self.machine.swap_space_with(self.contexts[p].space_mut());
        self.machine.load_thread(new_core, &self.contexts[p]);
        self.machine.set_active_core(new_core);
        if self.resident[new_core] != Some(p) {
            self.machine.core_context_switch(new_core);
            self.thread_switches += 1;
            self.thread_switches_per_core[new_core] += 1;
        }
        self.resident[new_core] = Some(p);
        let ranges = self.procs[p].image.plt_ranges().to_vec();
        self.machine.set_plt_ranges(&ranges);
        self.active = p;
        self.switches += 1;
        self.resolver_target.store(p, Ordering::Relaxed);
        true
    }

    /// Runs the active process until *its* total mark count reaches
    /// `at_mark` (no-op if already there, or halted), mirroring
    /// `MultiOracle::run_active_until_marks`.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn run_active_until_marks(
        &mut self,
        at_mark: u64,
        max_instructions: u64,
    ) -> Result<(), CpuError> {
        let needed = at_mark.saturating_sub(self.marks_per_proc[self.active]);
        if needed > 0 {
            self.machine
                .run_until_marks(needed as usize, max_instructions)?;
        }
        self.drain_marks();
        Ok(())
    }

    /// Runs the active process until halt or budget exhaustion.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn run_active(&mut self, max_instructions: u64) -> Result<(), CpuError> {
        self.machine.run(max_instructions)?;
        self.drain_marks();
        Ok(())
    }

    /// Explicitly clears the ABTB (§3.4 software invalidate).
    pub fn invalidate_abtb(&mut self) {
        self.machine.invalidate_abtb();
    }

    /// `System::unbind_library` scoped to the active process. On a
    /// multi-core machine the store notifications reach remote cores
    /// only through the coherence bus, so disabling `coherence_bus`
    /// leaves resident remote ABTBs stale.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `victim` is not loaded.
    pub fn unbind_active(&mut self, victim: &str) -> Result<u64, SystemError> {
        self.procs[self.active].unbind(&mut self.machine, victim)
    }

    /// `System::rebind_symbol` scoped to the active process.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] / [`SystemError::UnknownSymbol`]
    /// when the provider or symbol is missing.
    pub fn rebind_active(&mut self, symbol: &str, provider: &str) -> Result<u64, SystemError> {
        self.procs[self.active].rebind(&mut self.machine, symbol, provider)
    }

    /// Open-reference count of module `name` across all processes.
    pub fn module_refs(&self, name: &str) -> usize {
        self.module_refs.get(name).copied().unwrap_or(0)
    }

    /// `System::dlclose` scoped to the active process, with the module
    /// refcounted across processes: the closing process's mapping of
    /// the code pages is torn down, but the module counts as
    /// garbage-collected only when the last reference drops. The
    /// [`MachineConfig::demand_invalidate`] shootdown mints a fresh
    /// predecode identity for the *active* space only; suspended
    /// processes keep theirs, so their pages stay warm.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `victim` is not loaded in
    /// the active process.
    pub fn dlclose_active(&mut self, victim: &str) -> Result<u64, SystemError> {
        let refs = &mut self.module_refs;
        self.procs[self.active].dlclose(&mut self.machine, victim, || {
            let n = refs.get_mut(victim).expect("loaded module is refcounted");
            *n -= 1;
            *n == 0
        })
    }

    /// `System::dlreopen` scoped to the active process; a reopen takes
    /// a fresh process-level reference.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `name` was never loaded in
    /// the active process.
    pub fn reopen_active(&mut self, name: &str) -> Result<bool, SystemError> {
        let reopened = self.procs[self.active].reopen(&mut self.machine, name)?;
        if reopened {
            *self
                .module_refs
                .get_mut(name)
                .expect("loaded module is refcounted") += 1;
        }
        Ok(reopened)
    }

    /// `System::evict_lib_page` scoped to the active process.
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownModule`] when `lib` is not loaded in the
    /// active process.
    pub fn evict_active_page(&mut self, lib: &str, page: u64) -> Result<bool, SystemError> {
        self.procs[self.active].evict_page(&mut self.machine, lib, page)
    }

    /// `System::capture_snapshot` for process `p`.
    pub fn capture_snapshot_of(&self, p: usize) -> ResolutionSnapshot {
        self.procs[p].capture_snapshot()
    }

    /// `System::restore_snapshot` into process `p`. A suspended
    /// process's GOT writes go straight into its parked address space,
    /// with no broadcast and no ABTB invalidate.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from GOT writes.
    pub fn restore_snapshot_for(
        &mut self,
        p: usize,
        snapshot: &ResolutionSnapshot,
    ) -> Result<RestoreOutcome, SystemError> {
        let parked = if p == self.active {
            None
        } else {
            Some(self.contexts[p].space_mut())
        };
        self.procs[p].restore_snapshot(&mut self.machine, parked, &self.telemetry, snapshot)
    }

    /// `System::prelink_restore_self` for the active process.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from GOT writes.
    pub fn prelink_restore_active(&mut self) -> Result<RestoreOutcome, SystemError> {
        self.procs[self.active].restore_self(&mut self.machine, &self.telemetry)
    }

    /// What process `p`'s boot-time prelink restore did, when this
    /// system was built via
    /// [`MultiProcessSystem::new_with_cores_prelink`].
    pub fn prelink_outcome_of(&self, p: usize) -> Option<RestoreOutcome> {
        self.procs[p].prelink_outcome
    }

    /// Drains the resolution telemetry collected so far, in event order
    /// across all processes.
    pub fn take_resolution_telemetry(&mut self) -> Vec<ResolutionRecord> {
        lock_recovering(&self.telemetry).take()
    }

    /// Reads a register of process `p` (from the machine when active,
    /// from its parked context otherwise).
    pub fn reg_of(&self, p: usize, r: Reg) -> u64 {
        if p == self.active {
            self.machine.reg(r)
        } else {
            self.contexts[p].reg(r)
        }
    }

    /// Program counter of process `p`.
    pub fn pc_of(&self, p: usize) -> VirtAddr {
        if p == self.active {
            self.machine.pc()
        } else {
            self.contexts[p].pc()
        }
    }

    /// Address space of process `p` (the machine's when active, the
    /// parked context's otherwise). Together with [`Self::reg_of`],
    /// [`Self::pc_of`] and [`Self::halted`] this gives the difftest
    /// harness everything `ArchDigest::capture` needs per process,
    /// without `dynlink-core` depending on the oracle crate.
    pub fn space_of(&self, p: usize) -> &AddressSpace {
        if p == self.active {
            self.machine.space()
        } else {
            self.contexts[p].space()
        }
    }
}

impl std::fmt::Debug for MultiProcessSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiProcessSystem")
            .field("n_procs", &self.n_procs())
            .field("active", &self.active)
            .field("switches", &self.switches)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_isa::Inst;
    use dynlink_linker::{LinkMode, ModuleBuilder};

    fn counting_proc(n: u64, delta: u64) -> (Vec<ModuleSpec>, LinkOptions) {
        let mut lib = ModuleBuilder::new("libinc");
        lib.begin_function("inc", true);
        lib.asm().push(Inst::add_imm(Reg::R0, delta));
        lib.asm().push(Inst::Ret);
        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        let top = app.asm().fresh_label("top");
        app.asm().push(Inst::mov_imm(Reg::R2, n));
        app.asm().bind(top);
        app.asm().push(Inst::Mark { id: 0 });
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::sub_imm(Reg::R2, 1));
        app.asm().push_branch_nz(Reg::R2, top);
        app.asm().push(Inst::Halt);
        let opts = LinkOptions {
            mode: LinkMode::DynamicLazy,
            ..LinkOptions::default()
        };
        (vec![app.finish().unwrap(), lib.finish().unwrap()], opts)
    }

    #[test]
    fn interleaved_processes_compute_independently() {
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(6, 1), counting_proc(4, 10)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(3, 100_000).unwrap();
        assert_eq!(mps.marks_of(0), 3);
        assert!(mps.switch_to(1));
        mps.run_active_until_marks(2, 100_000).unwrap();
        assert!(mps.switch_to(0));
        mps.run_active(100_000).unwrap();
        assert!(mps.switch_to(1));
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0) && mps.halted(1));
        assert_eq!(mps.reg_of(0, Reg::R0), 6);
        assert_eq!(mps.reg_of(1, Reg::R0), 40);
        assert_eq!(mps.switches(), 3);
    }

    #[test]
    fn switch_flush_accounting_matches_policy() {
        // Flush-on-switch: every switch flushes; boot swap excluded.
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(4, 1), counting_proc(4, 1)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        assert_eq!(mps.counters().abtb_switch_flushes, 0, "boot excluded");
        mps.run_active_until_marks(2, 100_000).unwrap();
        mps.switch_to(1);
        mps.run_active(100_000).unwrap();
        mps.switch_to(0);
        mps.run_active(100_000).unwrap();
        assert_eq!(mps.counters().abtb_switch_flushes, mps.switches());

        // ASID-tagged: switches never flush.
        let mut cfg = MachineConfig::enhanced();
        cfg.flush_abtb_on_context_switch = false;
        let mut mps =
            MultiProcessSystem::new(vec![counting_proc(4, 1), counting_proc(4, 1)], cfg, None)
                .unwrap();
        mps.run_active_until_marks(2, 100_000).unwrap();
        mps.switch_to(1);
        mps.run_active(100_000).unwrap();
        mps.switch_to(0);
        mps.run_active(100_000).unwrap();
        assert!(mps.switches() > 0);
        assert_eq!(mps.counters().abtb_switch_flushes, 0);
    }

    #[test]
    fn resolver_dispatches_to_the_active_processes_table() {
        // Identical layouts mean identical stub keys; each process must
        // still resolve against its own table and compute its own sum.
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(5, 1), counting_proc(5, 100)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(2, 100_000).unwrap();
        mps.switch_to(1);
        mps.run_active(100_000).unwrap();
        mps.switch_to(0);
        mps.run_active(100_000).unwrap();
        assert_eq!(mps.reg_of(0, Reg::R0), 5);
        assert_eq!(mps.reg_of(1, Reg::R0), 500);
        assert_eq!(mps.counters().resolver_invocations, 2, "one per process");
    }

    #[test]
    fn warm_resume_keeps_a_resident_core_trained() {
        // Bus off so process 1's own resolver store (layouts alias, so
        // its GOT slot VA matches process 0's) cannot conservatively
        // wipe core 0's Bloom mid-test.
        let mut cfg = MachineConfig::enhanced();
        cfg.coherence_bus = false;
        let mut mps = MultiProcessSystem::new_with_cores(
            vec![counting_proc(6, 1), counting_proc(6, 10)],
            cfg,
            None,
            2,
        )
        .unwrap();
        assert_eq!(mps.core_count(), 2);
        mps.run_active_until_marks(4, 100_000).unwrap();
        assert!(mps.machine().abtb_len() > 0, "core 0 trained");
        assert!(mps.switch_to(1)); // displaces core 1 (first use)
        mps.run_active_until_marks(2, 100_000).unwrap();
        assert!(mps.switch_to(0)); // warm resume on core 0
        assert!(mps.machine().abtb_len() > 0, "warm resume kept the ABTB");
        mps.run_active(100_000).unwrap();
        assert!(mps.switch_to(1)); // warm resume on core 1
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0) && mps.halted(1));
        assert_eq!(mps.reg_of(0, Reg::R0), 6);
        assert_eq!(mps.reg_of(1, Reg::R0), 60);
        assert_eq!(mps.switches(), 3);
        assert_eq!(mps.thread_switches(), 1, "only the first switch displaced");
        assert_eq!(mps.thread_switches_of(0), 0);
        assert_eq!(mps.thread_switches_of(1), 1);
        assert_eq!(mps.counters().abtb_switch_flushes, mps.thread_switches());
    }

    #[test]
    fn remote_rebind_reaches_a_resident_core_only_via_the_bus() {
        for bus in [true, false] {
            let mut cfg = MachineConfig::enhanced();
            cfg.coherence_bus = bus;
            let mut mps = MultiProcessSystem::new_with_cores(
                vec![counting_proc(8, 1), counting_proc(8, 1)],
                cfg,
                Some((0, 1)),
                2,
            )
            .unwrap();
            // Train process 0's ABTB on core 0, then leave it resident.
            mps.run_active_until_marks(4, 100_000).unwrap();
            assert!(mps.machine().abtb_len() > 0);
            assert!(mps.switch_to(1));
            mps.run_active_until_marks(2, 100_000).unwrap();
            // Process 1 rebinds; the layouts alias, so the rewritten GOT
            // slot address is exactly the one core 0's Bloom watches.
            // (Delta across the rebind: a core's *own* resolver stores
            // can self-hit its Bloom earlier, bus or no bus.)
            let before = mps.counters_for(0).abtb_coherence_flushes;
            let n = mps.rebind_active("inc", "libinc").unwrap();
            assert!(n > 0);
            let delta = mps.counters_for(0).abtb_coherence_flushes - before;
            if bus {
                assert!(
                    delta >= 1,
                    "the bus delivered the rebind to the resident core"
                );
            } else {
                assert_eq!(delta, 0, "bus off: the resident core was left stale");
            }
        }
    }

    #[test]
    fn dlclose_refcounts_across_processes() {
        // Both processes load `libinc`; closing it in process 0 must
        // not count as a GC (process 1 still holds it), and process 1
        // keeps running out of its own warm mapping.
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(6, 1), counting_proc(6, 10)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        assert_eq!(mps.module_refs("libinc"), 2);
        mps.run_active_until_marks(3, 100_000).unwrap();
        mps.dlclose_active("libinc").unwrap();
        assert_eq!(mps.module_refs("libinc"), 1);
        assert_eq!(
            mps.counters().modules_gcd,
            0,
            "another process still references the module"
        );
        // The suspended process's pages were untouched by the close.
        let resident_before = mps.space_of(1).resident_code_pages();
        assert!(resident_before > 0);
        assert!(mps.switch_to(1));
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(1));
        assert_eq!(mps.reg_of(1, Reg::R0), 60);

        // The last reference dropping is the GC.
        mps.dlclose_active("libinc").unwrap();
        assert_eq!(mps.module_refs("libinc"), 0);
        assert_eq!(mps.counters().modules_gcd, 1);

        // Reopening takes a fresh reference and restores resolution.
        assert!(mps.reopen_active("libinc").unwrap());
        assert_eq!(mps.module_refs("libinc"), 1);
        assert!(
            !mps.reopen_active("libinc").unwrap(),
            "reopen is idempotent"
        );
    }

    #[test]
    fn close_continues_via_shadow_and_double_close_is_noop() {
        // Process 0's app imports `inc` provided by both libinc and a
        // shadow copy; after dlclose(libinc) mid-run the next stub fire
        // must land in the shadow.
        let proc_with_shadow = |n: u64| {
            let (mut specs, opts) = counting_proc(n, 1);
            let mut shadow = ModuleBuilder::new("libshadow");
            shadow.begin_function("inc", true);
            shadow.asm().push(Inst::add_imm(Reg::R0, 1000));
            shadow.asm().push(Inst::Ret);
            specs.push(shadow.finish().unwrap());
            (specs, opts)
        };
        let mut mps = MultiProcessSystem::new(
            vec![proc_with_shadow(6), counting_proc(2, 1)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(3, 100_000).unwrap();
        let n = mps.dlclose_active("libinc").unwrap();
        assert!(n >= 1, "the bound GOT slot was re-armed");
        assert_eq!(mps.dlclose_active("libinc").unwrap(), 0, "double close");
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0));
        // Each mark retires just before its iteration's call, so the
        // stop at mark 3 leaves 2 calls through libinc (+1 each) and 4
        // through the shadow (+1000 each).
        assert_eq!(mps.reg_of(0, Reg::R0), 2 + 4 * 1000);
    }

    #[test]
    fn evict_active_page_is_transparent() {
        let mut mps = MultiProcessSystem::new(
            vec![counting_proc(6, 1), counting_proc(2, 1)],
            MachineConfig::enhanced(),
            None,
        )
        .unwrap();
        mps.run_active_until_marks(3, 100_000).unwrap();
        assert!(mps.evict_active_page("libinc", 0).unwrap());
        mps.run_active(100_000).unwrap();
        assert!(mps.halted(0));
        assert_eq!(mps.reg_of(0, Reg::R0), 6);
        assert_eq!(mps.counters().demand_faults_in, 1);
        assert_eq!(mps.counters().demand_faults_out, 1);
        assert!(matches!(
            mps.evict_active_page("nope", 0),
            Err(SystemError::UnknownModule { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_bad_pairs() {
        assert!(MultiProcessSystem::new(vec![], MachineConfig::baseline(), None).is_err());
        assert!(MultiProcessSystem::new(
            vec![counting_proc(1, 1), counting_proc(1, 1)],
            MachineConfig::baseline(),
            Some((0, 0)),
        )
        .is_err());
        assert!(MultiProcessSystem::new(
            vec![counting_proc(1, 1), counting_proc(1, 1)],
            MachineConfig::baseline(),
            Some((0, 5)),
        )
        .is_err());
    }
}
