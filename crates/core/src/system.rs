//! The `System`: one loaded process on its own simulated machine.

use std::sync::{Arc, Mutex};

use dynlink_cpu::{CpuError, LinkAccel, Machine, MachineConfig, MarkEvent, RunExit};
use dynlink_isa::Reg;
use dynlink_linker::{
    apply_call_site_patches, LinkMode, LinkOptions, Loader, ModuleSpec, ProcessImage,
    ResolutionSnapshot, RestoreOutcome, SnapshotBuilder, TrampolineFlavor,
};
use dynlink_mem::layout::{LibraryPlacement, STACK_TOP};
use dynlink_mem::{AddressSpace, MemStats};
use dynlink_trace::{lock_recovering, ResolutionRecord, TelemetryWriter};
use dynlink_uarch::PerfCounters;

use crate::process::{wire_resolver, Process, STACK_BYTES};
use crate::SystemError;

/// Builds a [`System`] from module specs and configuration.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Default)]
pub struct SystemBuilder {
    modules: Vec<ModuleSpec>,
    link: LinkOptions,
    machine: MachineConfig,
    /// Recorded separately from `machine` so setter order can't matter:
    /// `accel(..)` and `machine_config(..)` are merged in [`Self::build`].
    accel: Option<LinkAccel>,
    entry_symbol: String,
    asid: u64,
    /// A serialized resolution snapshot to restore at process start
    /// (the `Prelink` start mode).
    prelink: Option<ResolutionSnapshot>,
}

impl SystemBuilder {
    /// Creates a builder with default options (lazy dynamic linking, far
    /// library placement, baseline machine, entry at `main`).
    pub fn new() -> Self {
        SystemBuilder {
            modules: Vec::new(),
            link: LinkOptions::default(),
            machine: MachineConfig::baseline(),
            accel: None,
            entry_symbol: "main".to_owned(),
            asid: 1,
            prelink: None,
        }
    }

    /// Adds a module (the first module is the executable).
    pub fn module(mut self, spec: ModuleSpec) -> Self {
        self.modules.push(spec);
        self
    }

    /// Adds several modules at once.
    pub fn modules(mut self, specs: impl IntoIterator<Item = ModuleSpec>) -> Self {
        self.modules.extend(specs);
        self
    }

    /// Sets the linking mode.
    pub fn link_mode(mut self, mode: LinkMode) -> Self {
        self.link.mode = mode;
        self
    }

    /// Sets the accelerator (baseline, ABTB, or ABTB-without-Bloom).
    ///
    /// Order-independent with respect to [`Self::machine_config`]: the
    /// accelerator chosen here wins regardless of which setter ran
    /// first.
    pub fn accel(mut self, accel: LinkAccel) -> Self {
        self.accel = Some(accel);
        self
    }

    /// Sets the library placement (near/far).
    pub fn placement(mut self, placement: LibraryPlacement) -> Self {
        self.link.placement = placement;
        self
    }

    /// Enables ASLR with the given seed.
    pub fn aslr_seed(mut self, seed: u64) -> Self {
        self.link.aslr_seed = Some(seed);
        self
    }

    /// Sets the trampoline flavour (x86 or ARM).
    pub fn trampoline_flavor(mut self, flavor: TrampolineFlavor) -> Self {
        self.link.flavor = flavor;
        self
    }

    /// Sets the ifunc hardware level (§2.4.1).
    pub fn hw_level(mut self, level: usize) -> Self {
        self.link.hw_level = level;
        self
    }

    /// Enables demand paging of library code (honoured under lazy
    /// dynamic linking): code pages are registered but faulted in only
    /// on first fetch.
    pub fn demand_paging(mut self, on: bool) -> Self {
        self.link.demand_paging = on;
        self
    }

    /// Replaces the machine configuration (cache sizes, ABTB capacity,
    /// penalties, ...).
    ///
    /// An accelerator chosen via [`Self::accel`] is merged back in at
    /// [`Self::build`] time, so `accel(..).machine_config(..)` and
    /// `machine_config(..).accel(..)` produce the same system.
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.machine = cfg;
        self
    }

    /// Overrides the entry symbol (default `main`).
    pub fn entry_symbol(mut self, symbol: &str) -> Self {
        self.entry_symbol = symbol.to_owned();
        self
    }

    /// Sets the address-space ID (relevant for ASID-tagged structures).
    pub fn asid(mut self, asid: u64) -> Self {
        self.asid = asid;
        self
    }

    /// Starts the process in `Prelink` mode: the given resolution
    /// snapshot is restored immediately after load (see
    /// [`System::restore_snapshot`] for the fingerprint and validation
    /// rules), so warm imports skip the lazy resolver entirely. Query
    /// [`System::prelink_outcome`] for what the restore did.
    pub fn prelink_snapshot(mut self, snapshot: ResolutionSnapshot) -> Self {
        self.prelink = Some(snapshot);
        self
    }

    /// Links, loads and wires up the system.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::NoModules`] for an empty module list, or a
    /// wrapped [`dynlink_linker::LinkError`] from loading.
    pub fn build(self) -> Result<System, SystemError> {
        if self.modules.is_empty() {
            return Err(SystemError::NoModules);
        }
        let mut machine_cfg = self.machine;
        if let Some(accel) = self.accel {
            machine_cfg.accel = accel;
        }
        let mut space = AddressSpace::new(self.asid);
        let image = Loader::new(self.link).load(&self.modules, &self.entry_symbol, &mut space)?;
        let mut machine = Machine::new(machine_cfg, space);
        machine.set_plt_ranges(image.plt_ranges());
        machine.init_stack(STACK_TOP, STACK_BYTES)?;
        machine.reset(image.entry());

        let mut process = Process::new(Arc::new(image), self.link);
        let telemetry = Arc::new(Mutex::new(TelemetryWriter::new()));
        wire_resolver(&mut machine, std::slice::from_ref(&process), &telemetry);
        if let Some(snapshot) = self.prelink {
            let outcome = process.restore_snapshot(&mut machine, None, &telemetry, &snapshot)?;
            process.prelink_outcome = Some(outcome);
        }
        Ok(System {
            machine,
            process,
            telemetry,
        })
    }
}

/// A loaded, runnable simulated process.
///
/// Construct with [`SystemBuilder`]. Owns the [`Machine`] and the
/// process running on it; exposes run control, counters, request marks,
/// and the dynamic-linking runtime operations the paper discusses (GOT
/// unbinding for library unload, symbol rebinding for library upgrade,
/// call-site patching for the §4.3 software emulation).
pub struct System {
    machine: Machine,
    process: Process,
    /// Resolution telemetry stream (one record per resolution event).
    telemetry: Arc<Mutex<TelemetryWriter>>,
}

impl System {
    /// Runs until `halt` or the instruction budget is exhausted.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn run(&mut self, max_instructions: u64) -> Result<RunExit, CpuError> {
        self.machine.run(max_instructions)
    }

    /// Runs until at least `target_marks` marks have been recorded (see
    /// [`dynlink_cpu::Machine::run_until_marks`]).
    ///
    /// # Errors
    ///
    /// Propagates CPU faults.
    pub fn run_until_marks(
        &mut self,
        target_marks: usize,
        max_instructions: u64,
    ) -> Result<RunExit, CpuError> {
        self.machine.run_until_marks(target_marks, max_instructions)
    }

    /// Restarts execution at the image entry point (state such as
    /// registers and memory is *not* reset; use for request loops that
    /// re-enter `main`).
    pub fn restart(&mut self) {
        let entry = self.process.image.entry();
        self.machine.reset(entry);
    }

    /// Snapshot of the performance counters.
    pub fn counters(&self) -> PerfCounters {
        self.machine.counters()
    }

    /// Resets performance counters keeping microarchitectural state warm
    /// (exclude warmup from steady-state measurements).
    pub fn reset_counters(&mut self) {
        self.machine.reset_counters();
    }

    /// Memory statistics of the simulated address space.
    pub fn mem_stats(&self) -> MemStats {
        self.machine.space().stats()
    }

    /// Drains recorded request marks.
    pub fn take_marks(&mut self) -> Vec<MarkEvent> {
        self.machine.take_marks()
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.machine.reg(r)
    }

    /// Writes a register (harness-level argument passing).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.machine.set_reg(r, value);
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine (observers, context
    /// switches, ...).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The loaded process image.
    pub fn image(&self) -> &ProcessImage {
        &self.process.image
    }

    /// Simulates a context switch (and switch back): flushes the
    /// untagged front-end structures and, per configuration, the ABTB.
    pub fn context_switch(&mut self) {
        self.machine.context_switch();
    }

    /// Forks the process's address space copy-on-write (the prefork
    /// server model of §5.5). The returned space shares every page with
    /// this system until either side writes.
    pub fn fork_space(&self, child_asid: u64) -> AddressSpace {
        self.machine.space().fork(child_asid)
    }

    /// Applies the §4.3 software emulation to the *running* image:
    /// patches every library-call site into a direct call. Returns the
    /// number of sites patched.
    ///
    /// # Errors
    ///
    /// Fails if targets are out of rel32 range (far placement) or text
    /// pages are not writable.
    pub fn patch_call_sites(&mut self) -> Result<u64, SystemError> {
        let n = apply_call_site_patches(&self.process.image, self.machine.space_mut())?;
        Ok(n)
    }

    /// Loads one more module into the running process — `dlopen(3)`.
    ///
    /// The new module's imports resolve against the already-loaded
    /// modules (and itself); its lazy bindings join the live resolution
    /// table; the machine's trampoline classification is refreshed.
    /// Combine with [`System::rebind_symbol`] to route existing symbols
    /// to the new module (a hot library upgrade).
    ///
    /// # Examples
    ///
    /// ```
    /// # use dynlink_core::SystemBuilder;
    /// # use dynlink_isa::{Inst, Reg};
    /// # use dynlink_linker::ModuleBuilder;
    /// # fn lib(name: &str, delta: u64) -> dynlink_linker::ModuleSpec {
    /// #     let mut m = ModuleBuilder::new(name);
    /// #     m.begin_function("inc", true);
    /// #     m.asm().push(Inst::add_imm(Reg::R0, delta));
    /// #     m.asm().push(Inst::Ret);
    /// #     m.finish().unwrap()
    /// # }
    /// # let mut app = ModuleBuilder::new("app");
    /// # let inc = app.import("inc");
    /// # app.begin_function("main", true);
    /// # app.asm().push_call_extern(inc);
    /// # app.asm().push(Inst::Halt);
    /// let mut system = SystemBuilder::new()
    ///     .module(app.finish()?)
    ///     .module(lib("libv1", 1))
    ///     .build()?;
    /// system.run(10_000)?;
    ///
    /// // Hot-upgrade: load v2 at run time and rebind the symbol.
    /// system.dlopen(lib("libv2", 100))?;
    /// system.rebind_symbol("inc", "libv2")?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Fails on duplicate module names, unresolved imports or mapping
    /// errors.
    pub fn dlopen(&mut self, spec: ModuleSpec) -> Result<(), SystemError> {
        let p = &mut self.process;
        let image = Arc::make_mut(&mut p.image);
        let bindings =
            Loader::new(p.link).load_additional(image, &spec, self.machine.space_mut())?;
        p.bindings().table.push_module(bindings);
        self.machine.set_plt_ranges(p.image.plt_ranges());
        Ok(())
    }

    /// Unbinds every GOT slot currently resolved into `victim`,
    /// rewriting it back to its lazy stub (the `dlclose` scenario §4
    /// notes the software emulation cannot support but the hardware
    /// can). Each rewrite is reported to the machine as an external
    /// store so the Bloom filter can flush the ABTB.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::UnknownModule`] if `victim` is not loaded.
    pub fn unbind_library(&mut self, victim: &str) -> Result<u64, SystemError> {
        self.process.unbind(&mut self.machine, victim)
    }

    /// Rebinds `symbol` to the copy exported by `provider` (a library
    /// upgrade without restarting): rewrites every importing module's
    /// GOT slot and the lazy-resolution table, notifying the machine of
    /// each external store.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::UnknownModule`] /
    /// [`SystemError::UnknownSymbol`] when the provider or symbol is
    /// missing.
    pub fn rebind_symbol(&mut self, symbol: &str, provider: &str) -> Result<u64, SystemError> {
        self.process.rebind(&mut self.machine, symbol, provider)
    }

    /// Closes a module — `dlclose(3)` with module garbage collection.
    ///
    /// Architecturally: every GOT slot bound into `victim` is re-armed
    /// to its lazy stub, and the module stops providing symbols (later
    /// resolutions fall through to the next open provider in
    /// interposition order). Microarchitecturally: the module's code
    /// pages (text, PLT, stubs — never its GOT or data) are unmapped,
    /// and, when [`MachineConfig::demand_invalidate`] is on, the
    /// front-end state that could still name them (predecode identity,
    /// ABTB, BTB) is invalidated. The GOT rewrites are kernel-side
    /// writes the hardware store snoop cannot see, so they are *not*
    /// broadcast — the GC invalidation is the only thing keeping a warm
    /// ABTB from skipping into the recycled range, which is exactly the
    /// divergence the `demand_invalidate = false` negative control
    /// exposes.
    ///
    /// Closing an already-closed module is a no-op returning `Ok(0)`.
    /// Returns the number of GOT slots re-armed.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::UnknownModule`] if `victim` is not loaded.
    pub fn dlclose(&mut self, victim: &str) -> Result<u64, SystemError> {
        // A lone process holds the only reference: every close is a GC.
        self.process.dlclose(&mut self.machine, victim, || true)
    }

    /// Reopens a previously [`System::dlclose`]d module at its original
    /// virtual addresses — `dlopen(3)` of a cached library. The rebuilt
    /// mapping carries a fresh predecode identity (minted by the GC
    /// invalidation at close time), so nothing stale can alias it. A
    /// module that is not closed is left alone (`Ok(false)`).
    ///
    /// Architecturally this is a no-op: the module's GOT slots were
    /// re-armed at close time and resolve lazily on the next call.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::UnknownModule`] if `name` was never
    /// loaded.
    pub fn dlreopen(&mut self, name: &str) -> Result<bool, SystemError> {
        self.process.reopen(&mut self.machine, name)
    }

    /// Evicts one resident code page of `lib`'s text section (demand
    /// paging's fault-out direction), chosen by `page` modulo the text
    /// size. Transparent to the running program: the next fetch faults
    /// the page back in. Returns `false` when nothing was resident —
    /// including when the module is currently closed (its pages are
    /// gone, not merely non-resident).
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::UnknownModule`] if `lib` is not loaded.
    pub fn evict_lib_page(&mut self, lib: &str, page: u64) -> Result<bool, SystemError> {
        self.process.evict_page(&mut self.machine, lib, page)
    }

    /// Freezes the in-memory prelink cache into a serializable
    /// [`ResolutionSnapshot`], stamped with the live process's
    /// [`dynlink_linker::fingerprint`] — the "stable linking" capture step.
    pub fn capture_snapshot(&self) -> ResolutionSnapshot {
        self.process.capture_snapshot()
    }

    /// Restores a serialized resolution snapshot into the running
    /// process — the `Prelink` start mode's core.
    ///
    /// With [`MachineConfig::prelink_validate`] on (the default), the
    /// snapshot's fingerprint must match the live process (module set,
    /// VA layout, per-module code generations, hardware level); on
    /// mismatch nothing is installed and every import binds lazily
    /// ([`RestoreOutcome::Fallback`]). Each surviving entry is then
    /// validated individually: tombstoned entries and entries whose
    /// provider module is currently closed are skipped (telemetry kind
    /// `CacheMiss`), the rest are installed into the GOT (`CacheHit`).
    ///
    /// With validation off, the snapshot is replayed verbatim — the
    /// staleness hazard the difftest's negative control exposes.
    ///
    /// GOT writes go through the external-store path (Bloom broadcast,
    /// or an explicit ABTB invalidation in the §3.4 no-Bloom variant),
    /// so a warm machine cannot skip through a stale entry.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from GOT writes (a snapshot for a
    /// different layout with validation off can reference unmapped
    /// slots).
    pub fn restore_snapshot(
        &mut self,
        snapshot: &ResolutionSnapshot,
    ) -> Result<RestoreOutcome, SystemError> {
        self.process
            .restore_snapshot(&mut self.machine, None, &self.telemetry, snapshot)
    }

    /// Re-installs the process's *own* in-memory prelink cache into the
    /// GOT — the mid-run `prelink` schedule event. A self-restore
    /// trivially fingerprint-matches, so only per-entry validation
    /// applies: with [`MachineConfig::prelink_validate`] off, entries
    /// tombstoned by an earlier `dlclose` are re-armed into GC-unmapped
    /// code, which is exactly the stale-restore bug the corpus witness
    /// pins.
    ///
    /// # Errors
    ///
    /// Propagates memory faults from GOT writes.
    pub fn prelink_restore_self(&mut self) -> Result<RestoreOutcome, SystemError> {
        self.process
            .restore_self(&mut self.machine, &self.telemetry)
    }

    /// What the boot-time prelink restore did, when this system was
    /// built with [`SystemBuilder::prelink_snapshot`].
    pub fn prelink_outcome(&self) -> Option<RestoreOutcome> {
        self.process.prelink_outcome
    }

    /// A copy of the in-memory prelink cache (test/telemetry access).
    pub fn snapshot_builder(&self) -> SnapshotBuilder {
        self.process.bindings().cache.clone()
    }

    /// Drains the resolution telemetry collected so far, in event order.
    pub fn take_resolution_telemetry(&mut self) -> Vec<ResolutionRecord> {
        lock_recovering(&self.telemetry).take()
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("entry", &self.process.image.entry())
            .field("mode", &self.process.image.mode())
            .field("machine", &self.machine)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_isa::Inst;
    use dynlink_linker::ModuleBuilder;

    /// app calls `inc` (from libinc) `n` times in a loop.
    fn counting_system(accel: LinkAccel, mode: LinkMode, n: u64) -> System {
        let mut lib = ModuleBuilder::new("libinc");
        lib.begin_function("inc", true);
        lib.asm().push(Inst::add_imm(Reg::R0, 1));
        lib.asm().push(Inst::Ret);

        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        let top = app.asm().fresh_label("top");
        app.asm().push(Inst::mov_imm(Reg::R2, n));
        app.asm().bind(top);
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::sub_imm(Reg::R2, 1));
        app.asm().push_branch_nz(Reg::R2, top);
        app.asm().push(Inst::Halt);

        let placement = if mode == LinkMode::Patched {
            LibraryPlacement::Near
        } else {
            LibraryPlacement::Far
        };
        SystemBuilder::new()
            .module(app.finish().unwrap())
            .module(lib.finish().unwrap())
            .link_mode(mode)
            .placement(placement)
            .accel(accel)
            .build()
            .unwrap()
    }

    #[test]
    fn lazy_binding_resolves_on_first_call() {
        let mut s = counting_system(LinkAccel::Off, LinkMode::DynamicLazy, 5);
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 5);
        let c = s.counters();
        assert_eq!(c.resolver_invocations, 1, "resolved exactly once");
        assert!(c.trampoline_instructions >= 5);
    }

    #[test]
    fn all_link_modes_agree_architecturally() {
        let mut results = Vec::new();
        for mode in [
            LinkMode::DynamicLazy,
            LinkMode::DynamicNow,
            LinkMode::Static,
            LinkMode::Patched,
        ] {
            let mut s = counting_system(LinkAccel::Off, mode, 17);
            s.run(100_000).unwrap();
            results.push((mode, s.reg(Reg::R0)));
        }
        for (mode, r0) in results {
            assert_eq!(r0, 17, "{mode:?}");
        }
    }

    #[test]
    fn abtb_skips_in_lazy_mode() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 100);
        s.run(1_000_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 100);
        let c = s.counters();
        assert!(c.trampolines_skipped >= 95, "{}", c.trampolines_skipped);
        // One flush at startup when the resolver rewrites the GOT.
        assert!(c.abtb_flushes >= 1);
    }

    #[test]
    fn static_mode_has_no_trampolines() {
        let mut s = counting_system(LinkAccel::Off, LinkMode::Static, 50);
        s.run(100_000).unwrap();
        let c = s.counters();
        assert_eq!(c.trampoline_instructions, 0);
        assert_eq!(c.resolver_invocations, 0);
    }

    #[test]
    fn enhanced_matches_static_instruction_count_after_warmup() {
        // The headline claim: dynamic linking + ABTB ~ static linking.
        let mut stat = counting_system(LinkAccel::Off, LinkMode::Static, 1000);
        stat.run(10_000_000).unwrap();
        let mut enh = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 1000);
        enh.run(10_000_000).unwrap();
        let (cs, ce) = (stat.counters(), enh.counters());
        let diff = ce.instructions.abs_diff(cs.instructions);
        // Within warmup noise (resolver + first calls).
        assert!(
            diff < 20,
            "static {} vs enhanced {}",
            cs.instructions,
            ce.instructions
        );
    }

    #[test]
    fn builder_with_no_modules_errors() {
        assert!(matches!(
            SystemBuilder::new().build(),
            Err(SystemError::NoModules)
        ));
    }

    /// Compile-time guarantee underpinning the parallel experiment
    /// runner: a built `System` can move to another thread.
    #[test]
    fn system_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
        assert_send::<SystemBuilder>();
    }

    /// Regression test for the builder ordering footgun:
    /// `accel(..).machine_config(..)` used to silently discard the
    /// accelerator. Both orders must now produce the same machine.
    #[test]
    fn builder_setters_are_order_independent() {
        let modules = || {
            let mut lib = ModuleBuilder::new("libinc");
            lib.begin_function("inc", true);
            lib.asm().push(Inst::add_imm(Reg::R0, 1));
            lib.asm().push(Inst::Ret);
            let mut app = ModuleBuilder::new("app");
            let inc = app.import("inc");
            app.begin_function("main", true);
            app.asm().push_call_extern(inc);
            app.asm().push(Inst::Halt);
            vec![app.finish().unwrap(), lib.finish().unwrap()]
        };
        let cfg = MachineConfig::baseline();
        let accel_first = SystemBuilder::new()
            .modules(modules())
            .accel(LinkAccel::Abtb)
            .machine_config(cfg.clone())
            .build()
            .unwrap();
        let config_first = SystemBuilder::new()
            .modules(modules())
            .machine_config(cfg)
            .accel(LinkAccel::Abtb)
            .build()
            .unwrap();
        assert_eq!(accel_first.machine().config().accel, LinkAccel::Abtb);
        assert_eq!(
            accel_first.machine().config().accel,
            config_first.machine().config().accel
        );
    }

    #[test]
    fn unbind_library_rearms_lazy_resolution() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 10);
        s.run(100_000).unwrap();
        assert_eq!(s.counters().resolver_invocations, 1);

        // Unbind and run again: the stub must fire a second time and
        // execution must stay correct despite the warm ABTB.
        let n = s.unbind_library("libinc").unwrap();
        assert_eq!(n, 1);
        s.set_reg(Reg::R0, 0);
        s.restart();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 10);
        assert_eq!(s.counters().resolver_invocations, 2);
    }

    #[test]
    fn unbind_unknown_module_errors() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 1);
        assert!(matches!(
            s.unbind_library("libzzz"),
            Err(SystemError::UnknownModule { .. })
        ));
    }

    #[test]
    fn rebind_symbol_switches_provider_safely() {
        // Two libraries export `inc`; lib1 wins initially; upgrading to
        // lib2's copy mid-run must take effect even with a warm ABTB.
        let mklib = |name: &str, delta: u64| {
            let mut lib = ModuleBuilder::new(name);
            lib.begin_function("inc", true);
            lib.asm().push(Inst::add_imm(Reg::R0, delta));
            lib.asm().push(Inst::Ret);
            lib.finish().unwrap()
        };
        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        let top = app.asm().fresh_label("top");
        app.asm().push(Inst::mov_imm(Reg::R2, 10));
        app.asm().bind(top);
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::sub_imm(Reg::R2, 1));
        app.asm().push_branch_nz(Reg::R2, top);
        app.asm().push(Inst::Halt);

        let mut s = SystemBuilder::new()
            .module(app.finish().unwrap())
            .module(mklib("lib1", 1))
            .module(mklib("lib2", 100))
            .accel(LinkAccel::Abtb)
            .build()
            .unwrap();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 10, "lib1 interposes first");

        let n = s.rebind_symbol("inc", "lib2").unwrap();
        assert_eq!(n, 1);
        s.set_reg(Reg::R0, 0);
        s.restart();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 1000, "upgraded to lib2's inc");
    }

    #[test]
    fn rebind_errors_are_typed() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 1);
        assert!(matches!(
            s.rebind_symbol("inc", "nope"),
            Err(SystemError::UnknownModule { .. })
        ));
        assert!(matches!(
            s.rebind_symbol("nope", "libinc"),
            Err(SystemError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn patch_call_sites_on_running_system() {
        let mut s = counting_system(LinkAccel::Off, LinkMode::DynamicNow, 10);
        // DynamicNow placed far; patching must fail with a typed error.
        assert!(s.patch_call_sites().is_err());

        // Near placement succeeds and removes trampoline executions.
        let mut lib = ModuleBuilder::new("libinc");
        lib.begin_function("inc", true);
        lib.asm().push(Inst::add_imm(Reg::R0, 1));
        lib.asm().push(Inst::Ret);
        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::Halt);
        let mut s = SystemBuilder::new()
            .module(app.finish().unwrap())
            .module(lib.finish().unwrap())
            .link_mode(LinkMode::DynamicNow)
            .placement(LibraryPlacement::Near)
            .build()
            .unwrap();
        // Text is RX under DynamicNow; make it writable first, as the
        // paper's modified linker does.
        let (text_base, text_len) = {
            let m = s.image().module("app").unwrap();
            (m.text_base, m.text_len)
        };
        s.machine_mut()
            .space_mut()
            .protect(text_base, text_len, dynlink_mem::Perms::RWX)
            .unwrap();
        let n = s.patch_call_sites().unwrap();
        assert_eq!(n, 1);
        s.run(10_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 1);
        assert_eq!(s.counters().trampoline_instructions, 0);
    }

    #[test]
    fn component_stats_reflect_activity() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 50);
        s.run(1_000_000).unwrap();
        let cs = s.machine().component_stats();
        assert!(cs.icache_accesses > 0);
        assert!(cs.dcache_accesses > 0);
        assert!(cs.btb_lookups > 0);
        assert!(cs.abtb_occupancy >= 1);
        assert_eq!(cs.abtb_capacity, 128);
        assert!(cs.bloom_fill_ratio > 0.0, "GOT slot registered in Bloom");
        assert!(cs.itlb_misses <= cs.itlb_accesses);
    }

    #[test]
    fn fork_space_shares_cow() {
        let s = counting_system(LinkAccel::Off, LinkMode::DynamicLazy, 1);
        let child = s.fork_space(7);
        assert_eq!(child.asid(), 7);
        assert_eq!(child.stats().cow_copies, 0);
        assert_eq!(child.stats().pages_mapped, s.mem_stats().pages_mapped);
    }

    #[test]
    fn dlclose_gcs_code_and_falls_through_to_the_shadow_provider() {
        // lib1 interposes `inc`; lib2 shadows it. After dlclose(lib1)
        // the re-armed stubs must resolve into lib2, with lib1's code
        // pages gone and the machine still architecturally correct
        // despite the warm ABTB.
        let mklib = |name: &str, delta: u64| {
            let mut lib = ModuleBuilder::new(name);
            lib.begin_function("inc", true);
            lib.asm().push(Inst::add_imm(Reg::R0, delta));
            lib.asm().push(Inst::Ret);
            lib.finish().unwrap()
        };
        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        let top = app.asm().fresh_label("top");
        app.asm().push(Inst::mov_imm(Reg::R2, 10));
        app.asm().bind(top);
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::sub_imm(Reg::R2, 1));
        app.asm().push_branch_nz(Reg::R2, top);
        app.asm().push(Inst::Halt);

        let mut s = SystemBuilder::new()
            .module(app.finish().unwrap())
            .module(mklib("lib1", 1))
            .module(mklib("lib2", 100))
            .accel(LinkAccel::Abtb)
            .build()
            .unwrap();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 10, "lib1 interposes first");

        let before = s.mem_stats().pages_mapped;
        let n = s.dlclose("lib1").unwrap();
        assert_eq!(n, 1, "one GOT slot was bound into lib1");
        assert!(s.mem_stats().pages_mapped < before, "code pages unmapped");
        assert_eq!(s.counters().modules_gcd, 1);
        assert_eq!(s.dlclose("lib1").unwrap(), 0, "double dlclose is a no-op");
        assert_eq!(s.counters().modules_gcd, 1, "no phantom second GC");

        s.set_reg(Reg::R0, 0);
        s.restart();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 1000, "stub re-fired into lib2's inc");

        // Reopen restores lib1's code, but architecturally it is a
        // no-op: the GOT slot stays bound to lib2 until re-armed.
        assert!(s.dlreopen("lib1").unwrap());
        assert!(
            !s.dlreopen("lib1").unwrap(),
            "reopening an open module is a no-op"
        );
        s.set_reg(Reg::R0, 0);
        s.restart();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 1000, "binding is sticky across reopen");

        // A close/reopen cycle re-arms the slot while lib1 is open
        // again, so lazy resolution finds lib1 at its original
        // interposition rank.
        s.dlclose("lib1").unwrap();
        assert!(s.dlreopen("lib1").unwrap());
        s.set_reg(Reg::R0, 0);
        s.restart();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 10, "lib1 interposes again");
    }

    #[test]
    fn dlclose_of_unknown_module_errors() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 1);
        assert!(matches!(
            s.dlclose("libzzz"),
            Err(SystemError::UnknownModule { .. })
        ));
        assert!(matches!(
            s.dlreopen("libzzz"),
            Err(SystemError::UnknownModule { .. })
        ));
        assert!(matches!(
            s.evict_lib_page("libzzz", 0),
            Err(SystemError::UnknownModule { .. })
        ));
    }

    #[test]
    fn evict_lib_page_is_transparent_mid_run() {
        let mut s = counting_system(LinkAccel::Abtb, LinkMode::DynamicLazy, 10);
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 10);
        assert!(s.evict_lib_page("libinc", 3).unwrap());
        assert!(
            !s.evict_lib_page("libinc", 3).unwrap(),
            "already evicted: fault-out is a no-op"
        );
        s.set_reg(Reg::R0, 0);
        s.restart();
        s.run(100_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 10, "page faulted back in transparently");
        assert_eq!(s.counters().demand_faults_in, 1);
        assert_eq!(s.counters().demand_faults_out, 1);
    }

    #[test]
    fn demand_paged_system_faults_code_in_as_it_runs() {
        let mut lib = ModuleBuilder::new("libinc");
        lib.begin_function("inc", true);
        lib.asm().push(Inst::add_imm(Reg::R0, 1));
        lib.asm().push(Inst::Ret);
        let mut app = ModuleBuilder::new("app");
        let inc = app.import("inc");
        app.begin_function("main", true);
        app.asm().push_call_extern(inc);
        app.asm().push(Inst::Halt);
        let mut s = SystemBuilder::new()
            .module(app.finish().unwrap())
            .module(lib.finish().unwrap())
            .accel(LinkAccel::Abtb)
            .demand_paging(true)
            .build()
            .unwrap();
        assert_eq!(s.machine().space().resident_code_pages(), 0);
        let lazy_total = s.machine().space().not_present_code_pages();
        s.run(10_000).unwrap();
        assert_eq!(s.reg(Reg::R0), 1);
        let c = s.counters();
        assert!(c.demand_faults_in > 0, "code arrived via fetch faults");
        let resident = s.machine().space().resident_code_pages();
        assert_eq!(resident, c.demand_faults_in, "one fault per resident page");
        assert_eq!(
            resident + s.machine().space().not_present_code_pages(),
            lazy_total,
            "residency accounting is conserved"
        );
    }

    #[test]
    fn ifunc_end_to_end() {
        let mut lib = ModuleBuilder::new("libc");
        lib.begin_function("memcpy_generic", false);
        lib.asm().push(Inst::mov_imm(Reg::RET, 1));
        lib.asm().push(Inst::Ret);
        lib.begin_function("memcpy_fast", false);
        lib.asm().push(Inst::mov_imm(Reg::RET, 2));
        lib.asm().push(Inst::Ret);
        lib.define_ifunc("memcpy", &["memcpy_generic", "memcpy_fast"]);
        let lib = lib.finish().unwrap();

        let mut app = ModuleBuilder::new("app");
        let m = app.import("memcpy");
        app.begin_function("main", true);
        app.asm().push_call_extern(m);
        app.asm().push(Inst::Halt);
        let app = app.finish().unwrap();

        for (level, expect) in [(0usize, 1u64), (1, 2), (7, 2)] {
            let mut s = SystemBuilder::new()
                .module(app.clone())
                .module(lib.clone())
                .hw_level(level)
                .accel(LinkAccel::Abtb)
                .build()
                .unwrap();
            s.run(10_000).unwrap();
            assert_eq!(s.reg(Reg::RET), expect, "hw_level {level}");
        }
    }
}
