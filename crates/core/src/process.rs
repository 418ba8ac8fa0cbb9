//! The per-process dynamic-linking runtime under [`crate::System`] and
//! [`crate::MultiProcessSystem`].
//!
//! A [`Process`] is everything one loaded process owns: its image, its
//! live resolution table and in-memory prelink cache (shared with the
//! lazy resolver), the code of the modules it has `dlclose`d, its link
//! options (ifunc hardware level, demand paging) and its boot-time
//! prelink outcome. Every runtime GOT rewrite the paper's correctness
//! argument covers (§3.2, §3.4) — unbind, rebind, `dlclose`, snapshot
//! restore — and the rest of the module events are implemented here
//! once, against a `Process` plus the [`Machine`] it runs on. `System`
//! and `MultiProcessSystem` only pick the process and delegate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use dynlink_cpu::Machine;
use dynlink_isa::{Inst, Reg, VirtAddr};
use dynlink_linker::{
    fingerprint, LinkMode, LinkOptions, LoadedModule, ProcessImage, ResolutionSnapshot,
    ResolutionTable, RestoreOutcome, SnapshotBuilder, SnapshotEntry, RESOLVER_HOST_FN,
};
use dynlink_mem::{AddressSpace, Perms, PAGE_BYTES};
use dynlink_trace::{lock_recovering, ResolutionKind, TelemetryWriter};

use crate::SystemError;

/// Default stack size for simulated processes.
pub(crate) const STACK_BYTES: u64 = 1 << 20;

/// The linking state the lazy resolver mutates from inside a run.
pub(crate) struct Bindings {
    /// The live resolution table.
    pub(crate) table: ResolutionTable,
    /// The in-memory prelink cache: every lazy resolution and rebind is
    /// recorded here; `dlclose` tombstones the victim's entries.
    pub(crate) cache: SnapshotBuilder,
}

/// What module GC tore down, kept so a later reopen can rebuild the
/// module's code at the same virtual addresses.
struct GcRemnant {
    /// The unmapped code extents (`(base, len)`).
    extents: Vec<(VirtAddr, u64)>,
    /// The instructions that lived there.
    code: Vec<(VirtAddr, Inst)>,
}

/// One loaded process's runtime state (see the module docs).
pub(crate) struct Process {
    /// The loaded image; fleet tenants of one class share it.
    pub(crate) image: Arc<ProcessImage>,
    /// The options the image was loaded with.
    pub(crate) link: LinkOptions,
    bindings: Arc<Mutex<Bindings>>,
    /// Code snapshots of `dlclose`d modules, for reopening.
    gc_remnants: HashMap<String, GcRemnant>,
    /// What the boot-time prelink restore did, if there was one.
    pub(crate) prelink_outcome: Option<RestoreOutcome>,
}

impl Process {
    /// Wraps a freshly loaded image: the live table starts as the
    /// image's load-time table and the prelink cache starts empty.
    pub(crate) fn new(image: Arc<ProcessImage>, link: LinkOptions) -> Self {
        let bindings = Bindings {
            table: image.resolution().clone(),
            cache: SnapshotBuilder::new(),
        };
        Process {
            image,
            link,
            bindings: Arc::new(Mutex::new(bindings)),
            gc_remnants: HashMap::new(),
            prelink_outcome: None,
        }
    }

    /// Locks the live table and prelink cache.
    pub(crate) fn bindings(&self) -> MutexGuard<'_, Bindings> {
        lock_recovering(&self.bindings)
    }

    fn module(&self, name: &str) -> Result<&LoadedModule, SystemError> {
        self.image
            .module(name)
            .ok_or_else(|| SystemError::UnknownModule {
                name: name.to_owned(),
            })
    }

    fn is_closed(&self, idx: usize) -> bool {
        self.bindings().table.is_closed(idx)
    }

    /// Re-arms every GOT slot bound into `victim` to its lazy stub,
    /// each rewrite broadcast on the store path. Returns the slot count.
    pub(crate) fn unbind(&self, machine: &mut Machine, victim: &str) -> Result<u64, SystemError> {
        self.module(victim)?;
        let mut n = 0;
        for (got_slot, stub) in self.image.unbind_writes_for(victim) {
            machine.space_mut().write_u64(got_slot, stub.as_u64())?;
            machine.broadcast_store(got_slot);
            n += 1;
        }
        software_invalidate(machine, n > 0);
        Ok(n)
    }

    /// Points every importer's GOT slot for `symbol` at `provider`'s
    /// copy, updating the live table and the prelink cache.
    pub(crate) fn rebind(
        &self,
        machine: &mut Machine,
        symbol: &str,
        provider: &str,
    ) -> Result<u64, SystemError> {
        let module = self.module(provider)?;
        let new_target = module
            .export(symbol)
            .ok_or_else(|| SystemError::UnknownSymbol {
                symbol: symbol.to_owned(),
                provider: provider.to_owned(),
            })?;
        let provider_idx = module.index;
        let slots: Vec<(usize, usize, VirtAddr)> = self
            .image
            .modules()
            .iter()
            .flat_map(|m| {
                m.plt_slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.symbol == symbol)
                    .map(move |(i, s)| (m.index, i, s.got_slot))
            })
            .collect();
        let mut n = 0;
        for (module_idx, import_idx, got_slot) in slots {
            machine
                .space_mut()
                .write_u64(got_slot, new_target.as_u64())?;
            machine.broadcast_store(got_slot);
            let mut b = self.bindings();
            if let Some(binding) = b.table.binding_mut(module_idx, import_idx) {
                binding.target = new_target;
            }
            // The rebound slot supersedes whatever the prelink cache
            // recorded for it (and clears any tombstone: the slot now
            // points at a live provider again).
            b.cache.record(
                module_idx,
                import_idx,
                got_slot,
                new_target,
                Some(provider_idx),
            );
            n += 1;
        }
        software_invalidate(machine, n > 0);
        Ok(n)
    }

    /// `dlclose` with module GC (see `System::dlclose`). `last_ref` is
    /// asked once the close is certain and says whether this drops the
    /// module's last reference, which is what counts as a GC.
    pub(crate) fn dlclose(
        &mut self,
        machine: &mut Machine,
        victim: &str,
        last_ref: impl FnOnce() -> bool,
    ) -> Result<u64, SystemError> {
        let idx = self.module(victim)?.index;
        if self.is_closed(idx) {
            return Ok(0);
        }
        // Kernel-side writes the store snoop cannot see: not broadcast.
        let mut n = 0;
        for (got_slot, stub) in self.image.unbind_writes_for(victim) {
            machine.space_mut().write_u64(got_slot, stub.as_u64())?;
            n += 1;
        }
        {
            let mut b = self.bindings();
            b.table.close_module(idx);
            // The module's code is about to be GC-unmapped: tombstone
            // every cache entry resolved into it, so a later restore
            // cannot re-arm a GOT slot into the recycled range.
            b.cache.tombstone(idx);
        }
        // Snapshot the code before tearing it down so a reopen can
        // rebuild it at the same addresses (`code_in_range` sees the
        // backing image of demand-evicted pages too).
        let extents = self.image.code_extents_of(victim);
        let code = extents
            .iter()
            .flat_map(|&(base, len)| machine.space().code_in_range(base, len))
            .collect();
        for &(base, len) in &extents {
            machine.gc_unmap_code_region(base, len);
        }
        self.gc_remnants
            .insert(victim.to_owned(), GcRemnant { extents, code });
        if last_ref() {
            machine.note_module_gc();
        }
        if machine.config().demand_invalidate {
            machine.invalidate_for_module_gc();
        }
        Ok(n)
    }

    /// Rebuilds a closed module's code at its original addresses (not
    /// resident, under demand paging) and restores its interposition
    /// rank. `Ok(false)` when the module is not closed.
    pub(crate) fn reopen(
        &mut self,
        machine: &mut Machine,
        name: &str,
    ) -> Result<bool, SystemError> {
        let idx = self.module(name)?.index;
        if !self.is_closed(idx) {
            return Ok(false);
        }
        let remnant = self
            .gc_remnants
            .remove(name)
            .expect("closed module has a GC remnant");
        for &(base, len) in &remnant.extents {
            machine.space_mut().map_code_region(base, len, Perms::RX)?;
        }
        for &(addr, inst) in &remnant.code {
            machine.space_mut().place_code(addr, inst)?;
        }
        if self.link.demand_paging && self.image.mode() == LinkMode::DynamicLazy {
            for &(base, len) in &remnant.extents {
                machine.space_mut().evict_code_region(base, len);
            }
        }
        self.bindings().table.reopen_module(idx);
        Ok(true)
    }

    /// Evicts one text page of `lib` (`page` modulo the text size).
    /// `Ok(false)` when nothing was resident or the module is closed.
    pub(crate) fn evict_page(
        &self,
        machine: &mut Machine,
        lib: &str,
        page: u64,
    ) -> Result<bool, SystemError> {
        let m = self.module(lib)?;
        if self.is_closed(m.index) {
            return Ok(false);
        }
        let pages = m.text_len.max(1).div_ceil(PAGE_BYTES);
        let addr = m.text_base + (page % pages) * PAGE_BYTES;
        Ok(machine.evict_code_page(addr)?)
    }

    /// Freezes the prelink cache, stamped with the live fingerprint.
    pub(crate) fn capture_snapshot(&self) -> ResolutionSnapshot {
        let b = self.bindings();
        b.cache
            .snapshot(fingerprint(&self.image, &b.table, self.link.hw_level))
    }

    /// Restores `snapshot` (rules in `System::restore_snapshot`). With
    /// `parked` set the process is suspended: the GOT writes go into
    /// its parked space, with no broadcast and no ABTB invalidate.
    pub(crate) fn restore_snapshot(
        &self,
        machine: &mut Machine,
        parked: Option<&mut AddressSpace>,
        telemetry: &Mutex<TelemetryWriter>,
        snapshot: &ResolutionSnapshot,
    ) -> Result<RestoreOutcome, SystemError> {
        let validate = machine.config().prelink_validate;
        if validate {
            let b = self.bindings();
            if snapshot.fingerprint != fingerprint(&self.image, &b.table, self.link.hw_level) {
                return Ok(RestoreOutcome::Fallback);
            }
        }
        self.install_entries(machine, parked, telemetry, &snapshot.entries, validate)
    }

    /// Re-installs the process's own prelink cache into its live GOT.
    pub(crate) fn restore_self(
        &self,
        machine: &mut Machine,
        telemetry: &Mutex<TelemetryWriter>,
    ) -> Result<RestoreOutcome, SystemError> {
        let entries: Vec<SnapshotEntry> = self.bindings().cache.iter().copied().collect();
        let validate = machine.config().prelink_validate;
        self.install_entries(machine, None, telemetry, &entries, validate)
    }

    fn install_entries(
        &self,
        machine: &mut Machine,
        mut parked: Option<&mut AddressSpace>,
        telemetry: &Mutex<TelemetryWriter>,
        entries: &[SnapshotEntry],
        validate: bool,
    ) -> Result<RestoreOutcome, SystemError> {
        let mut installed = 0;
        let mut skipped = 0;
        let epoch = self.bindings().cache.epoch();
        for e in entries {
            let kind = if validate && e.should_skip(&self.bindings().table) {
                skipped += 1;
                ResolutionKind::CacheMiss
            } else {
                match parked.as_deref_mut() {
                    Some(space) => space.write_u64(e.got_slot, e.target.as_u64())?,
                    None => {
                        machine
                            .space_mut()
                            .write_u64(e.got_slot, e.target.as_u64())?;
                        machine.broadcast_store(e.got_slot);
                    }
                }
                installed += 1;
                ResolutionKind::CacheHit
            };
            lock_recovering(telemetry).record(
                e.module as usize,
                e.import as usize,
                kind,
                e.got_slot,
                e.target,
                epoch,
            );
        }
        if parked.is_none() {
            software_invalidate(machine, installed > 0);
        }
        Ok(RestoreOutcome::Restored { installed, skipped })
    }
}

/// The §3.4 software-managed variant: without a Bloom filter watching
/// the GOT, the runtime invalidates the ABTB itself once it has
/// rewritten any slot.
fn software_invalidate(machine: &mut Machine, rewrote: bool) {
    if rewrote && !machine.config().accel.has_bloom() {
        machine.invalidate_abtb();
    }
}

/// Registers the lazy resolver on `machine` and records every eager
/// (`BIND_NOW`) process's load-time binds into `telemetry`.
///
/// The resolver serves the process of `procs` that the returned index
/// names (initially 0): a multi-process machine repoints it at every
/// switch, because aliasing layouts give different processes identical
/// stub keys. It reads the binding key from the scratch register,
/// rewrites the GOT slot *through the store path* (so the Bloom filter
/// observes it), redirects to the target, and records the resolution
/// in the process's prelink cache and in the telemetry stream. Eager
/// binds go to telemetry only, never the cache: the prelink cache
/// records only lazy resolution work worth skipping.
pub(crate) fn wire_resolver(
    machine: &mut Machine,
    procs: &[Process],
    telemetry: &Arc<Mutex<TelemetryWriter>>,
) -> Arc<AtomicUsize> {
    {
        let mut t = lock_recovering(telemetry);
        for p in procs
            .iter()
            .filter(|p| p.image.mode() == LinkMode::DynamicNow)
        {
            for b in p.bindings().table.iter() {
                t.record(
                    b.module,
                    b.import,
                    ResolutionKind::Eager,
                    b.got_slot,
                    b.target,
                    0,
                );
            }
        }
    }
    let active = Arc::new(AtomicUsize::new(0));
    let serving = Arc::clone(&active);
    let bindings: Vec<_> = procs.iter().map(|p| Arc::clone(&p.bindings)).collect();
    let telemetry = Arc::clone(telemetry);
    let explicit_invalidate = !machine.config().accel.has_bloom();
    machine.register_host_fn(
        RESOLVER_HOST_FN,
        Box::new(move |ctx| {
            let key = ctx.reg(Reg::SCRATCH);
            let mut b = lock_recovering(&bindings[serving.load(Ordering::Relaxed)]);
            let (module, import, got_slot, target) = {
                let binding = b
                    .table
                    .binding_for_key(key)
                    .expect("lazy stub fired with unknown binding key");
                // A binding into a `dlclose`d module resolves through to
                // the next open provider in interposition order.
                let target = b.table.effective_target(&binding.symbol, binding.target);
                (binding.module, binding.import, binding.got_slot, target)
            };
            let owner = b.table.owner_of(target);
            ctx.store_u64(got_slot, target.as_u64())
                .expect("GOT slot is mapped read-write");
            if explicit_invalidate {
                // §3.4: software-visible ABTB invalidation in the
                // no-Bloom variant.
                ctx.invalidate_abtb();
            }
            ctx.set_pc(target);
            ctx.count_resolver();
            b.cache.record(module, import, got_slot, target, owner);
            let epoch = b.cache.epoch();
            drop(b);
            lock_recovering(&telemetry).record(
                module,
                import,
                ResolutionKind::Lazy,
                got_slot,
                target,
                epoch,
            );
        }),
    );
    active
}
