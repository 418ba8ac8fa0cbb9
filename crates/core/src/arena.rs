//! Bulk tenant spawning for fleet-scale multiprogramming.
//!
//! A fleet run wants *thousands* of processes, but nearly all of them
//! are instances of a handful of programs. Loading each one through the
//! full [`Loader`] pipeline would relocate, place and predecode the
//! same text a thousand times over. [`ProcessArena`] instead loads each
//! [`TenantClass`] **once** into a template [`AddressSpace`] and spawns
//! its tenants as [`AddressSpace::fork_shared_code`] forks: copy-on-
//! write pages, one shared [`ProcessImage`] behind an [`Arc`], and —
//! until a tenant's code state diverges — a single fetch-side
//! `code_uid`, so the machine's predecode and superblock caches hold
//! one copy of the class's text no matter how many tenants run it.
//!
//! What stays *per tenant*: its [`Process`] (the live resolution table
//! and prelink cache — lazy binding and `dlclose` churn are private),
//! the stack mapping, the ASID, and the GOT pages the moment a tenant
//! writes one (COW).

use std::sync::Arc;

use dynlink_cpu::ProcessContext;
use dynlink_linker::{LinkOptions, Loader, ModuleSpec};
use dynlink_mem::layout::STACK_TOP;
use dynlink_mem::AddressSpace;

use crate::process::Process;
use crate::SystemError;

/// A program template plus how many tenant processes run it.
///
/// All tenants of a class share one loaded image (same placement, same
/// ASLR seed, same link mode); per-tenant state diverges only through
/// execution. Classes are laid out class-major: the fleet's process
/// indices `0..classes[0].tenants` belong to class 0, and so on.
#[derive(Clone, Debug)]
pub struct TenantClass {
    /// The modules linked into every tenant of this class.
    pub modules: Vec<ModuleSpec>,
    /// Link options shared by the whole class.
    pub options: LinkOptions,
    /// How many tenant processes to spawn from the template.
    pub tenants: usize,
}

/// Builder that turns [`TenantClass`] templates into the parked
/// contexts and [`Process`]es a `MultiProcessSystem` boots from.
pub(crate) struct ProcessArena;

impl ProcessArena {
    /// Loads each class once and forks its tenants, producing parts
    /// index-compatible with the one-process-at-a-time constructors:
    /// tenant `i` (global, class-major) gets ASID `i + 1` and its own
    /// stack of `stack_bytes`.
    pub(crate) fn build(
        classes: &[TenantClass],
        stack_bytes: u64,
    ) -> Result<(Vec<ProcessContext>, Vec<Process>), SystemError> {
        if classes.is_empty() || classes.iter().any(|c| c.tenants == 0) {
            return Err(SystemError::NoModules);
        }
        let n: usize = classes.iter().map(|c| c.tenants).sum();
        let mut contexts = Vec::with_capacity(n);
        let mut procs = Vec::with_capacity(n);
        let mut next = 0u64;
        for class in classes {
            // The template space never runs; ASID 0 matches the boot
            // placeholder and is immediately superseded by the forks.
            let mut template = AddressSpace::new(0);
            let image =
                Arc::new(Loader::new(class.options).load(&class.modules, "main", &mut template)?);
            for _ in 0..class.tenants {
                next += 1;
                let space = template.fork_shared_code(next);
                contexts.push(ProcessContext::new(
                    space,
                    image.entry(),
                    STACK_TOP,
                    stack_bytes,
                )?);
                procs.push(Process::new(Arc::clone(&image), class.options));
            }
        }
        Ok((contexts, procs))
    }
}
