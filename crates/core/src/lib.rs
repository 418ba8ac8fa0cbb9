//! # dynlink-core
//!
//! The public face of the **Architectural Support for Dynamic Linking**
//! reproduction (ASPLOS 2015): a [`System`] combines the module
//! linker/loader (`dynlink-linker`), the CPU simulator with the paper's
//! ABTB hardware (`dynlink-cpu`) and the copy-on-write memory model
//! (`dynlink-mem`) behind one builder API.
//!
//! [`MultiProcessSystem`] time-shares several processes on one machine.
//! Both system types hold their per-process state — image, live
//! resolution table, prelink cache, GC remnants — in one crate-private
//! runtime type, and delegate every module event (unbind, rebind,
//! `dlclose`, reopen, page eviction, snapshot capture and restore) to
//! it, so each event and the lazy resolver are implemented once.
//!
//! ```
//! use dynlink_core::{LinkMode, LinkAccel, SystemBuilder};
//! use dynlink_isa::{Inst, Reg};
//! use dynlink_linker::ModuleBuilder;
//!
//! // A library exporting `inc`, and an app calling it 10 times.
//! let mut lib = ModuleBuilder::new("libinc");
//! lib.begin_function("inc", true);
//! lib.asm().push(Inst::add_imm(Reg::R0, 1));
//! lib.asm().push(Inst::Ret);
//!
//! let mut app = ModuleBuilder::new("app");
//! let inc = app.import("inc");
//! app.begin_function("main", true);
//! let top = app.asm().fresh_label("top");
//! app.asm().push(Inst::mov_imm(Reg::R2, 10));
//! app.asm().bind(top);
//! app.asm().push_call_extern(inc);
//! app.asm().push(Inst::sub_imm(Reg::R2, 1));
//! app.asm().push_branch_nz(Reg::R2, top);
//! app.asm().push(Inst::Halt);
//!
//! let mut system = SystemBuilder::new()
//!     .module(app.finish()?)
//!     .module(lib.finish()?)
//!     .link_mode(LinkMode::DynamicLazy)
//!     .accel(LinkAccel::Abtb)
//!     .build()?;
//! system.run(100_000)?;
//! assert_eq!(system.reg(Reg::R0), 10);
//! assert!(system.counters().trampolines_skipped > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Re-exports the configuration vocabulary of the lower crates so most
//! downstream code only needs `dynlink_core` (plus `dynlink_isa` and
//! `dynlink_linker` for authoring modules).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod error;
mod multi;
mod process;
mod system;

pub use arena::TenantClass;
pub use error::SystemError;
pub use multi::MultiProcessSystem;
pub use system::{System, SystemBuilder};

pub use dynlink_cpu::{
    CpuError, LinkAccel, MachineConfig, MarkEvent, Penalties, RetireEvent, RetireObserver, RunExit,
};
pub use dynlink_linker::{
    LinkMode, LinkOptions, ResolutionSnapshot, RestoreOutcome, SnapshotBuilder, SnapshotError,
    TrampolineFlavor,
};
pub use dynlink_mem::layout::LibraryPlacement;
pub use dynlink_trace::{ResolutionKind, ResolutionRecord, TelemetryWriter};
pub use dynlink_uarch::PerfCounters;

/// One-line import of the vocabulary types.
///
/// Examples, tests and benches all need the same handful of names;
/// `use dynlink_core::prelude::*;` brings them in without spelling out
/// the re-export paths.
///
/// ```
/// use dynlink_core::prelude::*;
///
/// let _accel = LinkAccel::Abtb;
/// let _mode = LinkMode::DynamicLazy;
/// let _ = SystemBuilder::new();
/// ```
pub mod prelude {
    pub use crate::{
        LibraryPlacement, LinkAccel, LinkMode, MachineConfig, PerfCounters, System, SystemBuilder,
        SystemError,
    };
}
