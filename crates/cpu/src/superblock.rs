//! Superblock translation: the direct-threaded micro-op IR behind the
//! translated-block execution engine.
//!
//! There is one instruction semantics: [`lower`] turns an [`Inst`] into
//! a [`MicroOp`], `Core::exec_op` executes it and `Core::retire`
//! retires it, whether it came from a translated block or from the
//! interpreter. The interpreter (`Machine::step_one`) is the one-op
//! case: it fetches, lowers, executes and retires one instruction at a
//! time, paying per instruction for the predecoded-page revalidation,
//! the lowering, the fall-through pc, the pattern role ([`Role::of`])
//! and run bookkeeping that cannot change mid-straight-line-run. The
//! superblock engine pays that tax once, at translation time: a hot
//! straight-line region — a run of instructions ending at a control
//! transfer, a [`Mark`](Inst::Mark), a host call or the page boundary —
//! is scanned out of the predecoded page and compiled into a dense
//! array of [`SbOp`] micro-ops whose operands, fall-through pcs, PLT
//! membership and ABTB pattern roles are all pre-resolved. Execution
//! then runs micro-ops tail-to-tail, and finished blocks chain to
//! their successors through a per-block memo so steady-state dispatch
//! never touches a hash table.
//!
//! **Everything architectural is preserved.** Each micro-op runs
//! through the interpreter's own executor and retire stage (a fused
//! register-only pre-op through `Core::exec_pre`, a copy of the five
//! register arms kept for speed), after the same fetch charges in the
//! same order (folded per fetch-run window only where the outcome is
//! fixed); faults stop the block with the pc parked on the faulting
//! instruction exactly as `step_one` would leave it. What the engine
//! adds — translation, fusion, fetch-run folding and chaining — is
//! what the engine-equality checks test: the differential-test oracle
//! digests and the system-side folds are bit-identical with the engine
//! on or off (`difftest --no-superblock` is the scriptable A/B switch).
//!
//! **Invalidation discipline.** A block is tagged with the space
//! [`uid`](dynlink_mem::AddressSpace::uid), the
//! [`code_version`](dynlink_mem::AddressSpace::code_version), the PLT
//! epoch and the cache-wide eviction generation at translation time,
//! and every dispatch revalidates all four — the same discipline the
//! predecoded pages use, pinned by `decode_coherence.rs`:
//!
//! * `patch_code` bumps the code version → stale block retranslates;
//! * module GC (`invalidate_for_module_gc`) retags the space uid →
//!   stale blocks can never revalidate;
//! * ASID-aliased processes have distinct uids → translations are
//!   never shared across spaces;
//! * demand eviction (`drop_page`) bumps the eviction generation →
//!   a conservative full-cache shootdown, so a block over a faulted-out
//!   page cannot keep executing from the translation cache;
//! * `set_plt_ranges` bumps the PLT epoch → cached `in_plt` flags are
//!   never stale.
//!
//! The per-dispatch revalidation is the shootdown mechanism, mirroring
//! the lazy tag checks of the predecode arena. The
//! `MachineConfig::superblock_validate` knob (default on) is the
//! negative control: disabling it skips the version/generation checks
//! and makes exactly the stale-translation divergences reachable that
//! the discipline exists to prevent.

use std::collections::HashMap;

use dynlink_isa::{AluOp, Cond, HostFnId, Inst, MemRef, Reg, VirtAddr};

/// Upper bound on micro-ops per block. Straight-line runs in linked
/// code are short (a PLT slot is two instructions); the cap only
/// bounds translation work for degenerate all-ALU pages. A run longer
/// than the cap simply continues in the successor block.
pub(crate) const MAX_BLOCK_OPS: usize = 64;

/// Retire-stage pattern role of an instruction, the one input the ABTB
/// trainer (`Core::train_role`) needs from it. Block ops carry it
/// precomputed at translation time, so the in-block retire stage never
/// re-derives the `Inst` predicate chain; the interpreter derives it
/// per step with [`Role::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Any call: arms the trampoline-pattern detector.
    Call,
    /// Memory-indirect jump: may complete the pattern and train the
    /// ABTB.
    MemIndirectJump,
    /// Writes only the linker scratch register (no control, load or
    /// store): tolerated inside ARM-style trampoline bodies.
    ScratchOnly,
    /// Anything else: breaks a pending pattern.
    Other,
}

impl Role {
    /// Classifies `inst` through the `Inst` predicate chain
    /// (`is_call`/`is_mem_indirect_jump`/`written_reg`…).
    #[inline]
    pub(crate) fn of(inst: &Inst) -> Role {
        if inst.is_call() {
            Role::Call
        } else if inst.is_mem_indirect_jump() {
            Role::MemIndirectJump
        } else if inst.written_reg() == Some(Reg::SCRATCH)
            && !inst.is_control()
            && !inst.is_load()
            && !inst.is_store()
        {
            Role::ScratchOnly
        } else {
            Role::Other
        }
    }
}

/// The micro-op IR: [`Inst`] with operand accessors pre-resolved. The
/// register/immediate split of ALU and compare-branch sources is
/// flattened into distinct variants so the executor never matches on a
/// nested [`Operand`](dynlink_isa::Operand); direct targets,
/// fall-through pcs and PLT flags ride in the enclosing [`SbOp`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum MicroOp {
    /// `dst = dst <op> src` (register source).
    AluRR { op: AluOp, dst: Reg, src: Reg },
    /// `dst = dst <op> imm` (immediate source).
    AluRI { op: AluOp, dst: Reg, imm: u64 },
    /// `dst = imm`.
    MovImm { dst: Reg, imm: u64 },
    /// `dst = src`.
    MovReg { dst: Reg, src: Reg },
    /// `dst = effective_address(mem)`.
    Lea { dst: Reg, mem: MemRef },
    /// `dst = *mem`.
    Load { dst: Reg, mem: MemRef },
    /// `*mem = src`.
    Store { src: Reg, mem: MemRef },
    /// Stack push.
    Push { src: Reg },
    /// Stack pop.
    Pop { dst: Reg },
    /// No-op.
    Nop,
    /// Direct call (block terminal).
    CallDirect { target: VirtAddr },
    /// Register-indirect call (terminal).
    CallIndirectReg { target: Reg },
    /// Memory-indirect call (terminal).
    CallIndirectMem { mem: MemRef },
    /// Direct jump (terminal).
    JmpDirect { target: VirtAddr },
    /// Memory-indirect jump — the trampoline body (terminal).
    JmpIndirectMem { mem: MemRef },
    /// Register-indirect jump (terminal).
    JmpIndirectReg { target: Reg },
    /// Compare-and-branch, register rhs (terminal).
    BranchRR {
        cond: Cond,
        lhs: Reg,
        rhs: Reg,
        target: VirtAddr,
    },
    /// Compare-and-branch, immediate rhs (terminal).
    BranchRI {
        cond: Cond,
        lhs: Reg,
        imm: u64,
        target: VirtAddr,
    },
    /// Return (terminal).
    Ret,
    /// Halt (terminal).
    Halt,
    /// Instrumentation mark (terminal, so mark-count run bounds stay
    /// exact: the count can only change at a block boundary).
    Mark { id: u64 },
}

/// A register-only instruction fused onto the front of the following
/// micro-op ([`SbOp::pre`]): it cannot fault, touch the memory system
/// or transfer control, so executing it inside the same dispatch as
/// its successor is architecturally invisible — the executor still
/// retires it as its own instruction (fetch charge, base cycles,
/// counters, pattern training).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PreOp {
    /// The register-only operation (one of the [`SbOp::fold_safe`]
    /// variants).
    pub(crate) op: MicroOp,
    /// Its pc (fetch charging; always on the same I-cache line and
    /// I-TLB page as the main op's pc — the fusion precondition).
    pub(crate) pc: VirtAddr,
    /// PLT membership of `pc` at translation time.
    pub(crate) in_plt: bool,
    /// Retire-pattern role — [`Role::ScratchOnly`] or [`Role::Other`]
    /// by construction (register-only ops are never calls or
    /// memory-indirect jumps).
    pub(crate) role: Role,
}

/// One translated micro-op: the operation plus everything the retire
/// stage would otherwise recompute per execution.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SbOp {
    /// Fused register-only predecessor, executed (and retired) just
    /// before `op` in the same dispatch.
    pub(crate) pre: Option<PreOp>,
    /// The pre-resolved operation.
    pub(crate) op: MicroOp,
    /// This instruction's pc (fetch charging, fault reporting).
    pub(crate) pc: VirtAddr,
    /// Fall-through pc (`pc + encoded_len`), precomputed.
    pub(crate) fall: VirtAddr,
    /// PLT membership of `pc` at translation time (guarded by the
    /// block's PLT-epoch tag).
    pub(crate) in_plt: bool,
    /// Retire-pattern role, precomputed.
    pub(crate) role: Role,
    /// Fetch-run window, in *ops*: on a window head, the number of
    /// consecutive ops (≥ 1) whose instruction fetches are all charged
    /// at the head; 1 elsewhere. Within a window every instruction
    /// shares the head's I-cache line and I-TLB page and only the last
    /// can fault, so charging all fetches up front commutes with
    /// execution.
    pub(crate) fetch_run: u8,
    /// Total *instructions* in the window this op heads (counting
    /// fused pre-ops); meaningful on window heads only.
    pub(crate) fetch_insts: u8,
}

impl SbOp {
    /// Whether executing this op's main operation can fault or touch
    /// memory-system state — the property that bounds fetch runs and
    /// fusion: register-only ops qualify; anything that reads or
    /// writes memory (including implicit stack traffic) does not.
    fn fold_safe(&self) -> bool {
        matches!(
            self.op,
            MicroOp::AluRR { .. }
                | MicroOp::AluRI { .. }
                | MicroOp::MovImm { .. }
                | MicroOp::MovReg { .. }
                | MicroOp::Lea { .. }
                | MicroOp::Nop
        )
    }

    /// pc of the first instruction this op retires (the fused pre-op's
    /// if present).
    pub(crate) fn first_pc(&self) -> VirtAddr {
        match &self.pre {
            Some(p) => p.pc,
            None => self.pc,
        }
    }

    /// Number of instructions this op retires (1, or 2 with a fused
    /// pre-op).
    pub(crate) fn count(&self) -> u64 {
        1 + self.pre.is_some() as u64
    }
}

/// Fuses each register-only op onto its successor when both pcs share
/// an I-cache line and I-TLB page (so the pair's fetch charges can be
/// folded at one address) — one dispatch then retires both
/// instructions. Pairs greedily, left to right.
pub(crate) fn fuse_ops(ops: Vec<SbOp>, line_bytes: u64, page_bytes: u64) -> Vec<SbOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut it = ops.into_iter().peekable();
    while let Some(op) = it.next() {
        let fusable = op.fold_safe()
            && it.peek().is_some_and(|next| {
                next.pc.cache_line(line_bytes) == op.pc.cache_line(line_bytes)
                    && next.pc.page_number(page_bytes) == op.pc.page_number(page_bytes)
            });
        if fusable {
            let mut main = it.next().expect("peeked successor");
            main.pre = Some(PreOp {
                op: op.op,
                pc: op.pc,
                in_plt: op.in_plt,
                role: op.role,
            });
            out.push(main);
        } else {
            out.push(op);
        }
    }
    out
}

/// Computes [`SbOp::fetch_run`]/[`SbOp::fetch_insts`] for a freshly
/// translated (and fused) block: greedily extends each window while
/// the previous op's main operation is register-only
/// ([`SbOp::fold_safe`]) and the next op stays on the head's I-cache
/// line and I-TLB page. (A fused op's two pcs share a line by
/// construction, so checking `pc` covers both.)
pub(crate) fn assign_fetch_runs(ops: &mut [SbOp], line_bytes: u64, page_bytes: u64) {
    let mut i = 0;
    while i < ops.len() {
        let head_line = ops[i].first_pc().cache_line(line_bytes);
        let head_page = ops[i].first_pc().page_number(page_bytes);
        let mut k = 1usize;
        while i + k < ops.len()
            && ops[i + k - 1].fold_safe()
            && ops[i + k].pc.cache_line(line_bytes) == head_line
            && ops[i + k].pc.page_number(page_bytes) == head_page
        {
            k += 1;
        }
        ops[i].fetch_run = k as u8;
        ops[i].fetch_insts = ops[i..i + k]
            .iter()
            .map(|o| o.count() as usize)
            .sum::<usize>() as u8;
        i += k;
    }
}

/// Lowers `inst` to its micro-op: `Ok((op, terminal))` for every
/// instruction but a host call, whose function id comes back as `Err`.
/// Host calls never enter a block (they need the interpreter's
/// split-borrow callback path and its serializing semantics), so the
/// interpreter dispatches on this result and the translator stops at
/// an `Err`.
#[inline]
pub(crate) fn lower(inst: Inst) -> Result<(MicroOp, bool), HostFnId> {
    use dynlink_isa::Operand;
    let op = match inst {
        Inst::Alu { op, dst, src } => match src {
            Operand::Reg(src) => MicroOp::AluRR { op, dst, src },
            Operand::Imm(imm) => MicroOp::AluRI { op, dst, imm },
        },
        Inst::MovImm { dst, imm } => MicroOp::MovImm { dst, imm },
        Inst::MovReg { dst, src } => MicroOp::MovReg { dst, src },
        Inst::Lea { dst, mem } => MicroOp::Lea { dst, mem },
        Inst::Load { dst, mem } => MicroOp::Load { dst, mem },
        Inst::Store { src, mem } => MicroOp::Store { src, mem },
        Inst::Push { src } => MicroOp::Push { src },
        Inst::Pop { dst } => MicroOp::Pop { dst },
        Inst::Nop => MicroOp::Nop,
        Inst::CallDirect { target } => MicroOp::CallDirect { target },
        Inst::CallIndirectReg { target } => MicroOp::CallIndirectReg { target },
        Inst::CallIndirectMem { mem } => MicroOp::CallIndirectMem { mem },
        Inst::JmpDirect { target } => MicroOp::JmpDirect { target },
        Inst::JmpIndirectMem { mem } => MicroOp::JmpIndirectMem { mem },
        Inst::JmpIndirectReg { target } => MicroOp::JmpIndirectReg { target },
        Inst::BranchCond {
            cond,
            lhs,
            rhs,
            target,
        } => match rhs {
            Operand::Reg(rhs) => MicroOp::BranchRR {
                cond,
                lhs,
                rhs,
                target,
            },
            Operand::Imm(imm) => MicroOp::BranchRI {
                cond,
                lhs,
                imm,
                target,
            },
        },
        Inst::Ret => MicroOp::Ret,
        Inst::Halt => MicroOp::Halt,
        Inst::Mark { id } => MicroOp::Mark { id },
        Inst::HostCall { id } => return Err(id),
    };
    let terminal = matches!(
        op,
        MicroOp::CallDirect { .. }
            | MicroOp::CallIndirectReg { .. }
            | MicroOp::CallIndirectMem { .. }
            | MicroOp::JmpDirect { .. }
            | MicroOp::JmpIndirectMem { .. }
            | MicroOp::JmpIndirectReg { .. }
            | MicroOp::BranchRR { .. }
            | MicroOp::BranchRI { .. }
            | MicroOp::Ret
            | MicroOp::Halt
            | MicroOp::Mark { .. }
    );
    Ok((op, terminal))
}

/// Translates one fetched instruction into a block op. Returns the op
/// and whether it terminates the block; `None` for instructions that
/// never enter blocks (host calls).
pub(crate) fn translate_op(inst: Inst, pc: VirtAddr, in_plt: bool) -> Option<(SbOp, bool)> {
    let (op, terminal) = lower(inst).ok()?;
    Some((
        SbOp {
            pre: None,
            op,
            pc,
            fall: pc + inst.encoded_len(),
            in_plt,
            role: Role::of(&inst),
            fetch_run: 1,
            fetch_insts: 1,
        },
        terminal,
    ))
}

/// A translated superblock: a non-empty straight-line run of micro-ops
/// plus the invalidation tags it was translated under and the chaining
/// memo to its most recent successor.
#[derive(Debug)]
pub(crate) struct SuperBlock {
    /// Entry pc (dispatch key, revalidated on every use).
    pub(crate) entry: VirtAddr,
    /// Space code identity at translation
    /// ([`dynlink_mem::AddressSpace::code_uid`]), so one translation
    /// serves every member of a shared-code fork family.
    pub(crate) uid: u64,
    /// Code version at translation.
    pub(crate) version: u64,
    /// PLT epoch at translation.
    pub(crate) plt_epoch: u64,
    /// Cache-wide eviction generation at translation.
    pub(crate) gen: u64,
    /// The micro-ops, in execution order; the last op is either a
    /// terminal or the run was cut by the page boundary / length cap /
    /// an untranslatable next instruction.
    pub(crate) ops: Box<[SbOp]>,
    /// Total instructions the block retires when run to completion
    /// (ops plus their fused pre-ops) — the fast budget check.
    pub(crate) inst_total: u64,
    /// Block chaining: `(next_pc, block index)` of the successor this
    /// block most recently dispatched to. Validated before use — the
    /// successor of a call varies when the ABTB starts skipping its
    /// trampoline, and the target block may itself have gone stale —
    /// so a mismatch just falls back to the index lookup.
    pub(crate) succ: Option<(VirtAddr, u32)>,
}

/// Hasher for the `(uid, pc)` dispatch index: same rationale as the
/// page-table hasher in `dynlink-mem` — keys are simulator-controlled
/// integers, so a multiply-fold beats SipHash on the dispatch path.
#[derive(Debug, Default, Clone, Copy)]
struct SbKeyHasher(u64);

impl std::hash::Hasher for SbKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = (v ^ self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct BuildSbKeyHasher;

impl std::hash::BuildHasher for BuildSbKeyHasher {
    type Hasher = SbKeyHasher;

    #[inline]
    fn build_hasher(&self) -> SbKeyHasher {
        SbKeyHasher(0)
    }
}

/// Upper bound on cached superblocks. Single-process runs sit far
/// below it; a fleet of thousands of churned tenants would otherwise
/// accumulate blocks under retired code identities without bound.
pub(crate) const SB_CAPACITY: usize = 8192;

/// The translation cache: an arena of blocks plus the `(uid, entry pc)`
/// dispatch index and the eviction generation. Shared by every core of
/// a machine — blocks are tagged by space identity, not by core, so a
/// translation is valid wherever the process is scheduled (exactly like
/// the predecode arena).
#[derive(Debug, Default)]
pub(crate) struct SbCache {
    pub(crate) blocks: Vec<SuperBlock>,
    index: HashMap<(u64, u64), u32, BuildSbKeyHasher>,
    /// Bumped whenever the arena is cleared by the capacity reset;
    /// callers holding raw block indices across an `install` compare it
    /// to know their indices survived.
    pub(crate) resets: u64,
    /// Bumped on every predecode-page drop (demand eviction, module-GC
    /// unmap): a conservative whole-cache shootdown. Blocks never cross
    /// pages, but the cache does not track which page each block sits
    /// on — evictions are rare and retranslation is cheap, so one
    /// generation tag beats per-page back-pointers on the dispatch
    /// path.
    pub(crate) gen: u64,
}

impl SbCache {
    /// Looks up the arena index of the block entered at `(uid, pc)`.
    #[inline]
    pub(crate) fn lookup(&self, uid: u64, pc: VirtAddr) -> Option<u32> {
        self.index.get(&(uid, pc.as_u64())).copied()
    }

    /// Installs `block` (replacing any stale block already indexed at
    /// its `(uid, entry)`) and returns its arena index.
    ///
    /// The arena is bounded at [`SB_CAPACITY`] blocks: a vacant insert
    /// at capacity clears the whole cache first (bumping both the
    /// generation and [`SbCache::resets`]) and starts over — retired
    /// identities from churned processes would otherwise pin arena
    /// slots forever. Retranslation is cheap and the reset is
    /// architecturally invisible, like every eviction here.
    pub(crate) fn install(&mut self, block: SuperBlock) -> u32 {
        if let Some(&idx) = self.index.get(&(block.uid, block.entry.as_u64())) {
            self.blocks[idx as usize] = block;
            return idx;
        }
        if self.blocks.len() >= SB_CAPACITY {
            self.blocks.clear();
            self.index.clear();
            self.gen += 1;
            self.resets += 1;
        }
        let idx = u32::try_from(self.blocks.len()).expect("translation cache overflow");
        self.index.insert((block.uid, block.entry.as_u64()), idx);
        self.blocks.push(block);
        idx
    }

    /// Records the whole-cache shootdown owed after a predecoded page
    /// is dropped: every live block's generation tag goes stale, so no
    /// dispatch can revalidate a translation that may span the dropped
    /// page.
    #[inline]
    pub(crate) fn invalidate_all(&mut self) {
        self.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynlink_isa::Operand;

    #[test]
    fn lowering_flattens_operands_and_flags_terminals() {
        let (op, term) = lower(Inst::add_imm(Reg::R0, 5)).unwrap();
        assert!(matches!(op, MicroOp::AluRI { imm: 5, .. }));
        assert!(!term);
        let (op, term) = lower(Inst::add_reg(Reg::R0, Reg::R1)).unwrap();
        assert!(matches!(op, MicroOp::AluRR { src: Reg::R1, .. }));
        assert!(!term);
        let (_, term) = lower(Inst::Ret).unwrap();
        assert!(term);
        let (_, term) = lower(Inst::Mark { id: 3 }).unwrap();
        assert!(term, "marks terminate blocks so run bounds stay exact");
        let (op, term) = lower(Inst::BranchCond {
            cond: Cond::Ne,
            lhs: Reg::R1,
            rhs: Operand::Imm(9),
            target: VirtAddr::new(0x40),
        })
        .unwrap();
        assert!(matches!(op, MicroOp::BranchRI { imm: 9, .. }));
        assert!(term);
        assert_eq!(
            lower(Inst::HostCall { id: HostFnId(4) }).err(),
            Some(HostFnId(4)),
            "a host call lowers to its function id"
        );
    }

    #[test]
    fn roles_match_the_interpreter_predicates() {
        assert_eq!(
            Role::of(&Inst::CallDirect {
                target: VirtAddr::new(0x10)
            }),
            Role::Call
        );
        assert_eq!(
            Role::of(&Inst::JmpIndirectMem {
                mem: MemRef::Abs(VirtAddr::new(0x10))
            }),
            Role::MemIndirectJump
        );
        assert_eq!(Role::of(&Inst::mov_imm(Reg::SCRATCH, 1)), Role::ScratchOnly);
        assert_eq!(
            Role::of(&Inst::Load {
                dst: Reg::SCRATCH,
                mem: MemRef::Abs(VirtAddr::new(0x10))
            }),
            Role::Other,
            "a load is never scratch-only even when it writes SCRATCH"
        );
        assert_eq!(Role::of(&Inst::mov_imm(Reg::R0, 1)), Role::Other);
    }

    #[test]
    fn translate_op_precomputes_fall_through() {
        let pc = VirtAddr::new(0x1000);
        let (op, _) = translate_op(Inst::mov_imm(Reg::R0, 1), pc, true).unwrap();
        assert_eq!(op.fall, pc + 7);
        assert!(op.in_plt);
        assert!(translate_op(Inst::HostCall { id: HostFnId(1) }, pc, false).is_none());
    }

    #[test]
    fn install_replaces_stale_blocks_in_place() {
        let mut cache = SbCache::default();
        let blk = |version| SuperBlock {
            entry: VirtAddr::new(0x1000),
            uid: 7,
            version,
            plt_epoch: 0,
            gen: 0,
            ops: Box::new([]),
            inst_total: 0,
            succ: None,
        };
        let a = cache.install(blk(0));
        let b = cache.install(blk(1));
        assert_eq!(a, b, "same (uid, entry) reuses the arena slot");
        assert_eq!(cache.blocks.len(), 1);
        assert_eq!(cache.blocks[a as usize].version, 1);
        assert_eq!(cache.lookup(7, VirtAddr::new(0x1000)), Some(a));
        assert_eq!(cache.lookup(8, VirtAddr::new(0x1000)), None);
    }

    #[test]
    fn invalidate_all_bumps_the_generation() {
        let mut cache = SbCache::default();
        let g = cache.gen;
        cache.invalidate_all();
        assert_eq!(cache.gen, g + 1);
    }
}
