//! Warp state: the SIMT divergence stack, the warp's register file and
//! local memory as lane rows, call stack and scheduling status.
//!
//! The divergence model follows NVIDIA's stack-based reconvergence
//! (paper §5): `SSY` pushes a reconvergence token; a divergent branch
//! defers one path on the stack; `SYNC` parks the executing lanes and,
//! once the active set drains, pops deferred paths and finally the
//! reconvergence token, resuming all surviving lanes at the
//! reconvergence point.

use sassi_isa::{Gpr, LaneMask, PredReg};

/// One divergence-stack entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackEntry {
    /// Reconvergence token pushed by `SSY`.
    Ssy {
        /// Reconvergence pc.
        reconv: u32,
        /// Lanes to resume there.
        mask: LaneMask,
    },
    /// A deferred branch path.
    Div {
        /// Where the deferred lanes resume.
        pc: u32,
        /// The deferred lanes.
        mask: LaneMask,
    },
}

/// Why a warp is not currently issuing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WarpStatus {
    /// Issuable once `ready_at` passes.
    Ready,
    /// Waiting at a block barrier.
    AtBarrier,
    /// All lanes exited.
    Done,
}

/// The architectural and scheduling state of one warp.
#[derive(Clone, Debug)]
pub struct Warp {
    /// Index of the resident CTA this warp belongs to.
    pub cta: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
    /// Current program counter (flat module code space).
    ///
    /// Invariant the block-stepped scheduler depends on: executing any
    /// µop that is not a block boundary (see
    /// [`crate::is_block_boundary`]) advances `pc` by exactly one —
    /// including instrumentation traps, whose handlers run to
    /// completion within the step and always resume at `pc + 1`. Only
    /// boundary µops (branches, `SSY`/`SYNC`, calls, returns, `EXIT`,
    /// `BAR.SYNC`) may move `pc` anywhere else, and the block table
    /// places each of those last in its block.
    pub pc: u32,
    /// Currently active lanes.
    pub active: LaneMask,
    /// Lanes that exist in this warp (partial last warp of a block).
    pub existing: LaneMask,
    /// Lanes that have executed `EXIT`.
    pub exited: LaneMask,
    /// Divergence stack.
    pub stack: Vec<StackEntry>,
    /// Warp-synchronous call stack of return pcs.
    pub call_stack: Vec<u32>,
    /// Earliest cycle at which the warp may issue.
    pub ready_at: u64,
    /// Scheduling status.
    pub status: WarpStatus,
    /// The register file as lane rows: register `r` of lane `l` is
    /// `regs[32 * r + l]`, so each register is one contiguous 32-word
    /// row (`regs_per_thread` rows).
    pub regs: Vec<u32>,
    /// Per-lane predicate files (bits 0..6 = P0..P6).
    pub preds: [u8; 32],
    /// Per-lane carry flags.
    pub cc: [bool; 32],
    /// Local memory as word-interleaved lane rows: byte `a` of lane `l`
    /// is byte `a & 3` (little-endian) of word `l` of row `a >> 2`. Each
    /// lane owns `local_bytes` bytes, so a lane's slab has no contiguous
    /// storage; [`Warp::read_local`] and [`Warp::write_local`] move byte
    /// ranges. Rows are stored top down — the row at the top of the
    /// slab, where the stack starts, first — and only as deep as the
    /// warp has written: rows below read as zero and take no memory.
    pub(crate) local: Vec<u32>,
    regs_per_thread: u32,
    local_bytes: u32,
}

impl Warp {
    /// Creates a warp with `existing` lanes at `entry`.
    pub fn new(
        cta: usize,
        warp_in_cta: u32,
        entry: u32,
        existing: LaneMask,
        regs_per_thread: u32,
        local_bytes: u32,
    ) -> Warp {
        let mut w = Warp {
            cta,
            warp_in_cta,
            pc: entry,
            active: existing,
            existing,
            exited: 0,
            stack: Vec::new(),
            call_stack: Vec::new(),
            ready_at: 0,
            status: WarpStatus::Ready,
            regs: vec![0; 32 * regs_per_thread as usize],
            preds: [0; 32],
            cc: [false; 32],
            local: Vec::new(),
            regs_per_thread,
            local_bytes,
        };
        // ABI: R1 is the stack pointer, initialized to the top of the
        // thread's local slab (stack grows down).
        w.reset_sp();
        w
    }

    /// Reinitializes a retired warp in place for a new block, reusing
    /// the register-file and local-memory allocations (the capacities
    /// and stored local rows are kept; contents are zeroed as `new`
    /// would).
    pub fn reset(
        &mut self,
        cta: usize,
        warp_in_cta: u32,
        entry: u32,
        existing: LaneMask,
        regs_per_thread: u32,
        local_bytes: u32,
    ) {
        self.cta = cta;
        self.warp_in_cta = warp_in_cta;
        self.pc = entry;
        self.active = existing;
        self.existing = existing;
        self.exited = 0;
        self.stack.clear();
        self.call_stack.clear();
        self.ready_at = 0;
        self.status = WarpStatus::Ready;
        if self.regs_per_thread != regs_per_thread {
            self.regs_per_thread = regs_per_thread;
            self.regs.resize(32 * regs_per_thread as usize, 0);
        }
        if self.local_bytes != local_bytes {
            self.local_bytes = local_bytes;
            self.local.truncate(32 * self.local_rows());
        }
        self.regs.fill(0);
        self.local.fill(0);
        self.preds = [0; 32];
        self.cc = [false; 32];
        self.reset_sp();
    }

    /// ABI: R1 is the stack pointer, initialized to the top of the
    /// thread's local slab (stack grows down).
    fn reset_sp(&mut self) {
        let sp = 32 * Gpr::SP.index() as usize;
        self.regs[sp..sp + 32].fill(self.local_bytes);
    }

    /// Registers provisioned per thread.
    pub fn regs_per_thread(&self) -> u32 {
        self.regs_per_thread
    }

    /// Bytes of local slab per thread.
    pub fn local_bytes(&self) -> u32 {
        self.local_bytes
    }

    /// Reads lane `lane`'s register `r` (`RZ` reads zero).
    pub fn reg(&self, lane: usize, r: Gpr) -> u32 {
        if r.is_rz() {
            return 0;
        }
        debug_assert!(
            (r.index() as u32) < self.regs_per_thread,
            "R{} unprovisioned",
            r.index()
        );
        debug_assert!(lane < 32);
        self.regs[32 * r.index() as usize + lane]
    }

    /// Writes lane `lane`'s register `r` (writes to `RZ` are dropped).
    pub fn set_reg(&mut self, lane: usize, r: Gpr, v: u32) {
        if r.is_rz() {
            return;
        }
        debug_assert!(
            (r.index() as u32) < self.regs_per_thread,
            "R{} unprovisioned",
            r.index()
        );
        debug_assert!(lane < 32);
        self.regs[32 * r.index() as usize + lane] = v;
    }

    /// Reads a register pair as a 64-bit value.
    pub fn reg64(&self, lane: usize, r: Gpr) -> u64 {
        if r.is_rz() {
            return 0;
        }
        (self.reg(lane, r) as u64) | ((self.reg(lane, r.pair_hi()) as u64) << 32)
    }

    /// Writes a register pair from a 64-bit value.
    pub fn set_reg64(&mut self, lane: usize, r: Gpr, v: u64) {
        self.set_reg(lane, r, v as u32);
        self.set_reg(lane, r.pair_hi(), (v >> 32) as u32);
    }

    /// Reads lane `lane`'s predicate `p` (`PT` reads true).
    pub fn pred(&self, lane: usize, p: PredReg) -> bool {
        p.is_pt() || self.preds[lane] & (1 << p.index()) != 0
    }

    /// Writes lane `lane`'s predicate `p` (writes to `PT` are dropped).
    pub fn set_pred(&mut self, lane: usize, p: PredReg, v: bool) {
        if p.is_pt() {
            return;
        }
        if v {
            self.preds[lane] |= 1 << p.index();
        } else {
            self.preds[lane] &= !(1 << p.index());
        }
    }

    /// Rows of 32-bit words in a lane's local slab.
    fn local_rows(&self) -> usize {
        self.local_bytes.div_ceil(4) as usize
    }

    /// Index in `local` of word `lane` of row `row` (which may lie past
    /// the stored rows). Panics on a lane or row outside the warp's
    /// local memory rather than alias another lane's word.
    fn local_index(&self, row: usize, lane: usize) -> usize {
        assert!(
            lane < 32 && row < self.local_rows(),
            "local word out of range"
        );
        32 * (self.local_rows() - 1 - row) + lane
    }

    /// Stores rows `row..` of local memory, so they can be written, and
    /// returns the position of row `row` among the stored rows (which
    /// run top down: stored row `i` is slab row `local_rows - 1 - i`).
    pub(crate) fn store_local_rows(&mut self, row: usize) -> usize {
        let depth = self.local_rows() - 1 - row;
        if self.local.len() < 32 * (depth + 1) {
            self.local.resize(32 * (depth + 1), 0);
        }
        depth
    }

    /// Row `row` of local memory across the warp (zero if never
    /// written).
    pub fn local_row(&self, row: usize) -> [u32; 32] {
        let i = self.local_index(row, 0);
        self.local
            .get(i..i + 32)
            .map_or([0; 32], |r| r.try_into().unwrap())
    }

    /// Whether bytes `addr..addr + len` lie inside a lane's local slab.
    fn local_fits(&self, addr: u64, len: usize) -> bool {
        addr.checked_add(len as u64)
            .is_some_and(|end| end <= self.local_bytes as u64)
    }

    /// Copies lane `lane`'s local bytes `addr..addr + buf.len()` into
    /// `buf`. Returns `false`, having copied nothing, if the range
    /// leaves the lane's slab. Any alignment works: a misaligned range
    /// straddles rows byte by byte.
    pub fn read_local(&self, lane: usize, addr: u64, buf: &mut [u8]) -> bool {
        if !self.local_fits(addr, buf.len()) {
            return false;
        }
        let a = addr as usize;
        let word = |row| {
            let i = self.local_index(row, lane);
            self.local.get(i).copied().unwrap_or(0)
        };
        if a.is_multiple_of(4) && buf.len().is_multiple_of(4) {
            for (k, w) in buf.chunks_exact_mut(4).enumerate() {
                w.copy_from_slice(&word(a / 4 + k).to_le_bytes());
            }
        } else {
            for (k, b) in buf.iter_mut().enumerate() {
                let x = a + k;
                *b = (word(x >> 2) >> (8 * (x & 3))) as u8;
            }
        }
        true
    }

    /// Copies `bytes` into lane `lane`'s local memory at `addr`.
    /// Returns `false`, having written nothing, if the range leaves the
    /// lane's slab. Any alignment works, as in [`Warp::read_local`].
    pub fn write_local(&mut self, lane: usize, addr: u64, bytes: &[u8]) -> bool {
        if !self.local_fits(addr, bytes.len()) {
            return false;
        }
        if bytes.is_empty() {
            return true;
        }
        let a = addr as usize;
        self.store_local_rows(a >> 2);
        if a.is_multiple_of(4) && bytes.len().is_multiple_of(4) {
            for (k, w) in bytes.chunks_exact(4).enumerate() {
                let i = self.local_index(a / 4 + k, lane);
                self.local[i] = u32::from_le_bytes(w.try_into().unwrap());
            }
        } else {
            for (k, &b) in bytes.iter().enumerate() {
                let x = a + k;
                let shift = 8 * (x & 3);
                let i = self.local_index(x >> 2, lane);
                self.local[i] = (self.local[i] & !(0xff << shift)) | (b as u32) << shift;
            }
        }
        true
    }

    /// Iterates the active lane indices (ascending, allocation-free).
    pub fn active_lanes(&self) -> sassi_isa::Lanes {
        sassi_isa::lanes(self.active)
    }

    /// Lowest active lane, if any — the "first active thread" handlers
    /// elect with `__ffs(__ballot(1))-1`.
    pub fn leader(&self) -> Option<usize> {
        if self.active == 0 {
            None
        } else {
            Some(self.active.trailing_zeros() as usize)
        }
    }

    // ---- divergence-stack transitions -----------------------------------

    /// Executes `SSY target`.
    pub fn push_ssy(&mut self, reconv: u32) {
        self.stack.push(StackEntry::Ssy {
            reconv,
            mask: self.active,
        });
        self.pc += 1;
    }

    /// Executes a branch: `taken` lanes (subset of active) go to
    /// `target`, the rest fall through. Returns whether the branch
    /// diverged (both sides non-empty).
    pub fn branch(&mut self, target: u32, taken: LaneMask) -> bool {
        let taken = taken & self.active;
        let not_taken = self.active & !taken;
        if taken == 0 {
            self.pc += 1;
            false
        } else if not_taken == 0 {
            self.pc = target;
            false
        } else {
            self.stack.push(StackEntry::Div {
                pc: self.pc + 1,
                mask: not_taken,
            });
            self.active = taken;
            self.pc = target;
            true
        }
    }

    /// Executes `SYNC` for `parkers` (subset of active): parks them at
    /// the pending reconvergence point. When the active set drains, pops
    /// deferred paths / reconverges.
    pub fn sync(&mut self, parkers: LaneMask) {
        self.active &= !parkers;
        if self.active == 0 {
            self.pop_until_runnable();
        } else {
            self.pc += 1;
        }
    }

    /// Executes `EXIT` for `exiters` (subset of active).
    pub fn exit_lanes(&mut self, exiters: LaneMask) {
        self.exited |= exiters;
        self.active &= !exiters;
        if self.active == 0 {
            self.pop_until_runnable();
        } else {
            self.pc += 1;
        }
    }

    /// Pops the divergence stack until some lane is runnable, or marks
    /// the warp done.
    fn pop_until_runnable(&mut self) {
        while self.active == 0 {
            match self.stack.pop() {
                Some(StackEntry::Div { pc, mask }) => {
                    self.active = mask & !self.exited;
                    self.pc = pc;
                }
                Some(StackEntry::Ssy { reconv, mask }) => {
                    self.active = mask & !self.exited;
                    self.pc = reconv;
                }
                None => {
                    self.status = WarpStatus::Done;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w() -> Warp {
        Warp::new(0, 0, 0, 0xffff_ffff, 32, 256)
    }

    #[test]
    fn sp_initialized_to_slab_top() {
        let w = w();
        assert_eq!(w.reg(0, Gpr::SP), 256);
        assert_eq!(w.reg(31, Gpr::SP), 256);
    }

    #[test]
    fn rz_reads_zero_ignores_writes() {
        let mut w = w();
        w.set_reg(3, Gpr::RZ, 77);
        assert_eq!(w.reg(3, Gpr::RZ), 0);
    }

    #[test]
    fn reg64_roundtrip() {
        let mut w = w();
        w.set_reg64(5, Gpr::new(8), 0xdead_beef_0123_4567);
        assert_eq!(w.reg64(5, Gpr::new(8)), 0xdead_beef_0123_4567);
        assert_eq!(w.reg(5, Gpr::new(8)), 0x0123_4567);
        assert_eq!(w.reg(5, Gpr::new(9)), 0xdead_beef);
    }

    #[test]
    fn pt_always_true() {
        let mut w = w();
        assert!(w.pred(0, PredReg::PT));
        w.set_pred(0, PredReg::PT, false);
        assert!(w.pred(0, PredReg::PT));
        w.set_pred(0, PredReg::new(2), true);
        assert!(w.pred(0, PredReg::new(2)));
        assert!(!w.pred(1, PredReg::new(2)));
    }

    #[test]
    fn if_else_reconverges() {
        // SSY end; branch lanes 0..16 taken; then sync; else sync; end.
        let mut w = w();
        w.push_ssy(100);
        assert_eq!(w.pc, 1);
        let diverged = w.branch(50, 0x0000_ffff);
        assert!(diverged);
        assert_eq!(w.pc, 50);
        assert_eq!(w.active, 0x0000_ffff);
        // Taken side syncs: deferred path resumes at fallthrough (2).
        w.sync(w.active);
        assert_eq!(w.pc, 2);
        assert_eq!(w.active, 0xffff_0000);
        // Else side syncs: reconverge at 100 with everyone.
        w.sync(w.active);
        assert_eq!(w.pc, 100);
        assert_eq!(w.active, 0xffff_ffff);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn uniform_branch_no_push() {
        let mut w = w();
        assert!(!w.branch(10, 0xffff_ffff));
        assert_eq!(w.pc, 10);
        assert!(w.stack.is_empty());
        assert!(!w.branch(20, 0));
        assert_eq!(w.pc, 11);
    }

    #[test]
    fn loop_with_incremental_exits() {
        // SSY(end=40) once; lanes leave via guarded sync one by one.
        let mut w = Warp::new(0, 0, 0, 0b111, 32, 256);
        w.push_ssy(40);
        // Iteration: lane 0 leaves.
        w.sync(0b001);
        assert_eq!(w.active, 0b110);
        // Lane 2 leaves.
        w.sync(0b100);
        assert_eq!(w.active, 0b010);
        // Last lane leaves: reconverge at 40 with all three.
        w.sync(0b010);
        assert_eq!(w.pc, 40);
        assert_eq!(w.active, 0b111);
    }

    #[test]
    fn exited_lanes_do_not_reconverge() {
        let mut w = Warp::new(0, 0, 0, 0b1111, 32, 256);
        w.push_ssy(30);
        let _ = w.branch(10, 0b0011);
        // Taken lanes exit inside the region.
        w.exit_lanes(0b0011);
        // Deferred path resumes.
        assert_eq!(w.active, 0b1100);
        // It syncs; reconvergence excludes the exited lanes.
        w.sync(0b1100);
        assert_eq!(w.pc, 30);
        assert_eq!(w.active, 0b1100);
    }

    #[test]
    fn all_lanes_exit_marks_done() {
        let mut w = Warp::new(0, 0, 0, 0b11, 32, 256);
        w.exit_lanes(0b11);
        assert_eq!(w.status, WarpStatus::Done);
    }

    #[test]
    fn leader_is_lowest_active() {
        let mut w = w();
        w.active = 0b1010_0000;
        assert_eq!(w.leader(), Some(5));
        w.active = 0;
        assert_eq!(w.leader(), None);
    }

    #[test]
    fn reset_matches_fresh_warp() {
        let mut used = Warp::new(0, 0, 0, 0xffff_ffff, 32, 256);
        used.set_reg(3, Gpr::new(7), 0xdead);
        used.set_pred(3, PredReg::new(2), true);
        used.cc[5] = true;
        assert!(used.write_local(1, 10, &[0x55]));
        used.push_ssy(40);
        used.call_stack.push(9);
        used.exit_lanes(0xffff_ffff);
        assert_eq!(used.status, WarpStatus::Done);

        used.reset(2, 1, 17, 0x0000_00ff, 32, 256);
        let fresh = Warp::new(2, 1, 17, 0x0000_00ff, 32, 256);
        assert_eq!(used.cta, fresh.cta);
        assert_eq!(used.warp_in_cta, fresh.warp_in_cta);
        assert_eq!(used.pc, fresh.pc);
        assert_eq!(used.active, fresh.active);
        assert_eq!(used.existing, fresh.existing);
        assert_eq!(used.exited, fresh.exited);
        assert_eq!(used.stack, fresh.stack);
        assert_eq!(used.call_stack, fresh.call_stack);
        assert_eq!(used.status, fresh.status);
        assert_eq!(used.regs, fresh.regs);
        assert_eq!(used.preds, fresh.preds);
        assert_eq!(used.cc, fresh.cc);
        assert!((0..64).all(|r| used.local_row(r) == fresh.local_row(r)));
    }

    #[test]
    fn reset_reprovisions_on_geometry_change() {
        let mut w = Warp::new(0, 0, 0, 1, 16, 64);
        w.reset(0, 0, 0, 1, 48, 512);
        assert_eq!(w.regs_per_thread(), 48);
        assert_eq!(w.local_bytes(), 512);
        assert_eq!(w.regs.len(), 32 * 48);
        assert!(w.write_local(0, 508, &[1; 4]) && !w.write_local(0, 509, &[1; 4]));
        assert_eq!(w.local.len(), 32, "only the top row is stored");
        assert_eq!(w.reg(0, Gpr::SP), 512);
    }

    #[test]
    fn lane_local_slabs_disjoint() {
        let mut w = w();
        assert!(w.write_local(0, 0, &[0xaa]));
        assert!(w.write_local(1, 0, &[0xbb]));
        let (mut a, mut b) = ([0u8], [0u8]);
        assert!(w.read_local(0, 0, &mut a) && w.read_local(1, 0, &mut b));
        assert_eq!((a[0], b[0]), (0xaa, 0xbb));
    }

    #[test]
    fn local_bytes_are_word_interleaved_little_endian() {
        let mut w = w();
        assert!(w.write_local(3, 8, &0x4433_2211u32.to_le_bytes()));
        assert_eq!(w.local_row(2)[3], 0x4433_2211);
        // A misaligned range straddles two rows of the same lane.
        assert!(w.write_local(3, 6, &[0xaa, 0xbb, 0xcc, 0xdd]));
        assert_eq!(w.local_row(1)[3], 0xbbaa_0000);
        assert_eq!(w.local_row(2)[3], 0x4433_ddcc);
        let mut buf = [0u8; 5];
        assert!(w.read_local(3, 5, &mut buf));
        assert_eq!(buf, [0, 0xaa, 0xbb, 0xcc, 0xdd]);
        assert!((0..64).all(|r| w.local_row(r)[2] == 0 && w.local_row(r)[4] == 0));
    }

    #[test]
    fn local_rows_are_stored_only_as_deep_as_written() {
        let mut w = w();
        assert!(w.local.is_empty(), "a fresh warp stores no local rows");
        let mut buf = [9u8; 4];
        assert!(w.read_local(7, 0, &mut buf));
        assert_eq!(buf, [0; 4], "unstored rows read as zero");
        // The top row (bytes 252..256) first, then down to row 60.
        assert!(w.write_local(7, 254, &[1, 2]));
        assert_eq!(w.local.len(), 32);
        assert!(w.write_local(7, 242, &[3, 4, 5, 6]));
        assert_eq!(w.local.len(), 32 * (64 - 60));
        assert!(w.read_local(7, 242, &mut buf));
        assert_eq!(buf, [3, 4, 5, 6]);
        assert_eq!(w.local_row(63)[7], 0x0201_0000);
        // Reset keeps the stored rows, zeroed.
        w.reset(0, 0, 0, 1, 32, 256);
        assert_eq!(w.local.len(), 32 * 4);
        assert!((0..64).all(|r| w.local_row(r) == [0; 32]));
    }

    #[test]
    fn local_ranges_past_the_slab_are_refused_whole() {
        let mut w = w();
        assert!(w.write_local(0, 252, &[1; 4]));
        assert!(!w.write_local(0, 253, &[2; 4]));
        assert!(!w.write_local(0, u64::MAX, &[2]));
        let mut buf = [9u8; 8];
        assert!(!w.read_local(0, 250, &mut buf));
        assert_eq!(buf, [9; 8], "a refused read copies nothing");
        assert!(w.read_local(0, 248, &mut buf));
        assert_eq!(buf, [0, 0, 0, 0, 1, 1, 1, 1]);
    }
}
