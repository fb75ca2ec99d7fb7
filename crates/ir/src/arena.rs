//! The generational instruction arena.
//!
//! Instructions are stored once, in per-function chunked slots; basic
//! blocks hold *index lists* into this arena ([`InstIdx`]). Code motion
//! between blocks therefore never moves, clones or re-allocates an
//! instruction payload — it relinks an index — and a parallel worker can
//! snapshot a whole function by bumping the reference counts of the
//! shared chunks ([`Function::snapshot`](crate::Function::snapshot))
//! instead of deep-cloning every operation.
//!
//! Indices are *generational*: freeing a slot bumps its generation, so a
//! stale [`InstIdx`] held across a removal can never silently read the
//! slot's next tenant. Lookups through a stale index return `None`:
//!
//! ```
//! use gis_ir::{parse_function, InstId};
//!
//! let mut f = parse_function("func t\ne:\n LI r0=1\n LI r1=2\n RET\n").unwrap();
//! let b = f.entry();
//! let stale = f.block(b).idx_at(0);
//! f.block_mut(b).remove(InstId::new(0)).unwrap();
//! assert!(f.get_inst(stale).is_none(), "generation bump rejects the stale index");
//! ```

use crate::block::Inst;
use std::fmt;
use std::sync::Arc;

/// Slots per copy-on-write chunk. Small enough that a rename touching
/// one instruction copies at most this many slots out of a shared
/// snapshot; large enough that snapshotting a function is a handful of
/// reference-count bumps per thousand instructions.
const CHUNK: usize = 64;

/// A stable, generational index of an instruction in its function's
/// arena.
///
/// An `InstIdx` stays valid across any number of motions and reorders —
/// only removing the instruction invalidates it (and bumps the slot's
/// generation so reuse is detected). Contrast with
/// [`InstId`](crate::InstId), the instruction's *name*: the id also
/// survives motion, but looking it up costs a scan of its block, while
/// an index is a direct O(1) arena access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstIdx {
    raw: u32,
    gen: u32,
}

impl InstIdx {
    /// The raw slot number. Slots are reused after a removal — two
    /// indices can share a slot across time, distinguished only by
    /// [`InstIdx::generation`].
    pub fn slot(self) -> usize {
        self.raw as usize
    }

    /// The slot generation this index was minted under.
    pub fn generation(self) -> u32 {
        self.gen
    }
}

impl fmt::Display for InstIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ix{}g{}", self.raw, self.gen)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    gen: u32,
    inst: Option<Inst>,
}

/// The per-function instruction store: chunked, generational, shared
/// copy-on-write between a function and its snapshots.
#[derive(Debug, Clone, Default)]
pub(crate) struct InstArena {
    chunks: Vec<Arc<Vec<Slot>>>,
    /// Freed slot numbers available for reuse (their generation was
    /// already bumped when they were freed).
    free: Vec<u32>,
    /// Number of live (occupied) slots.
    live: usize,
}

impl InstArena {
    /// Stores `inst`, reusing a freed slot when one exists.
    pub(crate) fn alloc(&mut self, inst: Inst) -> InstIdx {
        self.live += 1;
        if let Some(raw) = self.free.pop() {
            let slot = self.slot_mut(raw);
            debug_assert!(slot.inst.is_none(), "free list slot occupied");
            slot.inst = Some(inst);
            return InstIdx { raw, gen: slot.gen };
        }
        let raw = self.slots_len() as u32;
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let chunk = Arc::make_mut(self.chunks.last_mut().expect("chunk pushed"));
        chunk.push(Slot {
            gen: 0,
            inst: Some(inst),
        });
        InstIdx { raw, gen: 0 }
    }

    /// The instruction at `idx`, or `None` if the slot was freed (or
    /// freed and reused) since `idx` was minted.
    pub(crate) fn get(&self, idx: InstIdx) -> Option<&Inst> {
        let slot = self
            .chunks
            .get(idx.raw as usize / CHUNK)?
            .get(idx.raw as usize % CHUNK)?;
        if slot.gen != idx.gen {
            return None;
        }
        slot.inst.as_ref()
    }

    /// Mutable access to the instruction at `idx`; copies the owning
    /// chunk first when it is shared with a snapshot.
    pub(crate) fn get_mut(&mut self, idx: InstIdx) -> Option<&mut Inst> {
        let chunk = self.chunks.get_mut(idx.raw as usize / CHUNK)?;
        let slot = Arc::make_mut(chunk).get_mut(idx.raw as usize % CHUNK)?;
        if slot.gen != idx.gen {
            return None;
        }
        slot.inst.as_mut()
    }

    /// Frees the slot at `idx`, returning its instruction and bumping
    /// the generation so stale copies of `idx` are rejected from now on.
    pub(crate) fn remove(&mut self, idx: InstIdx) -> Option<Inst> {
        let chunk = self.chunks.get_mut(idx.raw as usize / CHUNK)?;
        let slot = Arc::make_mut(chunk).get_mut(idx.raw as usize % CHUNK)?;
        if slot.gen != idx.gen {
            return None;
        }
        let inst = slot.inst.take()?;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(idx.raw);
        self.live -= 1;
        Some(inst)
    }

    /// Number of live instructions.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (live + freed).
    pub(crate) fn slots_len(&self) -> usize {
        match self.chunks.last() {
            Some(last) => (self.chunks.len() - 1) * CHUNK + last.len(),
            None => 0,
        }
    }

    fn slot_mut(&mut self, raw: u32) -> &mut Slot {
        let chunk = &mut self.chunks[raw as usize / CHUNK];
        &mut Arc::make_mut(chunk)[raw as usize % CHUNK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::InstId;
    use crate::op::Op;
    use crate::reg::Reg;

    fn li(id: u32, imm: i64) -> Inst {
        Inst::new(
            InstId::new(id),
            Op::LoadImm {
                rt: Reg::gpr(0),
                imm,
            },
        )
    }

    #[test]
    fn alloc_get_remove_round_trip() {
        let mut a = InstArena::default();
        let i0 = a.alloc(li(0, 10));
        let i1 = a.alloc(li(1, 20));
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(i0).unwrap().id, InstId::new(0));
        assert_eq!(a.get(i1).unwrap().id, InstId::new(1));
        let removed = a.remove(i0).unwrap();
        assert_eq!(removed.id, InstId::new(0));
        assert_eq!(a.len(), 1);
        assert!(a.get(i0).is_none(), "freed slot unreadable");
        assert!(a.remove(i0).is_none(), "double free rejected");
    }

    #[test]
    fn reuse_bumps_generation_and_rejects_stale_indices() {
        let mut a = InstArena::default();
        let old = a.alloc(li(0, 1));
        a.remove(old).unwrap();
        let new = a.alloc(li(1, 2));
        assert_eq!(old.slot(), new.slot(), "slot is reused");
        assert_ne!(old.generation(), new.generation());
        assert!(a.get(old).is_none(), "stale index sees nothing");
        assert_eq!(a.get(new).unwrap().id, InstId::new(1));
        assert!(a.get_mut(old).is_none());
    }

    #[test]
    fn chunks_grow_past_one() {
        let mut a = InstArena::default();
        let idxs: Vec<InstIdx> = (0..(CHUNK as u32 * 2 + 3))
            .map(|i| a.alloc(li(i, 0)))
            .collect();
        assert_eq!(a.len(), CHUNK * 2 + 3);
        assert_eq!(a.slots_len(), CHUNK * 2 + 3);
        for (i, idx) in idxs.iter().enumerate() {
            assert_eq!(a.get(*idx).unwrap().id, InstId::new(i as u32));
        }
    }

    #[test]
    fn snapshots_share_until_written() {
        let mut a = InstArena::default();
        let idx = a.alloc(li(0, 7));
        let snap = a.clone();
        // Writing through the original diverges only the touched chunk;
        // the snapshot keeps seeing the old payload.
        if let Op::LoadImm { imm, .. } = &mut a.get_mut(idx).unwrap().op {
            *imm = 99;
        }
        assert!(matches!(
            snap.get(idx).unwrap().op,
            Op::LoadImm { imm: 7, .. }
        ));
        assert!(matches!(
            a.get(idx).unwrap().op,
            Op::LoadImm { imm: 99, .. }
        ));
    }
}
