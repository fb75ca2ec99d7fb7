//! The version-stamped register table of web renaming.

use gis_ir::Reg;
use std::cell::Cell;

/// Register → `u32`, *version-stamped* like the sweep tables of
/// `DataDeps::build`: an entry belongs to the current scope only when
/// its stamp matches the table's version, so starting a scope (a block
/// for [`rename_webs`](crate::webs::rename_webs)) never clears or sizes
/// anything by the function's register count. One table per thread,
/// lent out with [`take`](Self::take) and handed back with
/// [`give_back`](Self::give_back).
#[derive(Default)]
pub(crate) struct Numbering {
    ver: u32,
    /// Per register class, by register index: `(stamp, value)`.
    slots: [Vec<(u32, u32)>; 3],
}

thread_local! {
    static NUMBERING: Cell<Numbering> = const { Cell::new(Numbering::new()) };
}

impl Numbering {
    const fn new() -> Self {
        Numbering {
            ver: 0,
            slots: [Vec::new(), Vec::new(), Vec::new()],
        }
    }

    /// Borrows this thread's table (an empty one if it is lent out).
    pub(crate) fn take() -> Self {
        NUMBERING.with(Cell::take)
    }

    /// Returns the table for the thread's next scope. During thread
    /// teardown the slot may already be gone; the table is then simply
    /// freed.
    pub(crate) fn give_back(self) {
        let _ = NUMBERING.try_with(|slot| slot.set(self));
    }

    /// Starts a new scope: every entry goes stale at once.
    pub(crate) fn begin(&mut self) {
        if self.ver == u32::MAX {
            for s in &mut self.slots {
                s.clear();
            }
            self.ver = 0;
        }
        self.ver += 1;
    }

    pub(crate) fn get(&self, r: Reg) -> Option<usize> {
        match self.slots[r.class().slot()].get(r.index() as usize) {
            Some(&(stamp, value)) if stamp == self.ver => Some(value as usize),
            _ => None,
        }
    }

    pub(crate) fn set(&mut self, r: Reg, value: usize) {
        let slots = &mut self.slots[r.class().slot()];
        let i = r.index() as usize;
        if i >= slots.len() {
            slots.resize(i + 1, (0, 0));
        }
        slots[i] = (self.ver, value as u32);
    }
}
