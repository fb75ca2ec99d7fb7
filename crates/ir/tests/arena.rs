//! Integration tests for the arena-backed representation: edge cases a
//! scheduling pass can hit (stale indices, empty blocks, single-inst
//! regions) and the canonical-encoding stability contract the serve
//! cache depends on.

use gis_ir::{from_canonical_bytes, parse_function, to_canonical_bytes, InstId, RegionView};

const SRC: &str = "func t\n\
    e:\n LI r0=1\n LI r1=2\n BT tail,cr0,0x1/lt\n\
    mid:\n AI r0=r0,1\n\
    tail:\n RET\n";

#[test]
fn stale_index_is_rejected_after_removal() {
    let mut f = parse_function(SRC).unwrap();
    let e = f.entry();
    let stale = f.block(e).idx_at(0);
    assert_eq!(f.inst(stale).id, InstId::new(0));

    let removed = f.block_mut(e).remove(InstId::new(0)).unwrap();
    assert_eq!(removed.id, InstId::new(0));
    assert!(f.get_inst(stale).is_none(), "generation bump rejects reuse");

    // The freed slot is recycled for the next allocation — under a new
    // generation, so the stale index still misses.
    f.block_mut(e).push(removed);
    assert!(f.get_inst(stale).is_none());
    assert_eq!(f.num_insts(), f.arena_live(), "list/arena agreement");
}

#[test]
fn empty_block_round_trips_and_relinks() {
    let mut f = parse_function(SRC).unwrap();
    let mid = f.block_ids().nth(1).unwrap();
    let tail = f.block_ids().nth(2).unwrap();

    // Drain `mid` by relinking its only instruction into `tail`.
    let id = f.block(mid).inst_at(0).id;
    f.relink_inst(id, mid, tail, 0);
    assert!(f.block(mid).is_empty());
    assert_eq!(f.block(tail).len(), 2);
    assert_eq!(f.num_insts(), f.arena_live());

    // An empty block prints, canon-encodes, and views cleanly.
    let v = RegionView::new(&f, vec![mid]);
    assert_eq!(v.num_insts(), 0);
    let bytes = to_canonical_bytes(&f);
    let back = from_canonical_bytes(&bytes).unwrap();
    assert!(back.block(mid).is_empty());
    assert_eq!(to_canonical_bytes(&back), bytes);
}

#[test]
fn single_instruction_region_view() {
    let f = parse_function(SRC).unwrap();
    let tail = f.block_ids().nth(2).unwrap();
    let v = RegionView::new(&f, vec![tail]);
    assert_eq!(v.num_blocks(), 1);
    assert_eq!(v.num_insts(), 1);
    let (b, inst) = v.insts().next().unwrap();
    assert_eq!(b, tail);
    assert!(inst.op.is_block_end());
}

#[test]
fn canonical_bytes_ignore_arena_layout() {
    // Two functions with identical program text but different arena slot
    // histories (one suffered a remove/re-push churn) must encode to the
    // same canonical bytes: identity is InstId, never slot numbers.
    let clean = parse_function(SRC).unwrap();
    let mut churned = parse_function(SRC).unwrap();
    let e = churned.entry();
    let inst = churned.block_mut(e).remove_at(0);
    churned.block_mut(e).insert(0, inst);
    assert_ne!(
        clean.block(e).idx_at(0),
        churned.block(e).idx_at(0),
        "the churned function really does use different slots"
    );
    assert_eq!(to_canonical_bytes(&clean), to_canonical_bytes(&churned));
    assert_eq!(format!("{clean}"), format!("{churned}"));
}

#[test]
fn snapshot_stays_slot_aligned_through_scheduling_mutations() {
    let master = parse_function(SRC).unwrap();
    let mut worker = master.snapshot();
    let e = worker.entry();

    // Scheduling-shaped mutations: permute a list, relink across blocks,
    // rewrite a payload. None allocate or free slots.
    worker.block_mut(e).sort_by_key(|i| std::cmp::Reverse(i.id));
    let tail = worker.block_ids().nth(2).unwrap();
    let mid = worker.block_ids().nth(1).unwrap();
    let id = worker.block(mid).inst_at(0).id;
    worker.relink_inst(id, mid, tail, 0);

    // Master is untouched, and every index the worker holds still names
    // the same slot in the master arena.
    assert_eq!(master.block(e).inst_at(0).id, InstId::new(0));
    for (b, _) in worker.insts() {
        for pos in 0..worker.block(b).len() {
            let ix = worker.block(b).idx_at(pos);
            let id = worker.block(b).inst_at(pos).id;
            assert_eq!(master.inst(ix).id, id, "slot-aligned at {ix}");
        }
    }
}
