//! Integration tests for block-owned instructions: edge cases a
//! scheduling pass can hit (empty blocks) and the copy-on-write contract
//! between a function and its snapshots that `--jobs` workers rely on.

use gis_ir::{
    from_canonical_bytes, parse_function, to_canonical_bytes, BlockId, Inst, InstId, Op, Reg,
};

const SRC: &str = "func t\n\
    e:\n LI r0=1\n LI r1=2\n BT tail,cr0,0x1/lt\n\
    mid:\n AI r0=r0,1\n\
    tail:\n RET\n";

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

    // An empty block prints and canon-encodes cleanly.
    let bytes = to_canonical_bytes(&f);
    let back = from_canonical_bytes(&bytes).unwrap();
    assert!(back.block(mid).is_empty());
    assert_eq!(to_canonical_bytes(&back), bytes);
    assert_eq!(back.to_string(), f.to_string());
}

/// Every edit a pass can make, applied to a snapshot, leaves the
/// original's text and canonical bytes exactly as they were.
#[test]
fn snapshot_edits_never_reach_the_original() {
    // `dead` is unreachable: `mid` ends in an unconditional branch.
    let original = parse_function(
        "func t\n\
         e:\n LI r0=1\n LI r1=2\n CI cr0=r0,1\n BT tail,cr0,0x1/lt\n\
         mid:\n AI r0=r0,1\n B tail\n\
         dead:\n AI r1=r1,1\n\
         tail:\n PRINT r0\n PRINT r1\n RET\n",
    )
    .unwrap();
    let (e, mid, tail) = (BlockId::new(0), BlockId::new(1), BlockId::new(3));
    let text = original.to_string();
    let bytes = to_canonical_bytes(&original);
    for edit in [
        "push",
        "insert",
        "remove",
        "remove_at",
        "inst_mut",
        "retain",
        "truncate",
        "sort_by_rank",
        "set_order",
        "set_label",
        "relink_inst",
        "map_block_insts",
        "insert_block_at",
        "remove_unreachable_blocks",
    ] {
        let mut f = original.snapshot();
        let li = Inst::new(
            f.fresh_inst_id(),
            Op::LoadImm {
                rt: Reg::gpr(0),
                imm: 9,
            },
        );
        match edit {
            "push" => f.block_mut(tail).push(li),
            "insert" => f.block_mut(e).insert(1, li),
            "remove" => drop(f.block_mut(e).remove(InstId::new(1))),
            "remove_at" => drop(f.block_mut(tail).remove_at(0)),
            "inst_mut" => f.block_mut(e).inst_mut(0).op = Op::Ret,
            "retain" => f.block_mut(e).retain(|i| i.id != InstId::new(0)),
            "truncate" => f.block_mut(tail).truncate(1),
            "sort_by_rank" => f.block_mut(e).sort_by_rank(|i| std::cmp::Reverse(i.id)),
            "set_order" => f.block_mut(e).set_order(&[1, 0, 2, 3].map(InstId::new)),
            "set_label" => f.block_mut(mid).set_label("renamed"),
            "relink_inst" => f.relink_inst(InstId::new(4), mid, e, 0),
            "map_block_insts" => f.map_block_insts(tail, |i| i.op.map_uses(|_| Reg::gpr(7))),
            "insert_block_at" => drop(f.insert_block_at(1, "fresh")),
            "remove_unreachable_blocks" => assert_eq!(f.remove_unreachable_blocks(), 1),
            _ => unreachable!(),
        }
        assert_ne!(f.to_string(), text, "{edit} changed nothing");
        assert_eq!(
            original.to_string(),
            text,
            "{edit} reached the original's text"
        );
        assert_eq!(
            to_canonical_bytes(&original),
            bytes,
            "{edit} reached the original's bytes"
        );
    }
}
